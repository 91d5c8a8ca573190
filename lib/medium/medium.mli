(** The patterned medium: a rows × cols matrix of magnetic dots
    (Section 6, Figure 5), each in one of the three {!Dot} states, plus
    a manufacturing defect map.

    States are packed two bits per dot so that media of 10^7–10^8 dots
    (the scale our experiments simulate; a real device would hold
    ~10^12) stay cheap.  All randomness (heated-dot reads, defect
    placement, collateral-damage draws) is drawn from the medium's own
    {!Sim.Prng.t}, so a seed reproduces a run exactly. *)

type t

type config = {
  rows : int;
  cols : int;
  geometry : Physics.Constants.dot_geometry;
  material : Physics.Constants.material;
  defect_rate : float;
      (** Fraction of dots that are manufacturing defects (cannot hold a
          stable perpendicular bit); placed uniformly at seed time. *)
  seed : int;
}

val default_config : rows:int -> cols:int -> config
(** 100 nm-pitch Co/Pt medium, defect rate 0, seed 42. *)

val create : config -> t
(** All dots start magnetised [Down] (a bulk-erased virgin medium).
    Allocation is lazy: the packed store is segmented and a segment is
    only materialised when first written, so a blank device costs two
    pointer arrays rather than a full matrix. *)

val clone : t -> t
(** Copy-on-write snapshot.  Parent and clone share every unmutated
    segment read-only and each pays a private per-segment copy only as
    it diverges, so cloning a formatted golden device is O(segments)
    pointer work with no payload copies.  The clone gets an independent
    copy of the parent's PRNG state; the defect map and config (both
    immutable after {!create}) are shared. *)

val config : t -> config
val size : t -> int
(** Total number of dots, [rows * cols]. *)

val rows : t -> int
val cols : t -> int
val rng : t -> Sim.Prng.t

val get : t -> int -> Dot.t
(** Physical state of dot [i] (row-major index) — what an oracle (or a
    forensic lab with magnetic imaging, Section 8) sees, {e not} what a
    magnetic read returns.  @raise Invalid_argument out of range. *)

val set : t -> int -> Dot.t -> unit
(** Raw state override — reserved for the attacker model and tests; the
    device goes through {!Bitops}. *)

val is_defect : t -> int -> bool

val run_defect_free : t -> start:int -> len:int -> bool
(** Whether the run [start, start+len) is guaranteed free of defects.
    Checked at {e row} granularity against a bitmap precomputed at
    {!create}, so it is O(rows touched), not O(len); a [false] answer
    may therefore be conservative (defect elsewhere in a touched row),
    which only costs callers their fast path, never correctness.
    @raise Invalid_argument if the run is out of range. *)

val iter_neighbours : t -> int -> (int -> unit) -> unit
(** [iter_neighbours t i f] calls [f] on each dot of the
    4-neighbourhood of dot [i] (same row ±1, same column ±1 row) — the
    dots at thermal risk when [i] is pulse-heated — in the order left,
    right, up, down. *)

(** {1 Run access}

    Allocation-free bulk views for the device hot path.  State codes are
    the raw 2-bit encoding: 0 = Down, 1 = Up, 2 = Heated. *)

type states =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Packed state segments live off-heap in [Bigarray]s so multi-GB
    media never sit on (or get copied by) the OCaml heap.  Bytes hold 4
    dots each: dot [i] occupies bits [2*(i mod 4)..2*(i mod 4)+1] of
    packed byte [i/4]. *)

val iter_chunks :
  t ->
  write:bool ->
  start:int ->
  len:int ->
  (states -> base:int -> start:int -> len:int -> unit) ->
  unit
(** Walk the dot run [start, start+len) one segment-contained chunk at a
    time: the callback gets a segment payload, the packed-byte index
    [base] of its first byte, and the chunk's dot sub-run — dot [i]
    lives in segment byte [(i / 4) - base].  With [~write:false] the
    payload may be a shared (or the global zero) segment and must not be
    written; [~write:true] materialises a private copy first.  Segment
    boundaries are 8-dot-aligned, so chunking never splits a packed byte
    or a packed-kernel byte pair.  This is the bulk-kernel access path
    ({!Bitops} run kernels).
    @raise Invalid_argument if the run is out of range. *)

val packed_length : t -> int
(** Bytes in the packed state store, [(size + 3) / 4]. *)

val segment_bytes : int
(** Packed bytes per CoW segment (a constant; [4 * segment_bytes]
    dots). *)

val owned_segments : t -> int
(** Segments currently materialised privately in this device. *)

val blit_packed : t -> pos:int -> dst:Bytes.t -> dst_off:int -> len:int -> unit
(** Copy [len] packed state bytes starting at packed byte [pos] into
    [dst] — the streaming-image export primitive (chunks of the store,
    no whole-device buffer). *)

val load_packed : t -> pos:int -> src:Bytes.t -> src_off:int -> len:int -> unit
(** Overwrite [len] packed state bytes from [src], collapsing any
    reserved 2-bit code 3 to Heated (the same decoding {!get} applies),
    so foreign bytes cannot plant an unrepresentable state. *)

val count_heated_run : t -> start:int -> len:int -> int
(** Heated dots in [start, start+len), counted a packed state byte at a
    time. *)

val note_heated : t -> int -> unit
(** [set t i Heated] for {!Bitops}' pulses, but a no-op on a dot
    already heated, so re-heating never copies a shared segment. *)
