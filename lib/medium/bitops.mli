(** The four low-level bit operations of Section 3.

    - [mrb] — magnetic read: direction of a magnetised dot; a heated dot
      "would yield a more or less random result" (its perpendicular
      stray field is gone, the channel thresholds noise), so the result
      is a coin flip from the medium's PRNG.
    - [mwb] — magnetic write: sets the direction; silently ineffective
      on a heated dot (no perpendicular axis remains).
    - [ewb] — electrical write: heats the dot, destroying it
      irreversibly; may collaterally heat neighbours with the
      probability given by the thermal model.
    - [erb] — electrical read, {e built out of} magnetic reads and
      writes as the paper's 5-step atomic sequence: read, write inverse,
      verify inverse, write back, verify original.  Any failed
      verification means the dot no longer holds out-of-plane data.

    Every operation increments the per-medium counters, from which the
    device layer derives simulated time and energy; [erb] costs exactly
    5 primitive operations per cycle, which is where the paper's
    "at least 5 times slower than mrb" comes from. *)

type counters = {
  mutable mrb : int;
  mutable mwb : int;
  mutable ewb : int;
  mutable erb : int;  (** erb {e sequences}, not primitive ops. *)
  mutable collateral : int;  (** Neighbour dots destroyed by ewb pulses. *)
}

type ctx
(** A medium together with its counters and the neighbour-damage
    probability of its thermal write profile. *)

val make : ?profile:Physics.Thermal.profile -> Medium.t -> ctx
(** [profile] defaults to {!Physics.Thermal.default_profile} of the
    medium's geometry.  Reads of healthy dots are exact: read noise
    comes only from an installed fault injector ({!set_fault}), at its
    plan's [read_ber]. *)

val clone : ctx -> Medium.t -> ctx
(** [clone ctx medium'] is a context over [medium'] (normally
    [Medium.clone (medium ctx)]) with the same physics and a private
    copy of the counters.  A live fault injector is never inherited —
    injector position state is the parent's history — so the clone's
    [fault] is [None] until the caller installs a fresh one. *)

val medium : ctx -> Medium.t
val counters : ctx -> counters
val reset_counters : ctx -> unit

val fault : ctx -> Fault.Injector.t option
val set_fault : ctx -> Fault.Injector.t option -> unit
(** Install (or remove) a fault injector.  With one installed, every
    primitive op ticks the injector first (so a configured power cut
    raises {!Fault.Injector.Power_cut} {e before} the op touches the
    medium); mrb results pass through the stuck-dot and bit-flip
    filters; ewb pulses may be underpowered and leave their dot
    magnetic.  A run kernel over which the injector is
    {!Fault.Injector.inert} skips the per-op hooks and credits the
    same ticks in one {!Fault.Injector.advance}; a packed read replays
    the flips the filter would have drawn.  [None] (the default)
    restores fault-free behaviour. *)

val mrb : ctx -> int -> Dot.direction
val mwb : ctx -> int -> Dot.direction -> unit
val ewb : ctx -> int -> unit

val erb : ?cycles:int -> ctx -> int -> bool
(** [erb ctx i] is [true] iff the dot is detected as heated.  [cycles]
    (default 1) repeats the invert/verify round: a heated dot passes one
    round by luck with probability 1/4 (both random reads agreeing), so
    callers that must not miss heated dots escalate the cycle count.
    A magnetised dot always comes back with its original data restored. *)

val primitive_ops : counters -> int
(** Total mrb + mwb operations issued, counting the ones inside erb —
    the denominator for op-cost accounting. *)

(** {1 Run kernels}

    Bulk mrb/mwb/erb over a run of consecutive dot addresses, with
    counters charged in bulk.  The magnetic kernels move bits packed
    MSB-first at a bit offset of a byte buffer: dot [start + k] is bit
    [pos + k], i.e. bit [7 - ((pos + k) mod 8)] of byte [(pos + k) / 8]
    (the sector image order).  Each kernel takes a fast, allocation-free
    path only when that is semantically invisible, and otherwise runs a
    per-dot loop over the scalar ops, so fault and RAS semantics are
    bit-identical either way.  The fast paths reproduce the scalar
    path's PRNG draws (heated-dot coin flips, heated-dot erb protocol
    reads) in the exact same order from the medium's PRNG.

    Fast-path guards ("unfaulted over [k] ticks": no injector, or one
    {!Fault.Injector.inert} over the run for [k] ticks, which the
    kernel then credits exactly):
    - {!mrb_run}: [len > 0]; [start], [len] and [dst_pos] multiples of
      8; unfaulted over [len] ticks as a read run (read flips allowed)
      and the run defect-free.  The kernel replays the injector's
      flips: one draw from its PRNG per magnetised dot of nonzero
      effective BER ({!Fault.Plan.region_ber}), in address order, each
      flip logged at the op its dot's own tick would have had
      ({!Fault.Injector.flip_mask}).
    - {!mwb_run}: [len > 0]; [start], [len] and [src_pos] multiples of
      8; unfaulted over [len] ticks.
    - {!erb_run}: unfaulted over [5 * cycles * len] ticks (it credits
      the [mrb + mwb] it charged) and the run defect-free (any start,
      length and bit offset).

    Both packed kernels run each segment chunk through a native loop
    that takes eight state bytes (32 dots, four image bytes) per step,
    with one 64-bit load, while the chunk has that many left, and the
    rest pair by pair.  A read stops at a word (or pair) with a heated
    field, reads it pair by pair in OCaml, so the coin flips keep
    address order, and resumes at the next word; a write merges every
    word under its heated fields' mask, leaving heated dots alone. *)

val get_bit : Bytes.t -> int -> bool
(** [get_bit buf i] is bit [i] of [buf] in the kernels' MSB-first
    order. *)

val set_bit : Bytes.t -> int -> bool -> unit

val mrb_run_fast : ctx -> start:int -> len:int -> bool
(** Whether {!mrb_run} over the run, into a byte-aligned [dst_pos],
    takes the packed kernel rather than the per-dot loop. *)

val mrb_run :
  ctx -> start:int -> len:int -> dst:Bytes.t -> dst_pos:int -> unit
(** Magnetic read of dots [start, start+len) into bits
    [dst_pos, dst_pos+len) of [dst], [true] = Up; equivalent to [len]
    calls of {!mrb} piped through {!Dot.to_bool}.  Every bit of the
    range is written; the bits around it are left alone.
    @raise Invalid_argument if the run or the bit range is out of
    range. *)

val mwb_run :
  ctx -> start:int -> len:int -> src:Bytes.t -> src_pos:int -> unit
(** Magnetic write of bits [src_pos, src_pos+len) of [src] over the
    run; equivalent to [len] calls of {!mwb} via {!Dot.of_bool} (heated
    dots ignore the write). *)

val erb_run :
  ?cycles:int ->
  ctx ->
  start:int ->
  len:int ->
  dst:Bytes.t ->
  dst_pos:int ->
  unit
(** Electrical read of the run into bits [dst_pos, dst_pos+len) of
    [dst] (same packing as {!mrb_run}): a set bit means dot [start + k]
    is detected heated.  Equivalent to [len] calls of {!erb}; every bit
    of the range is written, the bits around it are left alone.  The
    fast path is one native kernel call per segment chunk: it settles
    each heated dot from the next twelve draws' bits through a
    per-[cycles] outcome table, running the rounds one by one only when
    twelve draws leave it open, and advances the medium PRNG by exactly
    the draws it used.
    @raise Invalid_argument if [cycles] is not positive, or the run or
    the bit range is out of range. *)

(** The two ways the native {!erb_run} kernel draws its bits, 64 draws
    at a time, for tests that race them against each other; contexts
    from {!make} get the vector window when it is present. *)
module Window : sig
  type t

  val scalar : t
  (** One splitmix64 draw after another, in portable C, present
      everywhere. *)

  val vector : t option
  (** Eight draws per step on AVX-512DQ; [None] unless this CPU (by
      CPUID and XCR0) and build have it. *)

  val name : t -> string
  (** ["scalar"] or ["avx512"]. *)

  val make : t -> Medium.t -> ctx
  (** [make w m] is [Bitops.make m] with its electrical runs drawn
      through [w]. *)
end
