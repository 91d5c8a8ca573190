(** Systematic Reed–Solomon code over GF(256).

    Provides the error-correction part of the ~15% sector overhead the
    paper assumes (Section 3, "Sector operations").  A code with
    [nparity] check symbols corrects up to [nparity / 2] unknown symbol
    errors per codeword; decoding uses Berlekamp–Massey, a Chien search
    and Forney's formula. *)

type code
(** A code parameterised by its number of parity symbols. *)

val make : nparity:int -> code
(** [make ~nparity] builds the generator polynomial for [nparity] check
    symbols and the parity kernel's table: u * (x^(nparity+m) mod g)
    for every byte u, in little-endian 64-bit lanes, for m = 0 .. 7 when
    the remainder fills three lanes ([nparity] 17 to 24, which includes
    the sector code's 24; 48 KB) and for m = 0 otherwise.
    @raise Invalid_argument unless [0 < nparity < 255]. *)

val nparity : code -> int

val max_data : code -> int
(** Longest data slice one codeword can carry: [255 - nparity]. *)

val parity : code -> string -> string
(** [parity c data] is the [nparity c]-byte checksum of [data].
    @raise Invalid_argument if [data] is longer than [max_data c]. *)

val parity_into : code -> bytes -> off:int -> len:int -> unit
(** [parity_into c b ~off ~len] writes the parity of the [len] bytes of
    [b] at [off] right after them: the [nparity c] bytes at
    [off + len].  Allocates nothing.  The remainder runs in C: a
    three-lane code takes eight data bytes per dependent step, any other
    code one; {!decode}'s syndromes come from the same kernel.
    @raise Invalid_argument if [len > max_data c] or a range is out of
    bounds. *)

val parity_slices : code -> bytes -> off:int -> len:int -> unit
(** [parity_slices c b ~off ~len] is {!parity_into} on every slice of
    the [encoded_length c len]-byte image at [off]: [len] data bytes cut
    into [max_data c]-byte slices, each followed by its [nparity c]
    parity bytes, the data already in place.  Three slices go through
    one kernel call that runs their dependent chains interleaved.
    Allocates nothing.
    @raise Invalid_argument if the image is out of bounds. *)

type decode_outcome =
  | Ok_clean  (** Codeword already consistent. *)
  | Corrected of int  (** Errors were found and fixed (count given). *)
  | Uncorrectable  (** Too many errors; data not modified reliably. *)

val decode : code -> bytes -> decode_outcome
(** [decode c codeword] checks and repairs a systematic codeword
    (data followed by parity, total length at most 255) in place.
    Allocates nothing: its buffers are per-domain.  An [Uncorrectable]
    codeword may be left partly modified. *)

val probably_clean : code -> bytes -> off:int -> len:int -> bool
(** Cheap probabilistic cleanliness test for the codeword at
    [off, off+len) — evaluates only the first four syndromes instead of
    all [nparity].  [false] is definitive (the codeword has errors);
    [true] can be wrong with probability ~2^-32 for a random corruption,
    so callers must back a fast-path accept with an independent
    integrity check (e.g. the sector CRC) and fall back to {!decode}
    whenever anything downstream disagrees.  For [nparity c >= 4] the
    four syndromes come from one C kernel, eight bytes per dependent
    step; a smaller code evaluates all its syndromes.
    @raise Invalid_argument if the range is out of bounds. *)

val probably_clean_slices : code -> bytes -> off:int -> len:int -> bool
(** [probably_clean_slices c b ~off ~len] is {!probably_clean} of every
    codeword of the image {!parity_slices} describes, [true] for an
    empty one.  Three codewords go through one kernel call that runs
    their dependent chains interleaved.  Allocates nothing.
    @raise Invalid_argument if the image is out of bounds. *)

val encoded_length : code -> int -> int
(** [encoded_length c data_len] is the size of [data_len] bytes cut
    into [max_data c]-byte slices, each followed by its parity. *)
