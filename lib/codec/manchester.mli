(** Manchester encoding over write-once cells (paper, Sections 1 and 3).

    Following Molnar et al. as adapted by the paper's Figure 3, each
    logical bit occupies a {e cell} of two physical dots that can each be
    either heated ([H]) or unheated ([U]):

    - logical [0] is written as the cell [HU],
    - logical [1] is written as the cell [UH],
    - [UU] is a cell that has never been written (all dots start unheated),
    - [HH] is physically reachable only by heating a dot of an
      already-written cell — it is evidence of tampering.

    Because heating is irreversible, an attacker can only turn [U] into
    [H]; every such change to a valid cell yields the invalid cell [HH].
    The encoding also guarantees that a heated dot has at most one heated
    neighbour, which limits thermal-crosstalk damage (Section 3,
    "Heat a line" and Section 7). *)

type cell = Zero | One | Blank | Tampered
(** Decoded value of one two-dot cell: [Zero] = [HU], [One] = [UH],
    [Blank] = [UU], [Tampered] = [HH]. *)

val encode : string -> bool array
(** [encode payload] maps each bit of [payload] (bytes scanned MSB first)
    to a two-dot cell; [true] in the result means "heat this dot".  The
    result has [16 * String.length payload] entries. *)

val encoded_length : int -> int
(** [encoded_length n] is the number of dots needed for [n] payload
    bytes, i.e. [16 * n]. *)

type decode_result = {
  payload : string;  (** Best-effort decoded bytes (tampered/blank cells decode as 0). *)
  tampered_cells : int list;  (** Cell indices found in state [HH]. *)
  blank_cells : int list;  (** Cell indices found in state [UU]. *)
}

val decode : heated:(int -> bool) -> n_bytes:int -> decode_result
(** [decode ~heated ~n_bytes] reads [16 * n_bytes] dots through the
    [heated] predicate (dot index -> is the dot heated?) and decodes the
    cells.  A clean read has no tampered and no blank cells. *)

val is_clean : decode_result -> bool
(** No tampered and no blank cells. *)

val max_adjacent_heated : bool array -> int
(** Longest run of consecutive heated dots in an encoded pattern — the
    spreading guarantee of the paper is that this never exceeds 2
    (a [HU] cell followed by a [UH] cell). *)
