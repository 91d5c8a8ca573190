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

type decode_result = {
  payload : string;  (** Best-effort decoded bytes (tampered/blank cells decode as 0). *)
  n_tampered : int;  (** Cells found in state [HH]. *)
  n_blank : int;  (** Cells found in state [UU]. *)
}

val decode : Bytes.t -> n_bytes:int -> decode_result
(** [decode dots ~n_bytes] decodes the cells of the first
    [16 * n_bytes] dots of a heated-dot bitmap packed MSB-first (dot
    [i] is bit [7 - i mod 8] of byte [i / 8], set = heated; the layout
    {!Probe.Pdevice.erb_run} writes), one dot byte (four cells) per
    table lookup.  A clean read has no tampered and no blank cells.
    @raise Invalid_argument if [dots] holds fewer than [16 * n_bytes]
    bits. *)

val blank_cells : Bytes.t -> n_bytes:int -> int list
(** Indices of the cells {!decode} counts in [n_blank], ascending. *)

val is_clean : decode_result -> bool
(** No tampered and no blank cells. *)

val max_adjacent_heated : bool array -> int
(** Longest run of consecutive heated dots in an encoded pattern — the
    spreading guarantee of the paper is that this never exceeds 2
    (a [HU] cell followed by a [UH] cell). *)
