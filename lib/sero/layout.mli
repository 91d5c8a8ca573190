(** Physical layout: how blocks and lines map onto dot addresses.

    A {e block} is one 512-byte sector occupying
    {!Codec.Sector.physical_bits} dots.  A {e line} is a sequence of
    [2^N] contiguous blocks aligned on a [2^N]-block boundary
    (Section 3, "Heat a line"); block 0 of a line carries the burned
    hash and metadata in its write-once area, blocks 1..2^N-1 carry
    magnetically written data.

    The device addresses blocks by {e physical} block address (PBA)
    only — the paper's addressing requirement — so this module is pure
    arithmetic with no indirection. *)

type t = {
  n_blocks : int;
  line_exp : int;  (** N; a line is [2^N] blocks. *)
  spare_lines : int;
      (** Lines reserved at the top of the address space for grown-defect
          remapping; honest software allocates only in
          [0 .. usable_lines-1]. *)
}

val create : ?spare_lines:int -> n_blocks:int -> line_exp:int -> unit -> t
(** @raise Invalid_argument unless [n_blocks] is a positive multiple of
    [2^line_exp], [line_exp >= 1] and [0 <= spare_lines < n_lines]. *)

val blocks_per_line : t -> int
val data_blocks_per_line : t -> int
(** [2^N - 1]. *)

val n_lines : t -> int

val usable_lines : t -> int
(** [n_lines - spare_lines]: the lines honest software may allocate in.
    The spare region above is owned by the device's endurance layer. *)

val is_spare_line : t -> int -> bool
(** Whether line [l] lies in the reserved spare region. *)

val block_dots : int
(** Dots occupied by one block ({!Codec.Sector.physical_bits}). *)

val wo_area_dots : int
(** Dots of the write-once area inside a line's block 0: 4096 (the
    block's 512-byte payload expressed as raw dots — Figure 3's "bit
    number 0..4095"). *)

val wo_area_bytes : int
(** Logical bytes the Manchester-encoded write-once area holds: 256. *)

val line_of_block : t -> int -> int
(** @raise Invalid_argument if the PBA is out of range. *)

val hash_block_of_line : t -> int -> int
(** PBA of line [l]'s block 0 — the known physical location where the
    burned hash must live. *)

val is_hash_block : t -> int -> bool
val data_blocks_of_line : t -> int -> int list
(** PBAs of blocks 1..2^N-1 of line [l], in order. *)

val first_data_block : t -> int -> int
(** PBA of block 1 of line [l] — [List.hd (data_blocks_of_line t l)]
    without building the list. *)

val iter_data_blocks : t -> int -> (int -> unit) -> unit
(** Visit the PBAs of {!data_blocks_of_line} in order without
    allocating the list (the per-line hot loops of {!Device} and
    {!Scrub}). *)

val block_first_dot : t -> int -> int
(** First dot address of a block. *)

val wo_first_dot : t -> line:int -> int
(** First dot of line [l]'s write-once area. *)

val space_overhead : t -> float
(** Fraction of blocks lost to hash blocks: [1 / 2^N] (Section 8,
    "Efficiency"). *)
