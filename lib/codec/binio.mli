(** Minimal binary serialisation used for on-medium structures (sector
    headers, inodes, segment summaries, checkpoint regions).  All integers
    are fixed-width big-endian so that block images are deterministic and
    hash-stable. *)

module W : sig
  type t

  val create : ?capacity:int -> unit -> t
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val u64 : t -> int -> unit

  val f64 : t -> float -> unit
  (** Full IEEE-754 bit pattern, big-endian (OCaml ints cannot carry all
      64 bits, so floats get their own codec). *)

  val str : t -> string -> unit
  (** Length-prefixed (u32) string. *)

  val raw : t -> string -> unit
  (** Raw bytes, no length prefix. *)

  val contents : t -> string
  val length : t -> int
end

module R : sig
  type t

  exception Truncated

  exception Overflow
  (** A [u64] field holds 2^62 or more, which no non-negative [int]
      can carry. *)

  val of_string : ?off:int -> string -> t
  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int

  val u64 : t -> int
  (** @raise Overflow if the value does not fit a non-negative [int]. *)

  val f64 : t -> float
  val str : t -> string
  val raw : t -> int -> string
  val pos : t -> int
  val remaining : t -> int
end
