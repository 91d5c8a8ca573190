(** CRC-32 (IEEE 802.3, reflected polynomial [0xEDB88320]).

    Used in sector framing: the paper (following Pozidis et al.) budgets
    ~15% sector overhead for "the sector header, error correction, and
    cyclic redundancy check" (Section 3, "Sector operations"). *)

val string : ?crc:int32 -> string -> int32
(** [string ?crc s] extends checksum [crc] (default: fresh) over [s]. *)

val bytes : ?crc:int32 -> bytes -> int -> int -> int32
(** [bytes ?crc b off len] extends the checksum over a byte slice. *)

val update : int -> bytes -> int -> int -> int
(** [update crc b off len] is {!bytes} on an unboxed checksum: [crc] and
    the result are the 32-bit values as non-negative ints (a fresh
    checksum is [0]), so chaining allocates nothing.
    @raise Invalid_argument if the slice is out of bounds. *)
