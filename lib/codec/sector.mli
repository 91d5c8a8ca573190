(** Sector framing: 512-byte payload plus ~15% overhead.

    The paper assumes, following Pozidis et al., "a standard size of 512
    bytes and about 15% sector overhead for the sector header, error
    correction, and cyclic redundancy check" (Section 3).  The frame is:

    {v
      header (16 B) | payload (512 B) | CRC-32 (4 B)   = 532 B
      interleaved with Reed-Solomon parity (24 symbols per 231-byte
      slice, 3 slices)                                 = 604 B physical
    v}

    which gives an overhead of 92/604 ≈ 15.2%, and corrects up to 12
    erroneous bytes per 255-byte codeword — matching the per-sector error
    budget of probe media.

    The header carries the {e physical} block address: the paper's
    addressing discussion requires that "a SERO device and the SERO file
    system should use physical block addresses ... so that we know
    exactly at which PBA to look for heated hashes", and including the
    address in the frame is what lets the verify operation detect a
    sector that was copied to a different location. *)

val payload_bytes : int
(** 512. *)

val physical_bytes : int
(** Framed size of one sector on the medium (604). *)

val physical_bits : int
(** [8 * physical_bytes]. *)

val overhead_fraction : float
(** [1 - payload/physical], about 0.152. *)

type kind = Data | Inode | Summary | Checkpoint | Hash_meta
(** Block-kind tag stored in the header; the device itself treats all
    kinds alike, the tag exists so that a raw medium scan (fsck) can
    classify what it finds. *)

val kind_to_int : kind -> int
val kind_of_int : int -> kind option

val encode : pba:int -> kind:kind -> generation:int -> string -> string
(** [encode ~pba ~kind ~generation payload] frames a payload of at most
    {!payload_bytes} bytes (shorter payloads are zero-padded) into a
    {!physical_bytes}-byte medium image.
    @raise Invalid_argument if the payload is over-long. *)

type decoded = {
  pba : int;  (** Physical address recorded inside the frame. *)
  kind : kind;
  generation : int;  (** Incremented by the device on every rewrite. *)
  payload : string;  (** Exactly {!payload_bytes} bytes. *)
  corrected_symbols : int;  (** Byte errors repaired by the RS decoder. *)
}

type error =
  | Uncorrectable  (** RS decoding failed: too many bad symbols. *)
  | Bad_crc  (** RS passed but the checksum disagrees. *)
  | Bad_header  (** Frame structure invalid (magic / kind byte). *)

val decode : string -> (decoded, error) result
(** [decode image] checks and unframes a {!physical_bytes}-byte image. *)

val decode_sub : Bytes.t -> off:int -> (decoded, error) result
(** {!decode} of the {!physical_bytes}-byte image starting at [off] of a
    caller-owned buffer — the zero-copy form for span reads that hold
    many consecutive images in one scratch buffer.  [buf] is never
    mutated.  An out-of-range window is [Error Bad_header], like any
    other malformed frame. *)

val pp_error : Format.formatter -> error -> unit
