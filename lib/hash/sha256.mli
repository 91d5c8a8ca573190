(** Pure-OCaml SHA-256 (FIPS 180-4).

    The SERO device burns a SHA-256 digest of each heated line into the
    write-once area of the line's first block (paper, Section 3, "Heat a
    line").  The sealed build environment ships no crypto library, so the
    function is implemented here from the standard.  Test vectors from
    FIPS 180-4 and NIST CAVS are checked in the test suite. *)

type t
(** An immutable 256-bit digest. *)

val digest_bytes : bytes -> t
(** [digest_bytes b] is the SHA-256 digest of the whole of [b]. *)

val digest_string : string -> t
(** [digest_string s] is the SHA-256 digest of [s]. *)

val digest_concat : string list -> t
(** [digest_concat parts] hashes the concatenation of [parts] without
    building the intermediate string. *)

type ctx
(** Streaming context for incremental hashing. *)

val init : unit -> ctx
val feed_bytes : ctx -> bytes -> int -> int -> unit
(** [feed_bytes ctx b off len] absorbs [len] bytes of [b] at [off]. *)

val feed_string : ctx -> string -> unit
val finalize : ctx -> t
(** [finalize ctx] pads, produces the digest and invalidates [ctx]
    (further feeds raise [Invalid_argument]). *)

val to_raw : t -> string
(** 32-byte big-endian digest value. *)

val of_raw : string -> t
(** [of_raw s] reinterprets a 32-byte string as a digest.
    @raise Invalid_argument if [String.length s <> 32]. *)

val to_hex : t -> string
(** Lower-case hexadecimal rendering (64 chars). *)

val of_hex : string -> t
(** @raise Invalid_argument on malformed input. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
(** Prints the first 8 hex digits followed by an ellipsis. *)

val pp_full : Format.formatter -> t -> unit

val zero : t
(** The all-zero digest, used as a sentinel for "no hash recorded". *)
