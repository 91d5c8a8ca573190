(** SHA-256 (FIPS 180-4).

    The SERO device burns a SHA-256 digest of each heated line into the
    write-once area of the line's first block (paper, Section 3, "Heat a
    line").  The sealed build environment ships no crypto library, so the
    function is implemented here from the standard.  Test vectors from
    FIPS 180-4 and NIST CAVS are checked in the test suite.

    Whole 64-byte blocks go to one of two kernels, chosen once when the
    module initialises: on an x86-64 CPU whose CPUID reports the SHA
    extensions (with SSSE3 and SSE4.1), a C kernel on those
    instructions; anywhere else, and on builds that are not x86-64, the
    OCaml rounds.  Both give identical digests, and a digest allocates
    the same words under either. *)

type t
(** An immutable 256-bit digest. *)

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

(** The two block kernels, for tests that race them against each other;
    callers of {!init} get the native kernel when it is present. *)
module Kernel : sig
  type t

  val portable : t
  (** The OCaml rounds, present everywhere. *)

  val native : t option
  (** The SHA-extension kernel, [None] unless this CPU and build have it. *)

  val name : t -> string
  (** ["portable"] or ["sha-ni"]. *)

  val init : t -> ctx
  (** A fresh context whose blocks go to the given kernel. *)
end

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
