(** Arithmetic in GF(2^8) with the primitive polynomial
    x^8 + x^4 + x^3 + x^2 + 1 ([0x11D]), as used by the Reed–Solomon
    sector code ({!Rs}). *)

val add : int -> int -> int
(** Addition = subtraction = XOR. *)

val mul : int -> int -> int
val div : int -> int -> int
(** @raise Division_by_zero if the divisor is 0. *)

val inv : int -> int
(** @raise Division_by_zero on 0. *)

val pow : int -> int -> int
(** [pow a n] for [n >= 0]; [pow 0 0 = 1]. *)

val exp : int -> int
(** [exp i] = alpha^i where alpha = 2 is the generator; [i] taken mod 255. *)

val log : int -> int
(** Discrete log base alpha. @raise Invalid_argument on 0. *)

val poly_mul : int array -> int array -> int array
(** Product of two polynomials (highest degree first). *)
