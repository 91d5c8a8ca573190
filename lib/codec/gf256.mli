(** Arithmetic in GF(2^8) with the primitive polynomial
    x^8 + x^4 + x^3 + x^2 + 1 ([0x11D]), as used by the Reed–Solomon
    sector code ({!Rs}).  Addition and subtraction are XOR. *)

val mul : int -> int -> int

val exp : int -> int
(** [exp i] = alpha^i where alpha = 2 is the generator; [i] taken mod 255. *)

val log : int -> int
(** Discrete log base alpha. @raise Invalid_argument on 0. *)

val poly_mul : int array -> int array -> int array
(** Product of two polynomials (highest degree first). *)
