(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component of the simulation (read noise on heated
    dots, defect placement, workload generation, thermal crosstalk draws)
    takes an explicit generator so that experiments are reproducible from
    a seed, independently of the OCaml stdlib [Random] state. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator. *)

val copy : t -> t
val split : t -> t
(** A statistically independent generator derived from [t] (advances [t]). *)

val stream : seed:int -> int -> t
(** [stream ~seed i] is the [i]th decorrelated generator of a keyed
    family — a pure function of [(seed, i)], independent of any other
    generator's draw history.  The fleet harness gives device [i] stream
    [i] so results are identical however devices are sharded. *)

val bits64 : t -> int64
val int : t -> int -> int
(** [int t n] is uniform in [0, n).  @raise Invalid_argument if [n <= 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [0, x). *)

val bool : t -> bool
(** Bit 0 of the next draw.  [bool] and [int] allocate nothing. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0,1]). *)

val bernoulli_mask : t -> float -> int -> int
(** [bernoulli_mask t p mask], for [0 <= mask < 2^62], makes one
    [bernoulli t p] per set bit of [mask], lowest bit first, and returns
    the set bits whose draw came out [true]: the same draws, the same
    answers and the same final state.  Allocates nothing. *)

val uniform : t -> float
(** Uniform in [0, 1). *)

val exponential : t -> float -> float
(** [exponential t mean] draws from Exp with the given mean. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Box–Muller normal draw. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
