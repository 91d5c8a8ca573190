(** Binary min-heap keyed by float: the event queue under {!Des}.

    The heap is {e stable}: entries pushed with equal keys pop in push
    order (each push takes a monotonic insertion stamp and ordering is
    lexicographic on [(key, stamp)]).  {!Des} relies on this to make
    equal-timestamp events fire FIFO. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int
val push : 'a t -> float -> 'a -> unit
val peek : 'a t -> (float * 'a) option
val pop : 'a t -> (float * 'a) option

val min_key : 'a t -> float
(** Key of the minimum entry, without allocating.
    @raise Invalid_argument on an empty heap. *)

val min_value : 'a t -> 'a
(** Value of the minimum entry, without allocating a pair.
    @raise Invalid_argument on an empty heap. *)

val drop_min : 'a t -> unit
(** Remove the minimum entry — with {!min_key}/{!min_value} this is the
    allocation-free hot-path equivalent of {!pop}.
    @raise Invalid_argument on an empty heap. *)
