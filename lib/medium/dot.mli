(** State of one magnetic dot — the three-state machine of Figure 2.

    A dot is either magnetised perpendicular to the medium (up = 1,
    down = 0) or {e heated}: its multilayer interfaces are destroyed and
    the easy axis has rotated in-plane, irreversibly.  Magnetic writes
    move between [Up] and [Down]; the electrical write is the only
    transition into [Heated], and nothing leaves [Heated]. *)

type direction = Up | Down

type t = Magnetised of direction | Heated

val equal : t -> t -> bool
val equal_direction : direction -> direction -> bool
val pp : Format.formatter -> t -> unit

val of_bool : bool -> direction
(** [true] = [Up] (logical 1), [false] = [Down] (logical 0). *)

val to_bool : direction -> bool
val invert : direction -> direction

val transition_mwb : t -> direction -> t
(** Magnetic write: sets the direction of a magnetised dot; {e no effect}
    on a heated dot (there is no perpendicular axis left to set). *)

val transition_ewb : t -> t
(** Electrical write: always lands in [Heated] (one-way). *)

val is_heated : t -> bool

val transition_table : (t * string * t) list
(** Every (state, operation, state') edge of Figure 2, where operation
    is one of ["mwb 0"], ["mwb 1"], ["ewb"].  Used to print and to
    verify the figure. *)
