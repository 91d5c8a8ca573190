(** The probe (tip) array and the dot address mapping.

    The device stripes consecutive logical dot addresses across the
    tips: logical dot [a] lives under tip [a mod n_tips] at scan offset
    [a / n_tips] of that tip's private field.  Because one actuator
    moves all tips together (Section 6, Figure 4), a run of [n_tips]
    consecutive logical dots is transferred in a single bit time —
    that is the parallelism that lets a 10 µs/bit tip deliver a usable
    device data rate.

    Tips can fail outright; dots under a failed tip read as
    noise and ignore writes, which the sector-level Reed–Solomon code
    must absorb (this is how bad-block handling is exercised).  A device
    built with [spares > 0] carries extra tips parked outside the data
    fields; {!remap_tip} reassigns a failed tip's whole field to a
    spare, after which the field is readable again at an extra
    settle-time cost per scan row (the spare rides the same sled but
    sits off-pitch, see {!Pdevice}). *)

type t

val create : ?spares:int -> n_tips:int -> Pmedia.Medium.t -> t
(** Partitions the medium's dots among [n_tips] tips.

    Rounding rule: when the medium size is not a multiple of [n_tips],
    fields are [ceil (size / n_tips)] dots and the trailing scan row is
    partial — tips whose index is at least [size mod n_tips] serve one
    dot fewer.  {!locate} and {!dot_of} range-check against the true
    medium size, so no phantom addresses appear.

    [spares] (default 0) reserves additional physical tips for
    {!remap_tip}.

    @raise Invalid_argument if [n_tips <= 0] or [spares < 0]. *)

val copy : t -> t
(** Independent tip array with the same health and remap state. *)

val n_tips : t -> int
val spares : t -> int
(** Spare tips the array was built with. *)

val field_size : t -> int
(** Dots per tip field ([ceil (size / n_tips)]). *)

val field_cols : t -> int
(** Width in dots of one tip field (the medium's column count divided
    by the tip-grid width; used by the actuator for 2-D seek cost). *)

val locate : t -> int -> int * int
(** [locate t dot] is [(tip, offset)] for a logical dot address. *)

val dot_of : t -> tip:int -> offset:int -> int
(** Inverse of {!locate}.
    @raise Invalid_argument for the phantom addresses of a partial
    trailing row. *)

val fail_tip : t -> int -> unit
(** Mark a physical unit broken (manufacturing fallout or wear-out).
    Indices [0 .. n_tips-1] are the logical tips, [n_tips ..
    n_tips+spares-1] the spares. *)

val tip_failed : t -> int -> bool
(** Whether the unit {e currently serving} logical tip [i] is broken —
    false again once the tip is remapped to a healthy spare. *)

val all_serving_healthy : t -> bool
(** O(1): no logical tip is currently served by a broken unit — the
    whole-row guard for the device's bulk transfer path. *)

(** {1 Spare-tip remapping} *)

val remap_tip : t -> int -> bool
(** [remap_tip t i] points logical tip [i]'s field at the next healthy
    spare.  Returns [false] (and does nothing) when the tip is serving
    fine already or no healthy spare remains. *)

val remapped_count : t -> int
