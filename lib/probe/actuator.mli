(** Electrostatic stepper actuator (µWalker / Harmonica class, Section 6).

    One actuator moves the whole medium sled; all probe tips therefore
    always sit over the {e same} (x, y) offset within their own dot
    field.  Position is tracked in dot-pitch units of the tip field;
    seeks charge the shared {!Timing} ledger with distance/velocity plus
    a settle time. *)

type t

val create : Timing.t -> pitch:float -> field_cols:int -> t
(** [pitch] in metres; [field_cols] is the width of one tip's field in
    dots — used to convert a scan-order offset to (x, y). *)

val copy : t -> Timing.t -> t
(** Same geometry and kinematic state, charging the given (normally
    freshly copied) timing ledger. *)

val seek : t -> int -> unit
(** [seek t offset] moves the sled so the tips sit over scan offset
    [offset].  Moving to the current position is free, and so is moving
    to the {e next} offset in scan order: a continuous scan step, whose
    time is the bit time the caller charges. *)

val scan_run : t -> first:int -> last:int -> unit
(** [seek t first] followed by continuous scan steps through [last]
    (inclusive, [last >= first]): the same charge and end position as a
    per-offset {!seek} loop. *)

val xy_of_offset : t -> int -> int * int
(** Column/row of a scan offset within the tip field (serpentine:
    odd rows run right-to-left, so adjacent offsets are always
    physically adjacent). *)
