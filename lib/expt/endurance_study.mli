(** E22 — the media endurance lifecycle: health-led retirement vs.
    riding the RS budget until sectors die.

    Two devices with identical geometry (the baseline reserves the same
    spare region so the usable address space matches block for block)
    live through the same ramping wear schedule — a seeded PRNG flips a
    growing number of dots each epoch on a fixed set of {e physical}
    weak lines, identically in both arms.  Only [health_enabled]
    differs: the lifecycle arm watches the corrected-symbol margins its
    reads already produce and evacuates weakening lines onto spares
    ({!Sero.Device.maintenance}), the baseline arm does nothing.

    Measured per trial: records lost at the end of the run in each arm,
    migrations performed, and the re-attestation audit — every migrated
    {e heated} line must still verify [Intact] at its new physical home
    (the burned hash moves with the data).  Trials fan out on
    {!Sim.Pool}; output is byte-identical for any worker count. *)

type arm_result = {
  lost : int;  (** Records unreadable at the end of the run. *)
  migrated : int;
  audit_ok : int;
      (** Migrated heated lines that still verify [Intact] at their new
          home. *)
  audit_total : int;
  reattest_failures : int;
  state : Sero.Device.device_state;
}

type row = { trial : int; records : int; off : arm_result; on_ : arm_result }

type headline = {
  lost_off : float;
  lost_on : float;
  saved_pct : float;  (** Records saved by the lifecycle, percent. *)
  audit_pct : float;  (** Migrated heated lines verifying [Intact]. *)
}

val headline : unit -> headline
(** The acceptance-criterion aggregate over a small trial set — the
    bench gate's deterministic E22 metrics. *)

val print : Format.formatter -> unit
