(** E27 — fleet-scale insider campaigns vs. a bounded audit budget
    ({!Security.Campaign}): the detection-latency / audit-cost
    frontier.

    Three audit-spend levels (starved, scrub-only, reference) run
    against all five attack classes, then attacker budget and fleet
    size are swept at the reference spend.  Acceptance: 0 undetected
    losses at the reference budget across every class; nonzero
    undetected losses in the starved cells.  Output is byte-identical
    for any [SERO_JOBS]. *)

type cell = {
  c_defender : string;
  c_attack : Security.Campaign.attack;
  c_res : Security.Campaign.result;
}

type scaling_cell = {
  s_budget : int;
  s_fleet : int;
  s_res : Security.Campaign.result;
}

type headline = {
  h_ref_landed : int;
  h_ref_undetected : int;  (** Acceptance: 0. *)
  h_ref_det_p50_ms : float;
  h_ref_det_p99_ms : float;
  h_ref_audit_spend : int;
  h_race_wins : int;  (** Insider races won vs the sequential sweep. *)
  h_races : int;
  h_starved_undetected : int;  (** Acceptance: nonzero. *)
  h_spares_burned : int;
}

val headline : unit -> headline
(** The bench-gated summary at 4 sites per cell. *)

val print : Format.formatter -> unit
