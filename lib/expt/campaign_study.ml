(* E27 — insider-attack campaigns vs. a bounded audit budget: the
   detection-latency / audit-cost frontier.

   Three audit-spend levels (starved, scrub-only, reference) are run
   against all five attack classes of Security.Campaign, then attacker
   budget and fleet size are swept at the reference spend.  Every cell
   is a pure function of (seed, sites, attack, adversary, defender) via
   Sim.Fleet.map_merge — byte-identical for any SERO_JOBS. *)

module C = Security.Campaign

let frontier_sites = 6
let headline_sites = 4
let scaling_budgets = [ 3; 12 ]
let scaling_fleets = [ 6; 18 ]
let scaling_compromised = 0.5

let defenders =
  [
    ("starved", C.starved_defender);
    ("scrub-only", C.scrub_only_defender);
    ("reference", C.reference_defender);
  ]

type cell = { c_defender : string; c_attack : C.attack; c_res : C.result }

let frontier ?(sites = frontier_sites) () =
  List.concat_map
    (fun (c_defender, d) ->
      List.map
        (fun c_attack ->
          {
            c_defender;
            c_attack;
            c_res =
              C.run ~sites ~attack:c_attack ~adversary:C.default_adversary
                ~defender:d ();
          })
        C.all_attacks)
    defenders

type scaling_cell = {
  s_budget : int;
  s_fleet : int;
  s_res : C.result;
}

let scaling ?(attack = C.Selective_tamper) () =
  List.concat_map
    (fun s_budget ->
      List.map
        (fun s_fleet ->
          {
            s_budget;
            s_fleet;
            s_res =
              C.run ~sites:s_fleet ~attack
                ~adversary:
                  {
                    C.default_adversary with
                    ops_budget = s_budget;
                    compromised = scaling_compromised;
                  }
                ~defender:C.reference_defender ();
          })
        scaling_fleets)
    scaling_budgets

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

let quantiles_or_zero s =
  if Sim.Stats.count s > 0 then Sim.Stats.quantiles s else (0., 0., 0.)

let headline () =
  let sites = headline_sites in
  let reference =
    C.merge
      (List.map
         (fun attack ->
           C.run ~sites ~attack ~adversary:C.default_adversary
             ~defender:C.reference_defender ())
         C.all_attacks)
  in
  let race =
    C.run ~sites ~attack:C.Scrubber_race ~adversary:C.default_adversary
      ~defender:C.scrub_only_defender ()
  in
  let starved =
    C.merge
      (List.map
         (fun attack ->
           C.run ~sites ~attack ~adversary:C.default_adversary
             ~defender:C.starved_defender ())
         [ C.Selective_tamper; C.Spare_exhaustion ])
  in
  let p50, _, p99 = quantiles_or_zero reference.C.r_det_latency_ms in
  {
    h_ref_landed = reference.C.r_landed;
    h_ref_undetected = reference.C.r_undetected;
    h_ref_det_p50_ms = p50;
    h_ref_det_p99_ms = p99;
    h_ref_audit_spend = C.audit_spend reference;
    h_race_wins = race.C.r_race_wins;
    h_races = race.C.r_races;
    h_starved_undetected = starved.C.r_undetected;
    h_spares_burned = reference.C.r_spares_burned + starved.C.r_spares_burned;
  }

let print ppf =
  Format.fprintf ppf
    "E27 — insider campaigns vs. a bounded audit budget@.";
  Format.fprintf ppf "%s@." (String.make 78 '-');
  Format.fprintf ppf
    "  %-10s %-16s %6s %6s %4s %6s %9s %9s %5s %6s@." "defender" "attack"
    "spend" "landed" "det" "undet" "p50(ms)" "p99(ms)" "race" "spares";
  List.iter
    (fun { c_defender; c_attack; c_res = r } ->
      let p50, _, p99 = quantiles_or_zero r.C.r_det_latency_ms in
      Format.fprintf ppf
        "  %-10s %-16s %6d %6d %4d %6d %9.1f %9.1f %2d/%-2d %6d@."
        c_defender (C.attack_name c_attack) (C.audit_spend r) r.C.r_landed
        r.C.r_detected r.C.r_undetected p50 p99 r.C.r_race_wins r.C.r_races
        r.C.r_spares_burned)
    (frontier ());
  Format.fprintf ppf
    "@.attacker budget x fleet size at the reference spend \
     (selective-tamper, %.0f%% of@."
    (scaling_compromised *. 100.);
  Format.fprintf ppf "the fleet compromised):@.";
  Format.fprintf ppf "  %6s %6s %6s %6s %4s %6s %9s@." "budget" "fleet"
    "owned" "landed" "det" "undet" "p99(ms)";
  List.iter
    (fun { s_budget; s_fleet; s_res = r } ->
      let _, _, p99 = quantiles_or_zero r.C.r_det_latency_ms in
      Format.fprintf ppf "  %6d %6d %6d %6d %4d %6d %9.1f@." s_budget s_fleet
        r.C.r_compromised r.C.r_landed r.C.r_detected r.C.r_undetected p99)
    (scaling ());
  let h = headline () in
  Format.fprintf ppf
    "@.reference spend: %d tampers landed across 5 attack classes, %d \
     undetected@."
    h.h_ref_landed h.h_ref_undetected;
  Format.fprintf ppf
    "(0 expected) — detection p50 %.0f ms, p99 %.0f ms for %d units of audit@."
    h.h_ref_det_p50_ms h.h_ref_det_p99_ms h.h_ref_audit_spend;
  Format.fprintf ppf
    "spend; starving the audit leaves %d of the same tampers unseen (> 0@."
    h.h_starved_undetected;
  Format.fprintf ppf
    "expected).  An insider racing the sequential sweep wins %d/%d races;@."
    h.h_race_wins h.h_races;
  Format.fprintf ppf
    "the sampled planner erases that knowledge.  The wear-ramp campaign@.";
  Format.fprintf ppf
    "drains %d spare lines before its tamper lands.  Detection is bought,@."
    h.h_spares_burned;
  Format.fprintf ppf
    "not assumed: the frontier prices tamper-evidence in audit traffic.@."
