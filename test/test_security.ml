(* The Section 5 security analysis, attack by attack. *)

let outcome_class = function
  | Security.Attacks.Refused _ -> `Refused
  | Security.Attacks.Ineffective _ -> `Ineffective
  | Security.Attacks.Detected _ -> `Detected
  | Security.Attacks.Undetected _ -> `Undetected

let class_name = function
  | `Refused -> "refused"
  | `Ineffective -> "ineffective"
  | `Detected -> "detected"
  | `Undetected -> "undetected"

let per_attack =
  List.map
    (fun a ->
      Alcotest.test_case (Security.Attacks.label a) `Quick (fun () ->
          let outcome = Security.Attacks.run a in
          Alcotest.(check string)
            (Security.Attacks.paper_ref a)
            (class_name (Security.Attacks.expected a))
            (class_name (outcome_class outcome))))
    Security.Attacks.all

let matrix_cases =
  [
    Alcotest.test_case "full matrix matches the paper" `Quick (fun () ->
        Alcotest.(check bool) "matches" true
          (Security.Attacks.matrix_matches_paper (Security.Attacks.matrix ())));
    Alcotest.test_case "matrix is deterministic for a fixed seed" `Quick
      (fun () ->
        let c1 = List.map (fun (_, o) -> outcome_class o) (Security.Attacks.matrix ~seed:5 ()) in
        let c2 = List.map (fun (_, o) -> outcome_class o) (Security.Attacks.matrix ~seed:5 ()) in
        Alcotest.(check bool) "same" true (c1 = c2));
    Alcotest.test_case "matrix robust across seeds" `Quick (fun () ->
        List.iter
          (fun seed ->
            Alcotest.(check bool)
              (Printf.sprintf "seed %d" seed)
              true
              (Security.Attacks.matrix_matches_paper (Security.Attacks.matrix ~seed ())))
          [ 1; 2; 3 ]);
  ]

let splice_cases =
  [
    Alcotest.test_case "strict addressing defeats the splice" `Quick (fun () ->
        match Security.Attacks.run_splice ~strict:true () with
        | Security.Attacks.Detected _ -> ()
        | o -> Alcotest.failf "%a" Security.Attacks.pp_outcome o);
    Alcotest.test_case "floating hashes fall to the splice (ablation)" `Quick
      (fun () ->
        match Security.Attacks.run_splice ~strict:false () with
        | Security.Attacks.Undetected _ -> ()
        | o -> Alcotest.failf "%a" Security.Attacks.pp_outcome o);
  ]

let threat_cases =
  [
    Alcotest.test_case "every attack has a paper reference" `Quick (fun () ->
        List.iter
          (fun a ->
            Alcotest.(check bool)
              (Security.Attacks.label a)
              true
              (String.length (Security.Attacks.paper_ref a) > 0))
          Security.Attacks.all);
  ]

(* {1 Insider campaigns (Security.Campaign)} *)

module C = Security.Campaign

(* Small cells keep these quick; 2 sites is enough to exercise the
   fan-out, merge and bookkeeping paths of every attack class. *)
let campaign_run ?(sites = 2) ?(defender = C.reference_defender) attack =
  C.run ~sites ~attack ~adversary:C.default_adversary ~defender ()

let campaign_cases =
  [
    Alcotest.test_case "attack names round-trip" `Quick (fun () ->
        List.iter
          (fun a ->
            Alcotest.(check bool) (C.attack_name a) true
              (C.attack_of_string (C.attack_name a) = Some a))
          C.all_attacks;
        Alcotest.(check bool) "unknown rejected" true
          (C.attack_of_string "phlogiston" = None));
    Alcotest.test_case "reference budget detects every class" `Slow (fun () ->
        List.iter
          (fun attack ->
            let r = campaign_run attack in
            let name = C.attack_name attack in
            Alcotest.(check bool) (name ^ " landed") true (r.C.r_landed > 0);
            Alcotest.(check int) (name ^ " undetected") 0 r.C.r_undetected;
            Alcotest.(check int)
              (name ^ " latency samples")
              r.C.r_detected
              (Sim.Stats.count r.C.r_det_latency_ms))
          C.all_attacks);
    Alcotest.test_case "starved budget leaks tampers" `Slow (fun () ->
        let r = campaign_run ~defender:C.starved_defender C.Selective_tamper in
        Alcotest.(check bool) "landed" true (r.C.r_landed > 0);
        Alcotest.(check int) "all undetected" r.C.r_landed r.C.r_undetected;
        Alcotest.(check int) "no audit frames" 0 r.C.r_audit_frames);
    Alcotest.test_case "wear ramp burns spares" `Slow (fun () ->
        let r = campaign_run C.Spare_exhaustion in
        Alcotest.(check bool) "spares burned" true (r.C.r_spares_burned > 0));
    Alcotest.test_case "sampled planner defeats the scrubber race" `Slow
      (fun () ->
        let reference = campaign_run C.Scrubber_race in
        Alcotest.(check int) "no wins vs sampled" 0 reference.C.r_race_wins;
        let starved =
          campaign_run ~defender:C.starved_defender C.Scrubber_race
        in
        Alcotest.(check int)
          "every race won vs starved sequential" starved.C.r_races
          starved.C.r_race_wins);
    Alcotest.test_case "campaign is byte-identical for any jobs" `Slow
      (fun () ->
        let show r = Format.asprintf "%a" C.pp_result r in
        List.iter
          (fun attack ->
            let runs =
              List.map
                (fun jobs ->
                  Sim.Pool.set_jobs jobs;
                  show (campaign_run ~sites:3 attack))
                [ 1; 4 ]
            in
            match runs with
            | [ a; b ] -> Alcotest.(check string) (C.attack_name attack) a b
            | _ -> assert false)
          [ C.Selective_tamper; C.Mirror_split ]);
    Alcotest.test_case "merge sums fleets" `Slow (fun () ->
        let a = campaign_run C.Selective_tamper in
        let b = campaign_run C.Carcass_replay in
        let m = C.merge [ a; b ] in
        Alcotest.(check int) "sites" (a.C.r_sites + b.C.r_sites) m.C.r_sites;
        Alcotest.(check int) "landed" (a.C.r_landed + b.C.r_landed) m.C.r_landed;
        Alcotest.(check int)
          "spend"
          (C.audit_spend a + C.audit_spend b)
          (C.audit_spend m);
        Alcotest.(check int)
          "latency samples"
          (Sim.Stats.count a.C.r_det_latency_ms
          + Sim.Stats.count b.C.r_det_latency_ms)
          (Sim.Stats.count m.C.r_det_latency_ms));
  ]

let () =
  Alcotest.run "security"
    [
      ("per-attack", per_attack);
      ("matrix", matrix_cases);
      ("splice-ablation", splice_cases);
      ("threat-model", threat_cases);
      ("campaign", campaign_cases);
    ]
