type line_attestation =
  | Attested of { hash : Hash.Sha256.t; voters : int list; against : int list }
  | Tie_unattested of (int * Hash.Sha256.t) list
  | All_convicted of int list
  | Line_not_heated
  | Line_offline

type verdict_counts = {
  attested : int;
  unattested : int;
  not_heated : int;
  offline : int;
  outvoted_replicas : int;
  convicted_replicas : int;
}

type report = {
  lines : (int * line_attestation) list;
  counts : verdict_counts;
  hash_reads : int;
  data_verifies : int;
}

type charge = { c_dev : int; c_charge : Trust.charge }

(* One replica's testimony: its burned meta (if clean) plus whether its
   own medium convicts it.  A replica with a valid burn over altered
   data (the magnetic-rewrite attack) is caught here by the local
   verify; a replica with internally consistent but substituted
   data+burn (the swapped-media attack) passes and is only caught by
   the cross-device hash vote. *)
type testimony =
  | Clean of Hash.Sha256.t
  | Convicted
  | Unheated

let examine v ~dev ~local =
  let d = Volume.device v ~dev in
  match Sero.Device.read_hash_block d ~line:local with
  | `Not_heated -> (Unheated, 1, 0)
  | `Torn _ | `Tampered _ -> (Convicted, 1, 0)
  | `Burned m -> (
      match Sero.Bcache.verify_line (Volume.cache v ~dev) ~line:local with
      | Sero.Tamper.Intact -> (Clean m.Sero.Device.hash, 1, 1)
      | Sero.Tamper.Not_heated | Sero.Tamper.Tampered _ -> (Convicted, 1, 1))

let attest_line_raw v ~line =
  let m = Volume.map v in
  let local = Amap.local_line m line in
  let slots =
    List.sort compare (Volume.serving_slots v ~line)
  in
  match slots with
  | [] -> (Line_offline, [], 0, 0)
  | _ ->
      let hash_reads = ref 0 and data_verifies = ref 0 in
      let testimonies =
        List.map
          (fun slot ->
            let dev = Volume.dev_of_slot v ~slot in
            let t, hr, dv = examine v ~dev ~local in
            hash_reads := !hash_reads + hr;
            data_verifies := !data_verifies + dv;
            (slot, dev, t))
          slots
      in
      let voters =
        List.filter_map
          (function s, d, Clean h -> Some (s, d, h) | _ -> None)
          testimonies
      in
      let convicted =
        List.filter_map
          (function s, d, Convicted -> Some (s, d) | _ -> None)
          testimonies
      in
      let conviction_charges =
        List.map (fun (_, d) -> { c_dev = d; c_charge = Trust.Conviction })
          convicted
      in
      let att, vote_charges =
        match voters with
        | [] ->
            if convicted <> [] then (All_convicted (List.map fst convicted), [])
            else (Line_not_heated, [])
        | _ ->
            (* Tally by burned hash. *)
            let tally = ref [] in
            List.iter
              (fun (_, _, h) ->
                match
                  List.find_opt (fun (h', _) -> Hash.Sha256.equal h h') !tally
                with
                | Some (h', n) ->
                    tally :=
                      (h', n + 1)
                      :: List.filter
                           (fun (h'', _) -> not (Hash.Sha256.equal h'' h'))
                           !tally
                | None -> tally := (h, 1) :: !tally)
              voters;
            let majority =
              List.find_opt (fun (_, n) -> 2 * n > List.length voters) !tally
            in
            (match majority with
            | Some (win, _) ->
                let yes, no =
                  List.partition (fun (_, _, h) -> Hash.Sha256.equal h win)
                    voters
                in
                ( Attested
                    {
                      hash = win;
                      voters = List.map (fun (s, _, _) -> s) yes;
                      against = List.map (fun (s, _, _) -> s) no;
                    },
                  List.map (fun (_, d, _) -> { c_dev = d; c_charge = Trust.Agreement })
                    yes
                  @ List.map
                      (fun (_, d, _) -> { c_dev = d; c_charge = Trust.Divergence })
                      no )
            | None ->
                ( Tie_unattested (List.map (fun (s, _, h) -> (s, h)) voters),
                  [] ))
      in
      (att, vote_charges @ conviction_charges, !hash_reads, !data_verifies)

let apply_charges v ~line charges =
  List.iter
    (fun { c_dev; c_charge } ->
      (match c_charge with
      | Trust.Divergence ->
          Volume.log_event v
            (Printf.sprintf "quorum: device %d outvoted on line %d" c_dev line)
      | Trust.Conviction ->
          Volume.log_event v
            (Printf.sprintf "quorum: device %d convicted by line %d" c_dev
               line)
      | Trust.Agreement | Trust.Unreadable -> ());
      Trust.charge (Volume.trust v) ~dev:c_dev c_charge;
      if Trust.status (Volume.trust v) ~dev:c_dev = Trust.Quarantined then
        Volume.quarantine_dev v ~dev:c_dev)
    charges

let attest_line v ~line =
  let att, charges, _, _ = attest_line_raw v ~line in
  apply_charges v ~line charges;
  att

let count_report lines =
  let z =
    {
      attested = 0;
      unattested = 0;
      not_heated = 0;
      offline = 0;
      outvoted_replicas = 0;
      convicted_replicas = 0;
    }
  in
  List.fold_left
    (fun c (_, att) ->
      match att with
      | Attested { against; _ } ->
          {
            c with
            attested = c.attested + 1;
            outvoted_replicas = c.outvoted_replicas + List.length against;
          }
      | Tie_unattested _ -> { c with unattested = c.unattested + 1 }
      | All_convicted convicted ->
          {
            c with
            unattested = c.unattested + 1;
            convicted_replicas = c.convicted_replicas + List.length convicted;
          }
      | Line_not_heated -> { c with not_heated = c.not_heated + 1 }
      | Line_offline -> { c with offline = c.offline + 1 })
    z lines

(* Fold raw per-line attestations (ascending line order) into a report,
   applying trust charges in that same order — the shared tail of the
   full verify and the sampled audit, so both leave byte-identical
   ledgers for the lines they cover. *)
let report_of_raw v all =
  let hash_reads = ref 0 and data_verifies = ref 0 in
  let lines =
    List.map
      (fun (line, (att, charges, hr, dv)) ->
        hash_reads := !hash_reads + hr;
        data_verifies := !data_verifies + dv;
        apply_charges v ~line charges;
        (line, att))
      all
  in
  (* A conviction count in the report must include convictions that
     rode along with attested lines, not only all-convicted ones. *)
  let convicted_total =
    List.fold_left
      (fun acc (_, (_, charges, _, _)) ->
        acc
        + List.length
            (List.filter (fun c -> c.c_charge = Trust.Conviction) charges))
      0 all
  in
  let counts =
    { (count_report lines) with convicted_replicas = convicted_total }
  in
  {
    lines;
    counts;
    hash_reads = !hash_reads;
    data_verifies = !data_verifies;
  }

let verify_volume ?(jobs = 1) v =
  let m = Volume.map v in
  let groups = Amap.groups m in
  let lines_of_group g =
    List.init (Amap.logical_lines m / groups) (fun l -> (l * groups) + g)
  in
  (* Mirror groups are disjoint device sets, so fanning groups out over
     domains touches disjoint mutable state; charges are computed pure
     and applied afterwards in ascending line order, making report and
     ledger byte-identical for any [jobs]. *)
  let per_group =
    Sim.Pool.parallel_map ~jobs
      (fun g ->
        List.map (fun line -> (line, attest_line_raw v ~line))
          (lines_of_group g))
      (List.init groups (fun g -> g))
  in
  let all =
    List.sort (fun (a, _) (b, _) -> compare a b) (List.concat per_group)
  in
  report_of_raw v all

let verify_lines v ~lines =
  let lines = List.sort_uniq compare lines in
  let ll = Amap.logical_lines (Volume.map v) in
  List.iter
    (fun line ->
      if line < 0 || line >= ll then
        invalid_arg "Quorum.verify_lines: line out of range")
    lines;
  report_of_raw v
    (List.map (fun line -> (line, attest_line_raw v ~line)) lines)

let source_meta v ~line ~exclude_slot =
  let m = Volume.map v in
  let local = Amap.local_line m line in
  let slots =
    List.sort compare
      (List.filter (fun s -> s <> exclude_slot) (Volume.serving_slots v ~line))
  in
  match slots with
  | [] -> `No_source
  | _ -> (
      let metas =
        List.filter_map
          (fun slot ->
            let dev = Volume.dev_of_slot v ~slot in
            match
              Sero.Device.read_hash_block (Volume.device v ~dev) ~line:local
            with
            | `Burned meta -> (
                match
                  Sero.Bcache.verify_line (Volume.cache v ~dev) ~line:local
                with
                | Sero.Tamper.Intact -> Some (slot, meta)
                | Sero.Tamper.Not_heated | Sero.Tamper.Tampered _ -> None)
            | `Not_heated | `Torn _ | `Tampered _ -> None)
          slots
      in
      match metas with
      | [] ->
          (* No clean burned source.  If every source is simply unheated
             this line is ordinary WMRM data; any conviction among them
             makes it a dispute the rebuild must not adjudicate. *)
          let any_burn_evidence =
            List.exists
              (fun slot ->
                let dev = Volume.dev_of_slot v ~slot in
                match
                  Sero.Device.read_hash_block (Volume.device v ~dev)
                    ~line:local
                with
                | `Not_heated -> false
                | `Burned _ | `Torn _ | `Tampered _ -> true)
              slots
          in
          if any_burn_evidence then `Unattested slots else `Not_heated slots
      | (_, m0) :: _ ->
          let count h =
            List.length
              (List.filter
                 (fun (_, m) -> Hash.Sha256.equal m.Sero.Device.hash h)
                 metas)
          in
          let winner =
            List.find_opt
              (fun (_, m) -> 2 * count m.Sero.Device.hash > List.length metas)
              metas
          in
          (match winner with
          | Some (_, wm) ->
              `Majority
                ( wm,
                  List.filter_map
                    (fun (s, m) ->
                      if
                        Hash.Sha256.equal m.Sero.Device.hash
                          wm.Sero.Device.hash
                      then Some s
                      else None)
                    metas )
          | None ->
              ignore m0;
              `Unattested (List.map fst metas)))

let pp_report ppf r =
  Format.fprintf ppf
    "quorum: %d attested, %d unattested, %d not heated, %d offline; %d \
     outvoted, %d convicted replicas; cost %d hash reads + %d data verifies"
    r.counts.attested r.counts.unattested r.counts.not_heated
    r.counts.offline r.counts.outvoted_replicas r.counts.convicted_replicas
    r.hash_reads r.data_verifies
