(* Budgeted insider campaigns vs. a bounded audit budget.

   One golden device is formatted per worker domain (a pure function of
   the constants below): all usable lines written, four lines heated,
   one heated line evacuated so a quarantined carcass exists for the
   replay class.  Every site is a CoW clone driven by its keyed PRNG
   stream, so a campaign cell is a pure function of (seed, sites,
   attack, adversary, defender) — byte-identical for any SERO_JOBS.

   The defender's audit spend is real traffic: Audit_line frames enter
   through Host.Server as a background tenant and contend with the
   foreground under the arbiter; scrub sweeps ride the queue's
   background class off the chosen planner.  The adversary acts on the
   device's unsafe surface (it is an insider), but observes the scrub
   planner only through Scrub.planner_position — exactly the
   schedule-knowledge the threat model grants. *)

let golden_blocks = 128
let golden_line_exp = 3
let heated_lines = [ 0; 1; 2; 3 ]
let evacuated_line = 2
let decoy_lines = [| 5; 6; 7 |]

(* Per-dot flip probability of the targeted wear ramp: high enough
   that a decoy-line read corrects ~tens of RS symbols (collapsing the
   health EWMA under active_endurance's 0.5 retire margin within one
   batch), low enough that decodes — and thus the spare-burning
   evacuations — still succeed. *)
let wear_ramp_ber = 0.005

let fg_tenant = 1
let audit_tenant = 7
let fg_ops = 32

(* Periods are scaled to the device's measured service times (a block
   read ~5 ms, a line verify ~67 ms, a deep sweep ~130 ms simulated),
   so audit spend genuinely contends with the foreground instead of
   saturating the queue into fiction. *)
let arrival_mean_s = 0.02
let migration_period = 0.1
let lat_name = "det-latency-ms"

(* Array (Mirror_split) sites: a small mirrored pair per site. *)
let array_member_blocks = 64
let array_heated = [ 0; 1; 2; 3 ]
let array_fg_ops = 8

type attack =
  | Selective_tamper
  | Scrubber_race
  | Carcass_replay
  | Spare_exhaustion
  | Mirror_split

let all_attacks =
  [
    Selective_tamper;
    Scrubber_race;
    Carcass_replay;
    Spare_exhaustion;
    Mirror_split;
  ]

let attack_name = function
  | Selective_tamper -> "selective-tamper"
  | Scrubber_race -> "scrubber-race"
  | Carcass_replay -> "carcass-replay"
  | Spare_exhaustion -> "spare-exhaustion"
  | Mirror_split -> "mirror-split"

let attack_of_string s =
  List.find_opt (fun a -> attack_name a = s) all_attacks

type adversary = { ops_budget : int; window : float; compromised : float }

type defender = {
  scrub_policy : Sero.Scrub.policy;
  scrub_period : float;
  deep_verify : bool;
  audit_period : float;
  array_sample : int;
}

let default_adversary = { ops_budget = 6; window = 2.0; compromised = 1.0 }

let reference_defender =
  {
    scrub_policy = Sero.Scrub.Sampled 0xA5EED;
    scrub_period = 0.15;
    deep_verify = true;
    audit_period = 0.25;
    array_sample = 2;
  }

let scrub_only_defender =
  { reference_defender with
    scrub_policy = Sero.Scrub.Sequential;
    audit_period = infinity }

let starved_defender =
  {
    scrub_policy = Sero.Scrub.Sequential;
    scrub_period = 0.15;
    deep_verify = false;
    audit_period = infinity;
    array_sample = 0;
  }

type result = {
  r_sites : int;
  r_compromised : int;
  r_attack_ops : int;
  r_landed : int;
  r_detected : int;
  r_undetected : int;
  r_det_latency_ms : Sim.Stats.t;
  r_races : int;
  r_race_wins : int;
  r_spares_burned : int;
  r_audit_frames : int;
  r_audit_rejected : int;
  r_scrub_sweeps : int;
  r_fg_completed : int;
}

let audit_spend r = r.r_audit_frames + r.r_scrub_sweeps

let empty () =
  {
    r_sites = 0;
    r_compromised = 0;
    r_attack_ops = 0;
    r_landed = 0;
    r_detected = 0;
    r_undetected = 0;
    r_det_latency_ms = Sim.Stats.create ~name:lat_name ();
    r_races = 0;
    r_race_wins = 0;
    r_spares_burned = 0;
    r_audit_frames = 0;
    r_audit_rejected = 0;
    r_scrub_sweeps = 0;
    r_fg_completed = 0;
  }

let merge = function
  | [] -> empty ()
  | rs ->
      let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
      {
        r_sites = sum (fun r -> r.r_sites);
        r_compromised = sum (fun r -> r.r_compromised);
        r_attack_ops = sum (fun r -> r.r_attack_ops);
        r_landed = sum (fun r -> r.r_landed);
        r_detected = sum (fun r -> r.r_detected);
        r_undetected = sum (fun r -> r.r_undetected);
        r_det_latency_ms =
          Sim.Stats.merge_many ~name:lat_name
            (List.map (fun r -> r.r_det_latency_ms) rs);
        r_races = sum (fun r -> r.r_races);
        r_race_wins = sum (fun r -> r.r_race_wins);
        r_spares_burned = sum (fun r -> r.r_spares_burned);
        r_audit_frames = sum (fun r -> r.r_audit_frames);
        r_audit_rejected = sum (fun r -> r.r_audit_rejected);
        r_scrub_sweeps = sum (fun r -> r.r_scrub_sweeps);
        r_fg_completed = sum (fun r -> r.r_fg_completed);
      }

(* {1 The golden device} *)

let payload_of pba =
  String.init 256 (fun i -> Char.chr ((pba + (17 * i)) land 0xff))

type golden = {
  g_dev : Sero.Device.t;
  g_n_lines : int;
  g_read : int array;  (* every written data block, audit-safe *)
  g_data : int array array;  (* usable line -> its data pbas *)
  g_victims : int array;  (* heated tamper victims, cycle order *)
  g_replay_victims : int array;  (* heated victims != evacuated line *)
  g_carcass : int array;  (* data pbas of the quarantined carcass *)
  g_audit : int array;  (* lines the audit tenant cycles over *)
  g_regions : Fault.Plan.region list;  (* wear ramp over the decoys *)
}

let make_golden () =
  let cfg =
    {
      (Sero.Device.default_config ~n_blocks:golden_blocks
         ~line_exp:golden_line_exp ())
      with
      ras = Sero.Device.active_ras;
      endurance = Sero.Device.active_endurance;
    }
  in
  let dev = Sero.Device.create cfg in
  let lay = Sero.Device.layout dev in
  let n_lines = Sero.Layout.n_lines lay in
  let usable = Sero.Layout.usable_lines lay in
  let data_of l = Sero.Layout.data_blocks_of_line lay l in
  for line = 0 to usable - 1 do
    List.iter
      (fun pba ->
        match Sero.Device.write_block dev ~pba (payload_of pba) with
        | Ok () -> ()
        | Error _ -> assert false)
      (data_of line)
  done;
  List.iter
    (fun line ->
      match Sero.Device.heat_line dev ~line () with
      | Ok _ -> ()
      | Error _ -> assert false)
    heated_lines;
  (match Sero.Device.evacuate_line dev ~line:evacuated_line () with
  | Ok _ -> ()
  | Error _ -> assert false);
  (* The carcass is addressed by the spare-region logical line whose
     remap entry now points at the vacated physical line. *)
  let carcass_line =
    match
      List.find_opt
        (fun l -> Sero.Device.quarantined dev ~line:l)
        (List.init (n_lines - usable) (fun k -> usable + k))
    with
    | Some l -> l
    | None -> assert false
  in
  let region_of_line l =
    let pbas = data_of l in
    let first =
      List.fold_left
        (fun a p -> min a (Sero.Layout.block_first_dot lay p))
        max_int pbas
    in
    let last =
      List.fold_left
        (fun a p ->
          max a (Sero.Layout.block_first_dot lay p + Sero.Layout.block_dots))
        0 pbas
    in
    { Fault.Plan.first_dot = first; n_dots = last - first; ber = wear_ramp_ber }
  in
  {
    g_dev = dev;
    g_n_lines = n_lines;
    g_read =
      Array.of_list (List.concat_map data_of (List.init usable Fun.id));
    g_data = Array.init usable (fun l -> Array.of_list (data_of l));
    g_victims = [| 0; 1; 3; 2 |];
    (* Replaying the carcass over its own evacuated line restores the
       identical payloads — not a tamper — so line 2 is excluded. *)
    g_replay_victims = [| 0; 1; 3 |];
    g_carcass = Array.of_list (data_of carcass_line);
    g_audit = Array.of_list heated_lines;
    g_regions = Array.to_list (Array.map region_of_line decoy_lines);
  }

let golden_key : golden Domain.DLS.key = Domain.DLS.new_key make_golden

(* {1 Shared bookkeeping}

   Landed tampers are keyed by line; only the first land and the first
   detection of a line count, so re-tampering or re-detecting is
   idempotent. *)

type book = {
  landed : (int, float) Hashtbl.t;
  found : (int, float) Hashtbl.t;  (* line -> detection latency, s *)
}

let book () = { landed = Hashtbl.create 8; found = Hashtbl.create 8 }

let note_land b ~line ~at =
  if not (Hashtbl.mem b.landed line) then Hashtbl.add b.landed line at

let note_detect b ~line ~at =
  match Hashtbl.find_opt b.landed line with
  | Some t0 when not (Hashtbl.mem b.found line) ->
      Hashtbl.add b.found line (at -. t0)
  | _ -> ()

let grace_of def n_lines =
  (2. *. float_of_int n_lines *. def.scrub_period)
  +. if def.audit_period < infinity then 8. *. def.audit_period else 0.

let rec draw_times rng ~window k acc =
  if k = 0 then List.sort compare acc
  else draw_times rng ~window (k - 1) (Sim.Prng.float rng window :: acc)

let is_rejection s =
  s = Host.Proto.st_rejected_depth || s = Host.Proto.st_rejected_rate

(* {1 Device sites} *)

let run_device_site ~attack ~adv ~def ~rng _i =
  let g = Domain.DLS.get golden_key in
  let compromised = Sim.Prng.uniform rng < adv.compromised in
  let plan =
    match attack with
    | Spare_exhaustion when compromised ->
        Some
          (Fault.Plan.make
             ~seed:(Sim.Prng.int rng 0x3FFFFFFF)
             ~targeted:g.g_regions ())
    | _ -> None
  in
  let dev = Sero.Device.clone ?plan g.g_dev in
  let spares0 = Sero.Device.spares_left dev in
  let des = Sim.Des.create () in
  let q = Sero.Queue.create des dev in
  let server = Host.Server.create (Host.Server.Device q) in
  Host.Server.set_policy server (Host.Arbiter.Fair_share (fun _ -> 1.));
  let fg = Host.Server.session server ~tenant:fg_tenant in
  let audit = Host.Server.session server ~tenant:audit_tenant in
  let b = book () in
  let audit_seq = Hashtbl.create 32 in
  let audit_frames = ref 0 and audit_rejected = ref 0 in
  let fg_completed = ref 0 in
  let attack_ops = ref 0 in
  let horizon = adv.window +. grace_of def g.g_n_lines in
  Host.Server.set_on_response server
    (Some
       (fun r ->
         if r.Host.Proto.r_tenant = audit_tenant then begin
           if List.exists is_rejection r.Host.Proto.r_phases then
             incr audit_rejected
           else if List.mem Host.Proto.st_tampered r.Host.Proto.r_phases then
             match Hashtbl.find_opt audit_seq r.Host.Proto.r_seq with
             | Some line -> note_detect b ~line ~at:(Sim.Des.now des)
             | None -> ()
         end
         else if r.Host.Proto.r_tenant = fg_tenant then incr fg_completed));
  (* Defender: scrub sweeps off the chosen planner, plus endurance
     maintenance — both background queue traffic. *)
  let planner = Sero.Scrub.planner ~policy:def.scrub_policy dev in
  let scfg = { Sero.Scrub.default_config with deep_verify = def.deep_verify } in
  let stop () = Sim.Des.now des >= horizon in
  let prog =
    Sero.Queue.schedule_scrub ~config:scfg ~planner q ~period:def.scrub_period
      ~stop
  in
  ignore (Sero.Queue.schedule_migration q ~period:migration_period ~stop);
  let poll_scrub () =
    List.iter
      (fun (line, _) -> note_detect b ~line ~at:(Sim.Des.now des))
      (Sero.Scrub.report_of_progress prog).Sero.Scrub.tamper_found
  in
  let rec arm_poll () =
    Sim.Des.schedule des ~delay:def.scrub_period (fun _ ->
        poll_scrub ();
        if Sim.Des.now des < horizon then arm_poll ())
  in
  arm_poll ();
  (* Defender: round-robin Audit_line frames over the record lines. *)
  if def.audit_period < infinity then begin
    let cursor = ref 0 in
    let rec arm_audit () =
      Sim.Des.schedule des ~delay:def.audit_period (fun _ ->
          if Sim.Des.now des < horizon then begin
            let line = g.g_audit.(!cursor mod Array.length g.g_audit) in
            incr cursor;
            let seq =
              Host.Server.submit audit (Host.Proto.Audit_line { line })
            in
            Hashtbl.replace audit_seq seq line;
            incr audit_frames;
            arm_audit ()
          end)
    in
    arm_audit ()
  end;
  (* Foreground tenant: open-loop reads through the front-end. *)
  let rec arm_fg issued =
    if issued < fg_ops then
      Sim.Des.schedule des
        ~delay:(Sim.Prng.exponential rng arrival_mean_s)
        (fun _ ->
          let pba = g.g_read.(Sim.Prng.int rng (Array.length g.g_read)) in
          ignore (Host.Server.submit fg (Host.Proto.Read { pba }));
          arm_fg (issued + 1))
  in
  arm_fg 0;
  (* The adversary: ops_budget actions at times drawn over the window. *)
  let tamper line =
    let pba = g.g_data.(line).(0) in
    Sero.Device.unsafe_write_block dev ~pba
      (Printf.sprintf "forged line %d" line);
    note_land b ~line ~at:(Sim.Des.now des)
  in
  let act j =
    incr attack_ops;
    match attack with
    | Selective_tamper ->
        tamper g.g_victims.(j mod Array.length g.g_victims)
    | Scrubber_race ->
        (* Insider knowledge: the planner's next sweep target.  Tamper
           the heated line the sweep will reach last. *)
        let pos = Sero.Scrub.planner_position planner in
        let dist l = (l - pos + g.g_n_lines) mod g.g_n_lines in
        tamper
          (Array.fold_left
             (fun best l -> if dist l > dist best then l else best)
             g.g_victims.(0) g.g_victims)
    | Carcass_replay ->
        let off = j mod Array.length g.g_carcass in
        let victim =
          g.g_replay_victims.(j mod Array.length g.g_replay_victims)
        in
        let raw = Sero.Device.unsafe_read_raw dev ~pba:g.g_carcass.(off) in
        Sero.Device.unsafe_write_raw dev ~pba:g.g_data.(victim).(off) raw;
        note_land b ~line:victim ~at:(Sim.Des.now des)
    | Spare_exhaustion ->
        if j < adv.ops_budget - 1 then
          (* Read a decoy line through its wear ramp: the corrected
             symbols feed the health EWMA and the maintenance scheduler
             burns a spare evacuating it. *)
          Array.iter
            (fun pba -> ignore (Sero.Device.read_block dev ~pba))
            g.g_data.(decoy_lines.(j mod Array.length decoy_lines))
        else tamper g.g_victims.(0)
    | Mirror_split -> assert false (* array sites only *)
  in
  if compromised then
    List.iteri
      (fun j t -> Sim.Des.schedule_at des ~at:t (fun _ -> act j))
      (draw_times rng ~window:adv.window adv.ops_budget []);
  Sim.Des.run des;
  poll_scrub ();
  let landed = Hashtbl.length b.landed in
  let detected = Hashtbl.length b.found in
  let lat = Sim.Stats.create ~name:lat_name () in
  Hashtbl.iter (fun _ l -> Sim.Stats.add lat (l *. 1000.)) b.found;
  let races, race_wins =
    match attack with
    | Scrubber_race ->
        let span = float_of_int g.g_n_lines *. def.scrub_period in
        ( landed,
          Hashtbl.fold
            (fun line _ acc ->
              match Hashtbl.find_opt b.found line with
              | None -> acc + 1
              | Some l -> if l > 0.75 *. span then acc + 1 else acc)
            b.landed 0 )
    | _ -> (0, 0)
  in
  let sr = Sero.Scrub.report_of_progress prog in
  let sweeps = sr.Sero.Scrub.lines_swept + sr.Sero.Scrub.retired_skipped in
  let spares_burned = spares0 - Sero.Device.spares_left dev in
  Sero.Device.park dev;
  {
    r_sites = 1;
    r_compromised = (if compromised then 1 else 0);
    r_attack_ops = !attack_ops;
    r_landed = landed;
    r_detected = detected;
    r_undetected = landed - detected;
    r_det_latency_ms = lat;
    r_races = races;
    r_race_wins = race_wins;
    r_spares_burned = spares_burned;
    r_audit_frames = !audit_frames;
    r_audit_rejected = !audit_rejected;
    r_scrub_sweeps = sweeps;
    r_fg_completed = !fg_completed;
  }

(* {1 Array sites (Mirror_split)}

   Each site is a fresh two-member mirror.  The insider rewrites every
   replica of a victim line's data — no cross-replica divergence — so
   only sampled quorum attestations (each replica self-convicting
   against its own burn) can notice.  Array audit is window-based: every
   audit_period the defender buys array_sample attestations, cycling
   the line space. *)

let run_array_site ~adv ~def ~rng _i =
  let compromised = Sim.Prng.uniform rng < adv.compromised in
  let cfg =
    Sarray.Volume.default_config ~slots:2 ~replication:2 ~spares:0
      ~member_blocks:array_member_blocks ~line_exp:golden_line_exp
      ~seed:(Sim.Prng.int rng 0x3FFFFFFF)
      ~endurance:Sero.Device.default_endurance ~cache_capacity:None ()
  in
  let v = Sarray.Volume.create cfg in
  let m = Sarray.Volume.map v in
  let n_lines = Sarray.Amap.logical_lines m in
  let dpl =
    Sero.Layout.data_blocks_per_line
      (Sero.Device.layout (Sarray.Volume.device v ~dev:0))
  in
  for line = 0 to n_lines - 1 do
    for offset = 0 to dpl - 1 do
      let vba = Sarray.Amap.vba_of m ~line ~offset in
      match Sarray.Volume.write_block v ~vba (payload_of vba) with
      | Ok () -> ()
      | Error _ -> assert false
    done
  done;
  List.iter
    (fun line ->
      match Sarray.Volume.heat_line v ~line () with
      | Ok _ -> ()
      | Error _ -> assert false)
    array_heated;
  let server = Host.Server.create (Host.Server.Volume v) in
  let fg = Host.Server.session server ~tenant:fg_tenant in
  let audit = Host.Server.session server ~tenant:audit_tenant in
  let fg_completed = ref 0 in
  for k = 0 to array_fg_ops - 1 do
    let vba = Sarray.Amap.vba_of m ~line:(k mod n_lines) ~offset:0 in
    let r = Host.Server.call fg (Host.Proto.Read { pba = vba }) in
    if not (Host.Proto.response_failed r) then incr fg_completed
  done;
  let b = book () in
  let attack_ops = ref 0 in
  let victims = Array.of_list array_heated in
  let tamper j ~at =
    incr attack_ops;
    let line = victims.(j mod Array.length victims) in
    List.iter
      (fun slot ->
        let dev = Sarray.Volume.dev_of_slot v ~slot in
        let pba =
          Sarray.Amap.member_pba m ~vba:(Sarray.Amap.vba_of m ~line ~offset:0)
        in
        Sero.Device.unsafe_write_block
          (Sarray.Volume.device v ~dev)
          ~pba
          (Printf.sprintf "forged line %d" line))
      (Sarray.Volume.serving_slots v ~line);
    note_land b ~line ~at
  in
  let horizon = adv.window +. grace_of def n_lines in
  let times =
    if compromised then draw_times rng ~window:adv.window adv.ops_budget []
    else []
  in
  let audit_frames = ref 0 and audit_rejected = ref 0 in
  let pending = ref (List.mapi (fun j t -> (j, t)) times) in
  let land_until tw =
    let due, later = List.partition (fun (_, t) -> t <= tw) !pending in
    List.iter (fun (j, t) -> tamper j ~at:t) due;
    pending := later
  in
  if def.audit_period < infinity then begin
    let n_windows = int_of_float (horizon /. def.audit_period) in
    let cursor = ref 0 in
    for w = 1 to n_windows do
      let tw = float_of_int w *. def.audit_period in
      land_until tw;
      for _ = 1 to def.array_sample do
        let line = !cursor mod n_lines in
        incr cursor;
        incr audit_frames;
        let r = Host.Server.call audit (Host.Proto.Audit_line { line }) in
        if List.exists is_rejection r.Host.Proto.r_phases then
          incr audit_rejected
        else if List.mem Host.Proto.st_tampered r.Host.Proto.r_phases then
          note_detect b ~line ~at:tw
      done;
      (* A conviction that crosses the trust threshold quarantines the
         member — conclusive, device-level detection.  Every landed
         tamper on a condemned mirror is thereby caught, even lines the
         sampler never reaches before the group drops offline. *)
      if
        Array.exists
          (fun s -> s = Sarray.Volume.Quarantined_member)
          (Sarray.Volume.member_states v)
      then Hashtbl.iter (fun line _ -> note_detect b ~line ~at:tw) b.landed
    done
  end;
  (* Attacks after the last window (or under a starved defender) land
     with no audit left to see them. *)
  land_until infinity;
  let landed = Hashtbl.length b.landed in
  let detected = Hashtbl.length b.found in
  let lat = Sim.Stats.create ~name:lat_name () in
  Hashtbl.iter (fun _ l -> Sim.Stats.add lat (l *. 1000.)) b.found;
  {
    r_sites = 1;
    r_compromised = (if compromised then 1 else 0);
    r_attack_ops = !attack_ops;
    r_landed = landed;
    r_detected = detected;
    r_undetected = landed - detected;
    r_det_latency_ms = lat;
    r_races = 0;
    r_race_wins = 0;
    r_spares_burned = 0;
    r_audit_frames = !audit_frames;
    r_audit_rejected = !audit_rejected;
    r_scrub_sweeps = 0;
    r_fg_completed = !fg_completed;
  }

(* {1 Campaign driver} *)

let attack_tag = function
  | Selective_tamper -> 1
  | Scrubber_race -> 2
  | Carcass_replay -> 3
  | Spare_exhaustion -> 4
  | Mirror_split -> 5

let run ?(seed = 0xE27) ?(sites = 8) ~attack ~adversary ~defender () =
  let seed = seed lxor (attack_tag attack * 0x9E3779B1) in
  let f ~rng i =
    match attack with
    | Mirror_split -> run_array_site ~adv:adversary ~def:defender ~rng i
    | _ -> run_device_site ~attack ~adv:adversary ~def:defender ~rng i
  in
  Sim.Fleet.map_merge ~seed sites ~f ~merge

let pp_result ppf r =
  let p50, _, p99 =
    if Sim.Stats.count r.r_det_latency_ms > 0 then
      Sim.Stats.quantiles r.r_det_latency_ms
    else (0., 0., 0.)
  in
  Format.fprintf ppf
    "sites=%d compromised=%d ops=%d landed=%d detected=%d undetected=%d \
     det-p50=%.2fms det-p99=%.2fms races=%d/%d spares=%d audit=%d(+%d rej) \
     sweeps=%d fg=%d"
    r.r_sites r.r_compromised r.r_attack_ops r.r_landed r.r_detected
    r.r_undetected p50 p99 r.r_race_wins r.r_races r.r_spares_burned
    r.r_audit_frames r.r_audit_rejected r.r_scrub_sweeps r.r_fg_completed
