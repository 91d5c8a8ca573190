(* Bechamel benchmarks: one Test per paper artefact / experiment (see
   DESIGN.md experiment index), plus the codec hot paths that set the
   device's constant factors.

   These measure the *simulator's* execution cost (how long our code
   takes to emulate an operation); the *simulated* device latencies the
   paper cares about are reported by `bin/experiments`. *)

open Bechamel
open Toolkit

(* {1 Staged environments} *)

let small_device () =
  let dev =
    Sero.Device.create (Sero.Device.default_config ~n_blocks:64 ~line_exp:3 ())
  in
  List.iter
    (fun pba ->
      match Sero.Device.write_block dev ~pba "bench payload" with
      | Ok () -> ()
      | Error _ -> ())
    (Sero.Layout.data_blocks_of_line (Sero.Device.layout dev) 1);
  (match Sero.Device.heat_line dev ~line:1 () with Ok _ -> () | Error _ -> ());
  dev

let bit_ctx () =
  Pmedia.Bitops.make
    (Pmedia.Medium.create (Pmedia.Medium.default_config ~rows:64 ~cols:64))

let bench_fs () =
  let dev =
    Sero.Device.create (Sero.Device.default_config ~n_blocks:1024 ~line_exp:3 ())
  in
  let fs = Lfs.Fs.format dev in
  (match Lfs.Fs.create fs "/bench" with Ok () -> () | Error e -> failwith e);
  fs

let payload_4k = String.init 4096 (fun i -> Char.chr (i mod 251))
let payload_512 = String.sub payload_4k 0 512

(* {1 The tests} *)

let figures =
  [
    Test.make ~name:"fig1 mfm trace (6 dots x 8 samples)"
      (Staged.stage (fun () ->
           let rng = Sim.Prng.create 17 in
           ignore
             (Physics.Mfm.trace Physics.Mfm.default_channel
                Physics.Constants.dot_200nm ~rng
                ~dots:
                  [| Physics.Mfm.Up; Physics.Mfm.Down; Physics.Mfm.Up;
                     Physics.Mfm.Up; Physics.Mfm.Destroyed; Physics.Mfm.Up |]
                ~samples_per_dot:8)));
    Test.make ~name:"fig2 transition table"
      (Staged.stage (fun () -> ignore Pmedia.Dot.transition_table));
    Test.make ~name:"fig7 anisotropy sweep (10 temps)"
      (Staged.stage (fun () ->
           ignore
             (Physics.Anisotropy.figure7_sweep Physics.Constants.co_pt
                ~temps_c:[ 25.; 100.; 200.; 300.; 400.; 500.; 550.; 600.; 650.; 700. ])));
    Test.make ~name:"fig8 low-angle xrd scan (241 pts)"
      (Staged.stage (fun () ->
           ignore
             (Physics.Xrd.low_angle_scan Physics.Constants.co_pt
                ~anneal_temp_c:(Some 700.))));
    Test.make ~name:"fig9 high-angle xrd scan (301 pts)"
      (Staged.stage (fun () ->
           ignore
             (Physics.Xrd.high_angle_scan Physics.Constants.co_pt
                ~anneal_temp_c:(Some 700.))));
  ]

let e7_bit_ops =
  let ctx = bit_ctx () in
  [
    Test.make ~name:"e7 mrb" (Staged.stage (fun () -> ignore (Pmedia.Bitops.mrb ctx 0)));
    Test.make ~name:"e7 mwb"
      (Staged.stage (fun () -> Pmedia.Bitops.mwb ctx 1 Pmedia.Dot.Up));
    Test.make ~name:"e7 erb (1 cycle)"
      (Staged.stage (fun () -> ignore (Pmedia.Bitops.erb ctx 2)));
    Test.make ~name:"e7 ewb (idempotent on heated dot)"
      (Staged.stage (fun () -> Pmedia.Bitops.ewb ctx 3));
  ]

let e7_sector_ops =
  let dev = small_device () in
  let data_pba = Sero.Layout.first_data_block (Sero.Device.layout dev) 2 in
  (* Hoisted out of the staged closure (like mws's pba) so the test
     measures the device read, not per-iteration list allocation. *)
  let read_pba = Sero.Layout.first_data_block (Sero.Device.layout dev) 1 in
  [
    Test.make ~name:"e7 mrs (read sector)"
      (Staged.stage (fun () -> ignore (Sero.Device.read_block dev ~pba:read_pba)));
    Test.make ~name:"e7 mws (write sector)"
      (Staged.stage (fun () ->
           ignore (Sero.Device.write_block dev ~pba:data_pba payload_512)));
    Test.make ~name:"e7 ers (electrical hash read)"
      (Staged.stage (fun () -> ignore (Sero.Device.read_hash_block dev ~line:1)));
  ]

let e8_line_ops =
  let dev = small_device () in
  [
    Test.make ~name:"e8 heat_line (idempotent re-heat, N=3)"
      (Staged.stage (fun () -> ignore (Sero.Device.heat_line dev ~line:1 ())));
    Test.make ~name:"e8 verify_line (N=3)"
      (Staged.stage (fun () -> ignore (Sero.Device.verify_line dev ~line:1)));
    Test.make ~name:"e8 full-device scan (8 lines)"
      (Staged.stage (fun () -> ignore (Sero.Device.scan dev)));
  ]

let e9_lfs =
  let fs = bench_fs () in
  [
    Test.make ~name:"e9 lfs 4KB overwrite (log append + CoW)"
      (Staged.stage (fun () ->
           match Lfs.Fs.write_file fs "/bench" ~offset:0 payload_4k with
           | Ok () -> ()
           | Error e -> failwith e));
    Test.make ~name:"e9 lfs 4KB read"
      (Staged.stage (fun () ->
           ignore (Lfs.Fs.read_range fs "/bench" ~offset:0 ~len:4096)));
    Test.make ~name:"e9 lfs sync (flush + checkpoint)"
      (Staged.stage (fun () -> Lfs.Fs.sync fs));
  ]

let e10_security =
  [
    Test.make ~name:"e10 mwb-data attack + audit (fresh env)"
      (Staged.stage (fun () ->
           ignore (Security.Attacks.run Security.Attacks.Mwb_data)));
  ]

let e11_worm =
  [
    Test.make ~name:"e11 worm comparison (6 technologies)"
      (Staged.stage (fun () ->
           ignore (Baseline.Compare.run_all Baseline.Compare.default_scenario)));
  ]

let e12_archive =
  let venti =
    Venti.create
      (Sero.Device.create (Sero.Device.default_config ~n_blocks:8192 ~line_exp:3 ()))
  in
  let fossil =
    Fossil.create
      (Sero.Device.create (Sero.Device.default_config ~n_blocks:16384 ~line_exp:3 ()))
  in
  let counter = ref 0 in
  [
    Test.make ~name:"e12 venti put_stream 4KB (unique)"
      (Staged.stage (fun () ->
           incr counter;
           ignore
             (Venti.put_stream venti (string_of_int !counter ^ payload_4k))));
    Test.make ~name:"e12 fossil insert (unique key)"
      (Staged.stage (fun () ->
           incr counter;
           ignore
             (Fossil.insert fossil
                ~key:(Printf.sprintf "bench-%d" !counter)
                ~value:"v")));
  ]

let e13_thermal =
  [
    Test.make ~name:"e13 damage sweep (24 design points)"
      (Staged.stage (fun () -> ignore (Expt.Thermal_study.damage_sweep ())));
    Test.make ~name:"e13 spreading comparison"
      (Staged.stage (fun () -> ignore (Expt.Thermal_study.spreading ())));
  ]

let e14_codec =
  [
    Test.make ~name:"e14 sha256 4KB" (Staged.stage (fun () -> ignore (Hash.Sha256.digest_string payload_4k)));
    Test.make ~name:"e14 manchester encode 32B hash"
      (Staged.stage (fun () ->
           ignore (Codec.Manchester.encode (String.sub payload_4k 0 32))));
    Test.make ~name:"e14 sector frame encode (RS + CRC)"
      (Staged.stage (fun () ->
           ignore
             (Codec.Sector.encode ~pba:7 ~kind:Codec.Sector.Data ~generation:1
                payload_512)));
    Test.make ~name:"e14 sector frame decode"
      (let image =
         Codec.Sector.encode ~pba:7 ~kind:Codec.Sector.Data ~generation:1 payload_512
       in
       Staged.stage (fun () -> ignore (Codec.Sector.decode image)));
    Test.make ~name:"e14 wom write"
      (Staged.stage (fun () -> ignore (Codec.Wom.write (Codec.Wom.encode_first 2) 1)));
  ]

let e16_erb =
  [
    Test.make ~name:"e16 erb miss-rate sweep (6 points, 2k trials)"
      (Staged.stage (fun () ->
           ignore (Expt.Erb_study.miss_sweep ~trials:2000 ())));
  ]

let e17_media =
  [
    Test.make ~name:"e17 defect sweep (3 rates, 24 sectors)"
      (Staged.stage (fun () ->
           ignore
             (Expt.Reliability.defect_sweep ~rates:[ 0.; 0.002; 0.008 ]
                ~sectors:24 ())));
  ]

let e18_fault =
  [
    Test.make ~name:"e18 ras read cell (24 sectors, 1 dead tip)"
      (Staged.stage (fun () ->
           ignore
             (Expt.Fault_study.run_cell ~n_blocks:32 ~sectors:24 ~ber:1e-4
                ~dead_tips:1 ~ras_on:true ~plan_seed:42 ())));
    Test.make ~name:"e18 scrub pass over torn line"
      (Staged.stage (fun () ->
           ignore (Expt.Fault_study.powercut_series ~cuts:[ 1 ] ())));
  ]

let e19_sched =
  let timing = Probe.Timing.create () in
  let act = Probe.Actuator.create timing ~pitch:100e-9 ~field_cols:64 in
  let rng = Sim.Prng.create 13 in
  let offsets = List.init 64 (fun _ -> Sim.Prng.int rng 4096) in
  [
    Test.make ~name:"e19 elevator ordering (64 requests)"
      (Staged.stage (fun () ->
           ignore (Probe.Sched.order Probe.Sched.Elevator ~current:0 offsets)));
    Test.make ~name:"e19 sstf ordering (64 requests)"
      (Staged.stage (fun () ->
           ignore (Probe.Sched.order Probe.Sched.Sstf ~current:0 offsets)));
    Test.make ~name:"e19 travel cost estimate"
      (Staged.stage (fun () ->
           ignore (Probe.Sched.travel_cost act ~current:0 offsets)));
  ]

let e20_queue =
  let dev =
    Sero.Device.create (Sero.Device.default_config ~n_blocks:512 ~line_exp:3 ())
  in
  let pbas =
    let lay = Sero.Device.layout dev in
    List.init (Sero.Layout.n_lines lay) Fun.id
    |> List.concat_map (Sero.Layout.data_blocks_of_line lay)
    |> Array.of_list
  in
  Array.iter
    (fun pba -> ignore (Sero.Device.write_block dev ~pba payload_512))
    pbas;
  let rng = Sim.Prng.create 29 in
  let picks =
    List.init 32 (fun _ -> pbas.(Sim.Prng.int rng (Array.length pbas)))
  in
  let round ~policy ~coalesce () =
    (* Fresh clock and queue per run; the device itself only reads. *)
    let q = Sero.Queue.create ~policy ~coalesce (Sim.Des.create ()) dev in
    List.iter (fun pba -> Sero.Queue.submit_read q ~pba (fun _ -> ())) picks;
    Sero.Queue.drain q
  in
  [
    Test.make ~name:"e20 queue 32 reads (elevator, coalescing)"
      (Staged.stage (round ~policy:Probe.Sched.Elevator ~coalesce:true));
    Test.make ~name:"e20 queue 32 reads (fifo, scalar)"
      (Staged.stage (round ~policy:Probe.Sched.Fifo ~coalesce:false));
    Test.make ~name:"e20 await read_block"
      (let q = Sero.Queue.create (Sim.Des.create ()) dev in
       Staged.stage (fun () ->
           ignore
             (Sero.Queue.await q (fun k ->
                  Sero.Queue.submit_read q ~pba:pbas.(40) k))));
  ]

let e21_bcache =
  let dev =
    Sero.Device.create (Sero.Device.default_config ~n_blocks:256 ~line_exp:3 ())
  in
  let lay = Sero.Device.layout dev in
  let pbas = Array.of_list (Sero.Layout.data_blocks_of_line lay 1) in
  Array.iter
    (fun pba -> ignore (Sero.Device.write_block dev ~pba payload_512))
    pbas;
  let q = Sero.Queue.create (Sim.Des.create ()) dev in
  let bc = Sero.Bcache.create ~capacity:64 ~read_ahead:0 q in
  (match Sero.Bcache.read_block bc ~pba:pbas.(0) with
  | Ok _ -> ()
  | Error _ -> ());
  [
    Test.make ~name:"e21 bcache read hit (zero sled service)"
      (Staged.stage (fun () -> ignore (Sero.Bcache.read_block bc ~pba:pbas.(0))));
    Test.make ~name:"e21 bcache write absorb (write-behind)"
      (Staged.stage (fun () ->
           ignore (Sero.Bcache.write_block bc ~pba:pbas.(1) payload_512)));
    Test.make ~name:"e21 bcache flush + drain (1 dirty span)"
      (Staged.stage (fun () ->
           ignore (Sero.Bcache.write_block bc ~pba:pbas.(2) payload_512);
           Sero.Bcache.sync bc));
  ]

let e22_endurance =
  let dev =
    Sero.Device.create
      {
        (Sero.Device.default_config ~n_blocks:256 ~line_exp:3 ()) with
        Sero.Device.endurance = Sero.Device.active_endurance;
      }
  in
  let lay = Sero.Device.layout dev in
  let pbas = Array.of_list (Sero.Layout.data_blocks_of_line lay 1) in
  Array.iter
    (fun pba -> ignore (Sero.Device.write_block dev ~pba payload_512))
    pbas;
  let h = Sero.Device.health dev in
  [
    Test.make ~name:"e22 health note_decode + margin"
      (Staged.stage (fun () ->
           Sero.Health.note_decode h ~line:1 ~corrected:3;
           ignore (Sero.Health.margin h ~line:1)));
    Test.make ~name:"e22 next_due scan (healthy device)"
      (Staged.stage (fun () -> ignore (Sero.Device.next_due dev)));
    Test.make ~name:"e22 read_block with ledger accounting"
      (Staged.stage (fun () -> ignore (Sero.Device.read_block dev ~pba:pbas.(0))));
  ]

let e23_array =
  let v =
    Sarray.Volume.create
      (Sarray.Volume.default_config ~slots:2 ~replication:2 ~spares:0
         ~member_blocks:64 ())
  in
  let m = Sarray.Volume.map v in
  (* Line 0 filled and heated (read + attest targets); line 1 filled
     but left magnetic so write fan-out stays legal per iteration. *)
  List.iter
    (fun line ->
      for o = 0 to Sarray.Amap.data_blocks_per_line m - 1 do
        let vba = Sarray.Amap.vba_of m ~line ~offset:o in
        ignore (Sarray.Volume.write_block v ~vba payload_512)
      done)
    [ 0; 1 ];
  (match Sarray.Volume.heat_line v ~line:0 () with Ok _ -> () | Error _ -> ());
  Sarray.Volume.flush v;
  let read_vba = Sarray.Amap.vba_of m ~line:0 ~offset:0 in
  let write_vba = Sarray.Amap.vba_of m ~line:1 ~offset:0 in
  [
    Test.make ~name:"e23 volume read (mirror pair, cached)"
      (Staged.stage (fun () ->
           ignore (Sarray.Volume.read_block v ~vba:read_vba)));
    Test.make ~name:"e23 volume write fan-out (2 replicas)"
      (Staged.stage (fun () ->
           ignore (Sarray.Volume.write_block v ~vba:write_vba payload_512)));
    Test.make ~name:"e23 quorum attest one line"
      (Staged.stage (fun () ->
           ignore (Sarray.Quorum.attest_line_raw v ~line:0)));
  ]

let e24_zero_copy =
  let dev =
    Sero.Device.create (Sero.Device.default_config ~n_blocks:64 ~line_exp:3 ())
  in
  let lay = Sero.Device.layout dev in
  let pbas = Array.of_list (Sero.Layout.data_blocks_of_line lay 1) in
  Array.iter
    (fun pba -> ignore (Sero.Device.write_block dev ~pba payload_512))
    pbas;
  let first = pbas.(0) and n = Array.length pbas in
  [
    Test.make ~name:"e24 read_raw_view (packed, view out)"
      (Staged.stage (fun () -> ignore (Sero.Device.read_raw_view dev ~pba:first)));
    Test.make ~name:"e24 read_blocks span (7 sectors, 1 pass)"
      (Staged.stage (fun () ->
           ignore (Sero.Device.read_blocks dev ~pba:first ~n)));
    Test.make ~name:"e24 crc32 532B (slicing-by-8)"
      (let framed = String.sub payload_4k 0 532 in
       Staged.stage (fun () -> ignore (Codec.Crc32.string framed)));
  ]

let e25_host =
  let dev =
    Sero.Device.create (Sero.Device.default_config ~n_blocks:64 ~line_exp:3 ())
  in
  let lay = Sero.Device.layout dev in
  let pbas = Array.of_list (Sero.Layout.data_blocks_of_line lay 1) in
  Array.iter
    (fun pba -> ignore (Sero.Device.write_block dev ~pba payload_512))
    pbas;
  let q = Sero.Queue.create (Sim.Des.create ()) dev in
  let server = Host.Server.create (Host.Server.Device q) in
  let session = Host.Server.session server ~tenant:1 in
  let frame =
    { Host.Proto.tenant = 1; seq = 0; cmd = Read { pba = pbas.(0) } }
  in
  let encoded = Host.Proto.encode_frame frame in
  [
    Test.make ~name:"e25 frame encode+decode (read)"
      (Staged.stage (fun () ->
           ignore (Host.Proto.decode_frame (Host.Proto.encode_frame frame))));
    Test.make ~name:"e25 frame decode only"
      (Staged.stage (fun () -> ignore (Host.Proto.decode_frame encoded)));
    Test.make ~name:"e25 host read (admit+queue+respond)"
      (Staged.stage (fun () ->
           ignore (Host.Server.call session (Read { pba = pbas.(0) }))));
  ]

(* E26: the fleet substrate's wall-clock face — CoW clone cost and the
   classic hold-model churn on the event heap (pop the minimum,
   reschedule it an exponential step later, dense pending set). *)
let e26_fleet =
  let golden =
    Sero.Device.create (Sero.Device.default_config ~n_blocks:64 ~line_exp:3 ())
  in
  let lay = Sero.Device.layout golden in
  Array.iter
    (fun pba -> ignore (Sero.Device.write_block golden ~pba payload_512))
    (Array.of_list (Sero.Layout.data_blocks_of_line lay 1));
  let hold_rng = Sim.Prng.create 0xE26 in
  let heap = Sim.Heap.create () in
  (* 4k live timers, every key within an exponential horizon of now —
     far denser than any Des instance in the studies, which hold at
     most a few dozen pending events. *)
  for i = 0 to 4095 do
    let at = Sim.Prng.exponential hold_rng 1.0 in
    Sim.Heap.push heap at i
  done;
  [
    Test.make ~name:"e26 clone+park device"
      (Staged.stage (fun () ->
           let d = Sero.Device.clone golden in
           Sero.Device.park d));
    Test.make ~name:"e26 heap hold (4k pending)"
      (Staged.stage (fun () ->
           let k = Sim.Heap.min_key heap in
           let v = Sim.Heap.min_value heap in
           Sim.Heap.drop_min heap;
           Sim.Heap.push heap (k +. Sim.Prng.exponential hold_rng 1.0) v));
  ]

(* E27: one full campaign site per run — the mirror-split cell, which
   is the cheapest class (window-based array audit, no DES drain), so
   the bench tracks the whole clone/attack/audit/merge path. *)
let e27_campaign =
  [
    Test.make ~name:"e27 mirror-split site (1 site)"
      (Staged.stage (fun () ->
           ignore
             (Security.Campaign.run ~sites:1
                ~attack:Security.Campaign.Mirror_split
                ~adversary:Security.Campaign.default_adversary
                ~defender:Security.Campaign.reference_defender ())));
  ]

let groups =
  [
    ("figures (E1-E6)", figures);
    ("E7 bit ops", e7_bit_ops);
    ("E7 sector ops", e7_sector_ops);
    ("E8 line ops", e8_line_ops);
    ("E9 lfs", e9_lfs);
    ("E10 security", e10_security);
    ("E11 worm", e11_worm);
    ("E12 archive", e12_archive);
    ("E13 thermal", e13_thermal);
    ("E14 codec", e14_codec);
    ("E16 erb reliability", e16_erb);
    ("E17 media reliability", e17_media);
    ("E18 fault & RAS", e18_fault);
    ("E19 scheduling", e19_sched);
    ("E20 request queue", e20_queue);
    ("E21 buffer cache", e21_bcache);
    ("E22 endurance", e22_endurance);
    ("E23 sharded array", e23_array);
    ("E24 zero-copy", e24_zero_copy);
    ("E25 host front-end", e25_host);
    ("E26 fleet substrate", e26_fleet);
    ("E27 insider campaign", e27_campaign);
  ]

(* {1 Runner} *)

let ols =
  Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]

let human ns =
  if ns < 1e3 then Printf.sprintf "%8.1f ns" ns
  else if ns < 1e6 then Printf.sprintf "%8.2f us" (ns /. 1e3)
  else if ns < 1e9 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
  else Printf.sprintf "%8.2f s " (ns /. 1e9)

(* {1 Machine-readable output}

   Every run also writes BENCH_<sha>.json (test name -> ns/run, plus a
   deterministic "simulated" section with the E21 headline) at the repo
   root, so the perf trajectory is scriptable across commits.  With
   --compare BASELINE.json the run additionally prints per-group deltas
   against the baseline and exits non-zero when the simulated smoke set
   regresses by more than 25% or lacks a metric the baseline gates. *)

let read_file path =
  try Some (In_channel.with_open_text path In_channel.input_all)
  with Sys_error _ -> None

(* The repo root (nearest ancestor holding [.git]) anchors the output
   file, so the bench lands BENCH_<sha>.json at the root no matter
   which directory launched it. *)
let repo_root () =
  let rec up dir n =
    if n = 0 then "."
    else if Sys.file_exists (Filename.concat dir ".git") then dir
    else up (Filename.concat dir Filename.parent_dir_name) (n - 1)
  in
  up Filename.current_dir_name 16

(* CI passes the commit it checked out as BENCH_SHA; a local run
   writes BENCH_local.json. *)
let bench_sha () =
  match Option.map String.trim (Sys.getenv_opt "BENCH_SHA") with
  | Some s when s <> "" -> if String.length s > 12 then String.sub s 0 12 else s
  | Some _ | None -> "local"

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* {2 The simulated smoke set}

   Deterministic simulated-device metrics (the E21 headline cell pair):
   unlike ns/run these are byte-stable across machines and quotas, so
   --compare enforces them as the regression gate. *)

let simulated_metrics () =
  let h = Expt.Cache_study.headline () in
  let e = Expt.Endurance_study.headline () in
  let a = Expt.Array_study.headline () in
  let qos = Expt.Qos_study.headline () in
  let fleet = Expt.Fleet_study.headline () in
  let camp = Expt.Campaign_study.headline () in
  let race_pct =
    if camp.Expt.Campaign_study.h_races = 0 then 0.
    else
      100.
      *. float_of_int camp.Expt.Campaign_study.h_race_wins
      /. float_of_int camp.Expt.Campaign_study.h_races
  in
  [
    ("e21 nocache read ms", h.Expt.Cache_study.nocache_read_ms);
    ("e21 cached read ms", h.Expt.Cache_study.cached_read_ms);
    ("e21 read speedup", h.Expt.Cache_study.speedup);
    ("e21 hit pct", h.Expt.Cache_study.headline_hit_pct);
    ("e22 lost off", e.Expt.Endurance_study.lost_off);
    ("e22 lost on", e.Expt.Endurance_study.lost_on);
    ("e22 saved pct", e.Expt.Endurance_study.saved_pct);
    ("e22 audit pct", e.Expt.Endurance_study.audit_pct);
    ("e23 undetected loss", a.Expt.Array_study.h_undetected);
    ("e23 detected replicas", a.Expt.Array_study.h_detected);
    ("e23 rebuild pct", a.Expt.Array_study.h_rebuild_pct);
    ("e23 attested pct", a.Expt.Array_study.h_attested_pct);
    ("e23 audit per line", a.Expt.Array_study.h_audit_per_line);
    ("e25 solo read p99 ms", qos.Expt.Qos_study.solo_p99_ms);
    ("e25 wfs p99 ratio", qos.Expt.Qos_study.wfs_ratio);
    ("e25 fifo p99 ratio", qos.Expt.Qos_study.fifo_ratio);
    ("e25 rejection pct", qos.Expt.Qos_study.overload_rejection_pct);
    ("e26 clone heap kib", fleet.Expt.Fleet_study.h_clone_heap_kib);
    ("e26 clone segments", fleet.Expt.Fleet_study.h_clone_segments);
    ("e26 cow kib per device", fleet.Expt.Fleet_study.h_cow_kib_per_device);
    ("e26 fleet p99 ms", fleet.Expt.Fleet_study.h_lat_p99_ms);
    ("e26 tamper verdicts", float_of_int fleet.Expt.Fleet_study.h_tampers);
    ( "e27 undetected at ref",
      float_of_int camp.Expt.Campaign_study.h_ref_undetected );
    ("e27 det p50 ms", camp.Expt.Campaign_study.h_ref_det_p50_ms);
    ("e27 det p99 ms", camp.Expt.Campaign_study.h_ref_det_p99_ms);
    ( "e27 audit spend",
      float_of_int camp.Expt.Campaign_study.h_ref_audit_spend );
    ( "e27 starved undetected",
      float_of_int camp.Expt.Campaign_study.h_starved_undetected );
    ("e27 race win pct", race_pct);
    ( "e27 spares burned",
      float_of_int camp.Expt.Campaign_study.h_spares_burned );
  ]

(* Allocation observability for the zero-copy hot path: bytes copied by
   the device per operation (0.00 when the packed kernels serve the
   request straight from / into the Bigarray store) and minor-heap words
   allocated per operation.  Both are deterministic — a function of the
   code path, not the machine or the quota — so they ride in the
   "simulated" section and the --compare gate watches them. *)
let counter_metrics () =
  let dev =
    Sero.Device.create (Sero.Device.default_config ~n_blocks:64 ~line_exp:3 ())
  in
  let lay = Sero.Device.layout dev in
  let pba = Sero.Layout.first_data_block lay 1 in
  ignore (Sero.Device.write_block dev ~pba payload_512);
  let per_op f =
    f ();
    (* warm: lazy tables, scratch growth *)
    let c0 = Sero.Device.bytes_copied dev in
    let w0 = Gc.minor_words () in
    let n = 1000 in
    for _ = 1 to n do
      f ()
    done;
    let dw = Gc.minor_words () -. w0 in
    let dc = Sero.Device.bytes_copied dev - c0 in
    (float_of_int dc /. float_of_int n, dw /. float_of_int n)
  in
  let rcopy, rwords = per_op (fun () -> ignore (Sero.Device.read_block dev ~pba)) in
  let wcopy, wwords =
    per_op (fun () -> ignore (Sero.Device.write_block dev ~pba payload_512))
  in
  [
    ("e24 read bytes copied", rcopy);
    ("e24 read minor words", rwords);
    ("e24 write bytes copied", wcopy);
    ("e24 write minor words", wwords);
  ]

let pp_section oc name kvs last =
  Printf.fprintf oc "  \"%s\": {\n" name;
  List.iteri
    (fun i (k, v) ->
      Printf.fprintf oc "    \"%s\": %.2f%s\n" (json_escape k) v
        (if i = List.length kvs - 1 then "" else ","))
    kvs;
  Printf.fprintf oc "  }%s\n" (if last then "" else ",")

let write_json ~sha ~quota ~simulated results =
  let path = Filename.concat (repo_root ()) (Printf.sprintf "BENCH_%s.json" sha) in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "{\n  \"sha\": \"%s\",\n  \"quota_s\": %g,\n"
        (json_escape sha) quota;
      pp_section oc "ns_per_run" results false;
      pp_section oc "simulated" simulated true;
      Printf.fprintf oc "}\n");
  path

(* {2 Baseline comparison}

   The baseline is a file this very program wrote, so a line-oriented
   scan is enough: inside a section, every line is ["name": value,]. *)

let parse_baseline path =
  match read_file path with
  | None -> Error (Printf.sprintf "cannot read baseline %s" path)
  | Some text ->
      let section = ref "" in
      let ns = ref [] and sim = ref [] in
      String.split_on_char '\n' text
      |> List.iter (fun line ->
             let line = String.trim line in
             match String.split_on_char '"' line with
             | [ _; name; tail ] -> (
                 let tail = String.trim tail in
                 if String.length tail > 0 && tail.[0] = ':' then
                   let v = String.sub tail 1 (String.length tail - 1) in
                   let v = String.trim v in
                   let v =
                     if String.length v > 0 && v.[String.length v - 1] = ','
                     then String.sub v 0 (String.length v - 1)
                     else v
                   in
                   match (v, float_of_string_opt v) with
                   | "{", _ -> section := name
                   | _, Some f ->
                       if String.equal !section "ns_per_run" then
                         ns := (name, f) :: !ns
                       else if String.equal !section "simulated" then
                         sim := (name, f) :: !sim
                   | _, None -> ())
             | _ -> ());
      Ok (List.rev !ns, List.rev !sim)

(* ns/run deltas are informational (they move with the machine and the
   quota); the simulated metrics are deterministic and gate the run. *)
let compare_baseline ~baseline ~results ~simulated =
  match parse_baseline baseline with
  | Error e ->
      Printf.printf "compare: %s\n" e;
      false
  | Ok (base_ns, base_sim) ->
      Printf.printf "\ncomparison against %s (informational ns/run deltas)\n"
        baseline;
      let by_group = Hashtbl.create 16 in
      List.iter
        (fun (group, name, ns) ->
          match List.assoc_opt name base_ns with
          | None -> ()
          | Some old when old > 0. && ns > 0. ->
              let cur = try Hashtbl.find by_group group with Not_found -> [] in
              Hashtbl.replace by_group group ((ns /. old) :: cur)
          | Some _ -> ())
        results;
      List.iter
        (fun (group, _) ->
          match Hashtbl.find_opt by_group group with
          | None | Some [] -> ()
          | Some ratios ->
              let geo =
                exp
                  (List.fold_left (fun a r -> a +. log r) 0. ratios
                  /. float_of_int (List.length ratios))
              in
              Printf.printf "  %-24s %+6.1f%% (%d tests)\n" group
                ((geo -. 1.) *. 100.)
                (List.length ratios))
        groups;
      let ok = ref true in
      Printf.printf "simulated smoke set (gated at +25%%)\n";
      List.iter
        (fun (name, now) ->
          match List.assoc_opt name base_sim with
          | None -> Printf.printf "  %-24s %10.2f (new metric)\n" name now
          | Some old ->
              (* "...pct" metrics, the cache speedup and the quorum
                 detection count are higher-is-better; the latency and
                 loss metrics lower-is-better. *)
              let higher_better =
                String.length name >= 4
                && String.equal (String.sub name (String.length name - 3) 3)
                     "pct"
                || List.mem name
                     [
                       "e21 read speedup";
                       "e23 detected replicas";
                       "e25 fifo p99 ratio";
                       "e27 starved undetected";
                     ]
              in
              let regressed =
                if higher_better then now < old *. 0.75
                else now > old *. 1.25
              in
              if regressed then ok := false;
              Printf.printf "  %-24s %10.2f -> %10.2f  %s\n" name old now
                (if regressed then "REGRESSED" else "ok"))
        simulated;
      (* A baseline key the run no longer produces would otherwise drop
         out of the gate without a trace. *)
      List.iter
        (fun (name, old) ->
          if not (List.mem_assoc name simulated) then begin
            ok := false;
            Printf.printf "  %-24s %10.2f -> %10s  MISSING\n" name old "-"
          end)
        base_sim;
      !ok

let baseline_arg () =
  let rec go = function
    | "--compare" :: path :: _ -> Some path
    | _ :: rest -> go rest
    | [] -> None
  in
  go (Array.to_list Sys.argv)

let () =
  let quota =
    match Sys.getenv_opt "BENCH_QUOTA_MS" with
    | Some ms -> float_of_string ms /. 1000.
    | None -> 0.4
  in
  let cfg =
    Benchmark.cfg ~limit:1500 ~quota:(Time.second quota) ~kde:None
      ~stabilize:false ()
  in
  let instances = Instance.[ monotonic_clock ] in
  Printf.printf "SERO benchmark suite (quota %.1fs per test)\n" quota;
  Printf.printf "%-48s %12s %8s\n" "benchmark" "time/run" "r^2";
  print_endline (String.make 72 '-');
  let collected = ref [] in
  List.iter
    (fun (group, tests) ->
      Printf.printf "%s\n" group;
      List.iter
        (fun test ->
          let results =
            Benchmark.all cfg instances
              (Test.make_grouped ~name:"g" [ test ])
          in
          let analysis = Analyze.all ols Instance.monotonic_clock results in
          Hashtbl.iter
            (fun name ols_result ->
              let estimate =
                match Analyze.OLS.estimates ols_result with
                | Some (e :: _) -> e
                | Some [] | None -> Float.nan
              in
              let r2 =
                match Analyze.OLS.r_square ols_result with
                | Some r -> Printf.sprintf "%6.3f" r
                | None -> "     -"
              in
              (* Strip the group prefix bechamel adds. *)
              let name =
                match String.index_opt name '/' with
                | Some i -> String.sub name (i + 1) (String.length name - i - 1)
                | None -> name
              in
              collected := (group, name, estimate) :: !collected;
              Printf.printf "  %-46s %s %8s\n" name (human estimate) r2)
            analysis)
        tests)
    groups;
  print_endline (String.make 72 '-');
  let results = List.rev !collected in
  let simulated = simulated_metrics () @ counter_metrics () in
  Printf.printf "simulated smoke set (deterministic)\n";
  List.iter
    (fun (name, v) -> Printf.printf "  %-46s %10.2f\n" name v)
    simulated;
  let path =
    write_json ~sha:(bench_sha ()) ~quota ~simulated
      (List.map (fun (_, name, ns) -> (name, ns)) results)
  in
  Printf.printf "machine-readable results: %s\n" path;
  print_endline
    "simulated-device latencies and the paper's series: dune exec bin/experiments.exe -- all";
  match baseline_arg () with
  | None -> ()
  | Some baseline ->
      if not (compare_baseline ~baseline ~results ~simulated) then begin
        print_endline
          "FAIL: simulated smoke set regressed past the 25% gate or lost a \
           gated metric";
        exit 1
      end
