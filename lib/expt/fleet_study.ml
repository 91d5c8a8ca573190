(* E26 — fleet-scale simulation substrate: CoW device cloning,
   keyed per-device PRNG streams and deterministic fan-out over
   Sim.Fleet, each device on its own Sim.Des clock.

   One golden device is formatted per worker domain (cheap, and a pure
   function of the constants below); every fleet member is a CoW clone
   of it.  Device [i]'s traffic is driven by Sim.Prng.stream ~seed i,
   so the fleet result is a pure function of (seed, n) — byte-identical
   for any SERO_JOBS. *)

let golden_blocks = 64
let golden_line_exp = 3
let heated_lines = [ 0; 1 ]
let arrival_mean_s = 0.0005
let scrub_lines_per_device = 2
let default_ops = 6
let curve = [ 64; 256; 1024; 4096 ]

let payload_of pba =
  String.init 256 (fun i -> Char.chr ((pba + (11 * i)) land 0xff))

type golden = {
  g_dev : Sero.Device.t;
  g_read : int array;  (* every data block *)
  g_write : int array;  (* data blocks of unheated (WMRM) lines *)
  g_heated : int array;
  g_n_lines : int;
}

let make_golden () =
  let dev =
    Sero.Device.create
      (Sero.Device.default_config ~n_blocks:golden_blocks
         ~line_exp:golden_line_exp ())
  in
  let lay = Sero.Device.layout dev in
  let n_lines = Sero.Layout.n_lines lay in
  let lines = List.init n_lines Fun.id in
  List.iter
    (fun line ->
      List.iter
        (fun pba ->
          match Sero.Device.write_block dev ~pba (payload_of pba) with
          | Ok () -> ()
          | Error _ -> assert false)
        (Sero.Layout.data_blocks_of_line lay line))
    lines;
  List.iter
    (fun line ->
      match Sero.Device.heat_line dev ~line () with
      | Ok _ -> ()
      | Error _ -> assert false)
    heated_lines;
  let data_of l = Sero.Layout.data_blocks_of_line lay l in
  {
    g_dev = dev;
    g_read = Array.of_list (List.concat_map data_of lines);
    g_write =
      Array.of_list
        (List.concat_map data_of
           (List.filter (fun l -> not (List.mem l heated_lines)) lines));
    g_heated = Array.of_list heated_lines;
    g_n_lines = n_lines;
  }

(* One golden per worker domain: built on first use, reused across
   shards scheduled onto that domain.  Clones never write the golden,
   so every clone starts from the same bytes whichever domain makes
   it. *)
let golden_key : golden Domain.DLS.key = Domain.DLS.new_key make_golden

type fleet = {
  f_devices : int;
  f_ops : int;
  f_events : int;
  f_tampers : int;
  f_fails : int;
  f_scrub_rewrites : int;
  f_cow_segments : int;  (* privately materialised segments, fleet-wide *)
  f_lat : Sim.Stats.t;  (* per-op device latency, ms *)
}

let empty_fleet () =
  {
    f_devices = 0;
    f_ops = 0;
    f_events = 0;
    f_tampers = 0;
    f_fails = 0;
    f_scrub_rewrites = 0;
    f_cow_segments = 0;
    f_lat = Sim.Stats.create ();
  }

let merge_fleet = function
  | [] -> empty_fleet ()
  | accs ->
      let sum f = List.fold_left (fun a x -> a + f x) 0 accs in
      {
        f_devices = sum (fun a -> a.f_devices);
        f_ops = sum (fun a -> a.f_ops);
        f_events = sum (fun a -> a.f_events);
        f_tampers = sum (fun a -> a.f_tampers);
        f_fails = sum (fun a -> a.f_fails);
        f_scrub_rewrites = sum (fun a -> a.f_scrub_rewrites);
        f_cow_segments = sum (fun a -> a.f_cow_segments);
        f_lat =
          Sim.Stats.merge_many (List.map (fun a -> a.f_lat) accs);
      }

(* One fleet member: clone, open-loop traffic (62% reads, 30% writes,
   8% verifies of a heated line) with exponential arrivals on the
   device's own DES clock, plus two background scrub sweeps, then
   park.  Everything below is a function of (golden bytes, rng, i). *)
let run_device ~ops ~rng i =
  let g = Domain.DLS.get golden_key in
  let dev = Sero.Device.clone g.g_dev in
  let pdev = Sero.Device.pdevice dev in
  let des = Sim.Des.create () in
  let lat = Sim.Stats.create () in
  let events = ref 0 and tampers = ref 0 and fails = ref 0 in
  let completed = ref 0 in
  let rec arm issued =
    if issued < ops then
      Sim.Des.schedule des
        ~delay:(Sim.Prng.exponential rng arrival_mean_s)
        (fun _ ->
          incr events;
          let t0 = Probe.Pdevice.elapsed pdev in
          let u = Sim.Prng.uniform rng in
          (if u < 0.62 then
             let pba = g.g_read.(Sim.Prng.int rng (Array.length g.g_read)) in
             match Sero.Device.read_block dev ~pba with
             | Ok _ -> ()
             | Error _ -> incr fails
           else if u < 0.92 then
             let pba = g.g_write.(Sim.Prng.int rng (Array.length g.g_write)) in
             match Sero.Device.write_block dev ~pba (payload_of pba) with
             | Ok () -> ()
             | Error _ -> incr fails
           else
             let line =
               g.g_heated.(Sim.Prng.int rng (Array.length g.g_heated))
             in
             match Sero.Device.verify_line dev ~line with
             | Sero.Tamper.Intact -> ()
             | Sero.Tamper.Not_heated -> incr fails
             | Sero.Tamper.Tampered _ -> incr tampers);
          Sim.Stats.add lat ((Probe.Pdevice.elapsed pdev -. t0) *. 1000.);
          incr completed;
          arm (issued + 1))
  in
  arm 0;
  let progress = Sero.Scrub.progress_create () in
  for k = 0 to scrub_lines_per_device - 1 do
    Sim.Des.schedule_at des
      ~at:(0.0012 *. float_of_int (k + 1))
      (fun _ ->
        incr events;
        Sero.Scrub.sweep_line dev progress ~line:((i + k) mod g.g_n_lines))
  done;
  Sim.Des.run des;
  let rewritten =
    (Sero.Scrub.report_of_progress progress).Sero.Scrub.rewritten
  in
  let segs = Pmedia.Medium.owned_segments (Probe.Pdevice.medium pdev) in
  Sero.Device.park dev;
  {
    f_devices = 1;
    f_ops = !completed;
    f_events = !events;
    f_tampers = !tampers;
    f_fails = !fails;
    f_scrub_rewrites = rewritten;
    f_cow_segments = segs;
    f_lat = lat;
  }

let run_fleet ?(seed = 0xE26) ?(ops = default_ops) n =
  Sim.Fleet.map_merge ~seed n
    ~f:(fun ~rng i -> run_device ~ops ~rng i)
    ~merge:merge_fleet

(* Idle-clone footprint cell: OCaml-heap words retained per parked
   clone (the packed medium payload lives off-heap in Bigarrays and is
   shared until written).  Runs on the main domain before any Pool
   fan-out so the GC numbers are independent of SERO_JOBS. *)

type clone_cell = {
  c_clones : int;
  c_heap_kib : float;  (* OCaml heap per idle clone; acceptance: <= 64 *)
  c_segments : float;  (* private segments per idle clone (0.) *)
}

let default_clones = 256

let measure_clones ?(clones = default_clones) () =
  let g = make_golden () in
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  let fleet = Array.init clones (fun _ -> Sero.Device.clone g.g_dev) in
  Gc.full_major ();
  let after = (Gc.stat ()).Gc.live_words in
  (* The golden stays live across both samples, so the delta is the
     clones alone. *)
  ignore (Sys.opaque_identity g);
  let segs =
    Array.fold_left
      (fun acc d ->
        acc
        + Pmedia.Medium.owned_segments
            (Probe.Pdevice.medium (Sero.Device.pdevice d)))
      0 fleet
  in
  ignore (Sys.opaque_identity fleet);
  let words_per_clone = float_of_int (after - before) /. float_of_int clones in
  {
    c_clones = clones;
    c_heap_kib = words_per_clone *. float_of_int (Sys.word_size / 8) /. 1024.;
    c_segments = float_of_int segs /. float_of_int clones;
  }

type headline = {
  h_devices : int;  (** Largest fleet in the curve. *)
  h_ops : int;
  h_tampers : int;
  h_fails : int;
  h_lat_p99_ms : float;
  h_clone_heap_kib : float;
  h_clone_segments : float;
  h_cow_kib_per_device : float;
}

let headline_of ~fleet ~clone =
  let _, _, p99 = Sim.Stats.quantiles fleet.f_lat in
  {
    h_devices = fleet.f_devices;
    h_ops = fleet.f_ops;
    h_tampers = fleet.f_tampers;
    h_fails = fleet.f_fails;
    h_lat_p99_ms = p99;
    h_clone_heap_kib = clone.c_heap_kib;
    h_clone_segments = clone.c_segments;
    h_cow_kib_per_device =
      float_of_int (fleet.f_cow_segments * Pmedia.Medium.segment_bytes)
      /. 1024.
      /. float_of_int (max 1 fleet.f_devices);
  }

let headline () =
  let clone = measure_clones () in
  let fleet = run_fleet 512 in
  headline_of ~fleet ~clone

let print ppf =
  let clone = measure_clones () in
  let rows = List.map (fun n -> run_fleet n) curve in
  Format.fprintf ppf
    "E26 — fleet fan-out: CoW clones x keyed PRNG streams@.";
  Format.fprintf ppf "%s@." (String.make 78 '-');
  Format.fprintf ppf "  %7s %6s %7s %7s %5s %5s %8s %8s %8s@." "devices"
    "ops" "events" "rewrite" "tamp" "fail" "p50(ms)" "p95(ms)" "p99(ms)";
  List.iter
    (fun f ->
      let p50, p95, p99 = Sim.Stats.quantiles f.f_lat in
      Format.fprintf ppf "  %7d %6d %7d %7d %5d %5d %8.3f %8.3f %8.3f@."
        f.f_devices f.f_ops f.f_events f.f_scrub_rewrites f.f_tampers
        f.f_fails p50 p95 p99)
    rows;
  let last = List.nth rows (List.length rows - 1) in
  let h = headline_of ~fleet:last ~clone in
  Format.fprintf ppf
    "clones: %.1f KiB OCaml heap and %.2f private segments per idle clone; \
     %.1f KiB@."
    h.h_clone_heap_kib h.h_clone_segments h.h_cow_kib_per_device;
  Format.fprintf ppf
    "of CoW medium materialised per device after %d ops + scrub@."
    default_ops;
  Format.fprintf ppf
    "fleet of %d: %d tamper verdicts, %d op failures (0 expected of both)@."
    h.h_devices h.h_tampers h.h_fails;
  Format.fprintf ppf
    "every device is a pure function of (seed, index): the same fleet@.";
  Format.fprintf ppf "bytes fall out of any -j.@."
