type row = {
  cache_lines : int;
  read_ahead : int;
  theta : float;
  ops : int;
  hit_pct : float;
  ra_hits : int;
  read_mean_ms : float;
  read_p95_ms : float;
  write_mean_ms : float;
  flush_spans : int;
}

(* Closed-loop client think time, as in E20: long enough for a
   background prefetch span (~one coalesced read pass) to land in the
   gap before the next request arrives. *)
let think_s = 0.02

(* Read fraction of the op mix; the rest are write-behind buffered
   overwrites of existing blocks. *)
let read_frac = 0.75

(* Fraction of op events that are sequential scans (a Zipf-drawn start
   block read through [scan_len] consecutive blocks) — the file-read
   pattern sequential read-ahead exists for.  The rest are point ops. *)
let scan_frac = 0.1

let scan_len = 8

(* Background scrub sweeps per second, running in every cell: the
   buffer cache is for a busy device — hits skip the queue entirely
   while the bare pipeline waits behind scrub spans (cf. E20's
   contention study). *)
let scrub_period = 0.04

(* The first fraction of ops warms the cache; their latencies are not
   recorded (the frontier of interest is steady state, and the bare
   pipeline has no warmup to exclude — excluding it for both sides is
   conservative). *)
let warmup_frac = 0.25

let run_cell ?(ops = 400) ~cache_lines ~read_ahead ~theta () =
  let dev =
    Sero.Device.create (Sero.Device.default_config ~n_blocks:256 ~line_exp:3 ())
  in
  let lay = Sero.Device.layout dev in
  (* Zipf rank maps to log order: the hottest blocks are the most
     recently written region of the log, so the hot set is physically
     clustered — the LFS access pattern the ISSUE motivation describes,
     and the one sequential read-ahead can actually exploit. *)
  let data_pbas =
    List.init (Sero.Layout.n_lines lay) Fun.id
    |> List.concat_map (Sero.Layout.data_blocks_of_line lay)
    |> Array.of_list
  in
  let payload_of pba =
    String.init 256 (fun i -> Char.chr ((pba + (11 * i)) land 0xff))
  in
  Array.iter
    (fun pba ->
      match Sero.Device.write_block dev ~pba (payload_of pba) with
      | Ok () -> ()
      | Error _ -> assert false)
    data_pbas;
  let des = Sim.Des.create () in
  let q = Sero.Queue.create des dev in
  (* Cache size 0 is the bare pipeline: a capacity-0 cache sends every
     operation straight to the queue. *)
  let bc =
    Sero.Bcache.create
      ~capacity:(cache_lines * Sero.Layout.blocks_per_line lay)
      ~read_ahead
      (* Keep the dirty watermark low so write-behind pinning does not
         crowd reads out of a small cache. *)
      ~dirty_high:(max 1 (cache_lines * Sero.Layout.blocks_per_line lay / 8))
      q
  in
  let rng = Sim.Prng.create 0xE21 in
  let zipf = Workload.Zipf.create ~n:(Array.length data_pbas) ~theta in
  let read_lat = Sim.Stats.create ()
  and write_lat = Sim.Stats.create () in
  let warmup = int_of_float (warmup_frac *. float_of_int ops) in
  (* Let the DES clock tick [dt] forward, firing whatever comes due —
     this is where background prefetch spans get served. *)
  let advance dt =
    let woke = ref false in
    Sim.Des.schedule des ~delay:dt (fun _ -> woke := true);
    while not !woke do
      ignore (Sim.Des.step des)
    done
  in
  let client_done = ref false in
  ignore
    (Sero.Queue.schedule_scrub q ~period:scrub_period
       ~stop:(fun () -> !client_done));
  let read_one ~record pba =
    let t0 = Sim.Des.now des in
    (match Sero.Bcache.read_block bc ~pba with
    | Ok _ -> ()
    | Error _ -> assert false);
    if record then Sim.Stats.add read_lat (Sim.Des.now des -. t0)
  in
  for op = 1 to ops do
    let record = op > warmup in
    let start = Workload.Zipf.sample zipf rng in
    if Sim.Prng.bernoulli rng scan_frac then begin
      (* Sequential scan: consume [scan_len] consecutive blocks with a
         short per-block think gap, as a client streaming a file would. *)
      let last = min (Array.length data_pbas - 1) (start + scan_len - 1) in
      for i = start to last do
        read_one ~record data_pbas.(i);
        advance (think_s /. 4.)
      done
    end
    else if Sim.Prng.bernoulli rng read_frac then
      read_one ~record data_pbas.(start)
    else begin
      let pba = data_pbas.(start) in
      let t0 = Sim.Des.now des in
      (match Sero.Bcache.write_block bc ~pba (payload_of pba) with
      | Ok () -> ()
      | Error _ -> assert false);
      if record then Sim.Stats.add write_lat (Sim.Des.now des -. t0)
    end;
    advance think_s
  done;
  client_done := true;
  Sero.Bcache.sync bc;
  let stats = Sero.Bcache.stats bc in
  {
    cache_lines;
    read_ahead;
    theta;
    ops;
    (* [hit_rate] is NaN with no lookups, which is all a capacity-0
       cache ever sees. *)
    hit_pct =
      (if cache_lines = 0 then 0. else 100. *. Sero.Bcache.hit_rate bc);
    ra_hits = stats.Sero.Bcache.read_ahead_hits;
    read_mean_ms = 1e3 *. Sim.Stats.mean read_lat;
    read_p95_ms = 1e3 *. Sim.Stats.p95 read_lat;
    write_mean_ms = 1e3 *. Sim.Stats.mean write_lat;
    flush_spans = stats.Sero.Bcache.flushed_spans;
  }

let cache_sizes = [ 0; 1; 4; 16 ]
let read_aheads = [ 0; 8 ]
let thetas = [ 0.0; 0.9; 0.99 ]

let sweep ?(ops = 400) () =
  let cells =
    List.concat_map
      (fun cache_lines ->
        List.concat_map
          (fun read_ahead ->
            List.map (fun theta -> (cache_lines, read_ahead, theta)) thetas)
          (* The bare pipeline has no prefetcher: one baseline per skew. *)
          (if cache_lines = 0 then [ 0 ] else read_aheads))
      cache_sizes
  in
  Sim.Pool.parallel_map
    (fun (cache_lines, read_ahead, theta) ->
      run_cell ~ops ~cache_lines ~read_ahead ~theta ())
    cells

type headline = {
  nocache_read_ms : float;
  cached_read_ms : float;
  speedup : float;
  headline_hit_pct : float;
}

let headline () =
  let cells =
    Sim.Pool.parallel_map
      (fun (cache_lines, read_ahead) ->
        run_cell ~ops:400 ~cache_lines ~read_ahead ~theta:0.99 ())
      [ (0, 0); (4, 8) ]
  in
  match cells with
  | [ base; cached ] ->
      {
        nocache_read_ms = base.read_mean_ms;
        cached_read_ms = cached.read_mean_ms;
        speedup = base.read_mean_ms /. cached.read_mean_ms;
        headline_hit_pct = cached.hit_pct;
      }
  | _ -> assert false

let print ppf =
  let rows = sweep () in
  Format.fprintf ppf "E21 — buffer cache: size x read-ahead x Zipf skew@.";
  Format.fprintf ppf "%s@." (String.make 72 '-');
  Format.fprintf ppf "  %5s %3s %6s %5s %6s %8s %9s %9s %9s %6s@." "cache"
    "ra" "theta" "ops" "hit%" "ra-hits" "read(ms)" "p95(ms)" "write(ms)"
    "spans";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "  %5d %3d %6.2f %5d %6.1f %8d %9.3f %9.3f %9.3f %6d@." r.cache_lines
        r.read_ahead r.theta r.ops r.hit_pct r.ra_hits r.read_mean_ms
        r.read_p95_ms r.write_mean_ms r.flush_spans)
    rows;
  let find cl ra th =
    List.find
      (fun r -> r.cache_lines = cl && r.read_ahead = ra && r.theta = th)
      rows
  in
  let base99 = find 0 0 0.99 and hot99 = find 4 8 0.99 in
  let base90 = find 0 0 0.9 and hot90 = find 4 8 0.9 in
  let uni = find 0 0 0.0 and hotuni = find 4 8 0.0 in
  Format.fprintf ppf
    "headline (4 lines, ra 8): zipf 0.99 mean read %.3f -> %.3f ms (%.2fx, \
     %.1f%% hits); zipf 0.9 %.3f -> %.3f ms (%.2fx); uniform %.3f -> %.3f \
     ms (%.2fx)@."
    base99.read_mean_ms hot99.read_mean_ms
    (base99.read_mean_ms /. hot99.read_mean_ms)
    hot99.hit_pct base90.read_mean_ms hot90.read_mean_ms
    (base90.read_mean_ms /. hot90.read_mean_ms)
    uni.read_mean_ms hotuni.read_mean_ms
    (uni.read_mean_ms /. hotuni.read_mean_ms);
  Format.fprintf ppf
    "read-ahead earns its keep on sequential scans: at zipf 0.99 the 4-line \
     cache serves@.";
  Format.fprintf ppf
    "%d reads straight from prefetched blocks (vs %d with ra off), and \
     write-behind@."
    hot99.ra_hits (find 4 0 0.99).ra_hits;
  Format.fprintf ppf
    "retires the dirty set in %d coalesced flush spans.  Skew is the \
     frontier: LRU@."
    hot99.flush_spans;
  Format.fprintf ppf
    "value collapses at uniform access while the scan benefit survives.@."
