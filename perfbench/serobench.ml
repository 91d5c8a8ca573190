(* serobench — end-to-end benchmark of the SERO simulator.

     serobench --workload NAME --seed N --seconds S --trace 0|1

   One workload per invocation, on one domain (Sim.Pool.set_jobs 1).
   Inputs are generated from --seed; the program under test only sees
   the generated inputs, through its public interfaces.  A run is:

   1. set-up, repeated [setup_reps] times (median scaled time reported
      as setup_s);
   2. the reference — one round of each seeded input variant, a fixed
      amount of work whose simulated latency, allocation and work counts
      are deterministic per seed;
   3. further rounds, cycling through the variants, until --seconds have
      elapsed (throughput uses each variant's median round).

   Times are wall times scaled to nominal machine speed by a calibration
   kernel run around each timed piece of work (see Machine speed).

   With --trace 1 traced rounds alternate with untraced ones, whose
   throughput difference is the tracing overhead; peeled replays split
   out the layers that cannot be wrapped from outside, and two child
   runs check determinism.  The last line of stdout is one JSON object;
   see README.md for every metric. *)

external now_ns : unit -> int = "serobench_now_ns" [@@noalloc]

let setup_reps = 5

(* {1 Command line} *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  digest_only : bool;
}

let usage () =
  prerr_endline
    "usage: serobench --workload host_mix|audit_sweep|fs_archive|campaign \
     --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref 10.
  and trace = ref false and digest_only = ref false in
  let rec go = function
    | "--workload" :: w :: rest ->
        workload := w;
        go rest
    | "--seed" :: s :: rest ->
        seed := int_of_string_opt s;
        if !seed = None then usage ();
        go rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some x when x > 0. -> seconds := x
        | _ -> usage ());
        go rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := t = "1";
        go rest
    | "--digest-only" :: rest ->
        digest_only := true;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !seed with
  | None -> usage ()
  | Some seed ->
      {
        workload = !workload;
        seed;
        seconds = !seconds;
        trace = !trace;
        digest_only = !digest_only;
      }

(* {1 Spans}

   Spans are recorded from the benchmark's side of each layer boundary:
   name, start, end, parent and the request they serve.  Self time
   (duration minus the part covered by child spans) is aggregated per
   name as each span closes; the first [cap] spans are also kept in
   memory and written out when the benchmark ends. *)

module Trace = struct
  let on = ref false
  let max_names = 64
  let names = Array.make max_names ""
  let n_names = ref 0

  let intern s =
    let rec find i =
      if i = !n_names then begin
        names.(i) <- s;
        incr n_names;
        i
      end
      else if names.(i) = s then i
      else find (i + 1)
    in
    find 0

  let self_ns = Array.make max_names 0
  let calls = Array.make max_names 0
  let max_depth = 64
  let st_name = Array.make max_depth 0
  let st_t0 = Array.make max_depth 0
  let st_child = Array.make max_depth 0
  let st_slot = Array.make max_depth (-1)
  let sp = ref 0
  let cap = 1 lsl 16
  let k_name = Array.make cap 0
  let k_req = Array.make cap 0
  let k_parent = Array.make cap 0
  let k_t0 = Array.make cap 0
  let k_t1 = Array.make cap 0
  let kept = ref 0

  (* The request the next spans serve (-1: none in particular). *)
  let req = ref (-1)

  let enter id =
    let d = !sp in
    st_name.(d) <- id;
    st_child.(d) <- 0;
    let slot =
      if !kept < cap then begin
        let i = !kept in
        incr kept;
        k_name.(i) <- id;
        k_req.(i) <- !req;
        k_parent.(i) <- (if d = 0 then -1 else st_slot.(d - 1));
        i
      end
      else -1
    in
    st_slot.(d) <- slot;
    sp := d + 1;
    let t = now_ns () in
    st_t0.(d) <- t;
    if slot >= 0 then k_t0.(slot) <- t

  let leave () =
    let t = now_ns () in
    let d = !sp - 1 in
    sp := d;
    let dur = t - st_t0.(d) in
    let id = st_name.(d) in
    self_ns.(id) <- self_ns.(id) + dur - st_child.(d);
    calls.(id) <- calls.(id) + 1;
    if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur;
    let slot = st_slot.(d) in
    if slot >= 0 then k_t1.(slot) <- t

  let span id f =
    if not !on then f ()
    else begin
      enter id;
      match f () with
      | v ->
          leave ();
          v
      | exception e ->
          leave ();
          raise e
    end

  let self_total id = self_ns.(id)

  let self_per_call id =
    if calls.(id) = 0 then 0. else float self_ns.(id) /. float calls.(id)

  let write path =
    let oc = open_out path in
    output_string oc "span\tname\treq\tparent\tstart_ns\tend_ns\n";
    for i = 0 to !kept - 1 do
      Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i names.(k_name.(i))
        k_req.(i) k_parent.(i) k_t0.(i) k_t1.(i)
    done;
    close_out oc
end

(* Span names: one per layer boundary the benchmark crosses. *)
let sp_round = Trace.intern "bench.round"
let sp_codec = Trace.intern "host.proto.codec"
let sp_submit = Trace.intern "host.server.submit"
let sp_step = Trace.intern "sim.des.step"
let sp_hook = Trace.intern "bench.response_hook"
let sp_fs_create = Trace.intern "lfs.fs.create"
let sp_fs_write = Trace.intern "lfs.fs.write"
let sp_fs_read = Trace.intern "lfs.fs.read"
let sp_fs_sync = Trace.intern "lfs.fs.sync"
let sp_fs_heat = Trace.intern "lfs.fs.heat"
let sp_fs_verify = Trace.intern "lfs.fs.verify"
let sp_fs_unlink = Trace.intern "lfs.fs.unlink"
let sp_fs_mount = Trace.intern "lfs.fs.mount"

let sp_site =
  List.map
    (fun a -> (a, Trace.intern ("security.campaign." ^ Security.Campaign.attack_name a)))
    Security.Campaign.all_attacks

(* {1 Metrics} *)

(* Every per-layer metric, in output order.  BENCHMARK.json lists the
   same names; a workload that does not exercise a layer reports 0. *)
let per_layer_spec =
  let attack_sites =
    List.map
      (fun a ->
        ( "security.campaign.site_ns." ^ Security.Campaign.attack_name a,
          "ns"))
      Security.Campaign.all_attacks
  in
  [
    ("host.proto.codec_ns", "ns");
    ("host.server.submit_ns", "ns");
    ("sim.des.step_ns", "ns");
    ("sero.queue.self_ns", "ns");
    ("sero.device.read_ns", "ns");
    ("sero.device.write_ns", "ns");
    ("sero.device.verify_line_ns", "ns");
    ("sero.device.ers_ns", "ns");
    ("hash.sha256.line_ns", "ns");
    ("sero.device.heat_line_ns", "ns");
    ("lfs.fs.create_ns", "ns");
    ("lfs.fs.write_ns", "ns");
    ("lfs.fs.read_ns", "ns");
    ("lfs.fs.sync_ns", "ns");
    ("lfs.fs.heat_ns", "ns");
    ("lfs.fs.verify_ns", "ns");
  ]
  @ attack_sites
  @ [
      ("sero.queue.wait_p99_ms", "ms");
      ("sero.queue.service_mean_ms", "ms");
      ("sero.queue.depth_p99", "count");
      ("probe.timing.busy_s", "s");
      ("sero.device.reads", "count/op");
      ("sero.device.writes", "count/op");
      ("sero.device.heats", "count/op");
      ("sero.device.verifies", "count/op");
      ("sero.device.retries", "count/op");
      ("sero.device.bytes_copied", "B/op");
      ("pmedia.bitops.mrb", "count/op");
      ("pmedia.bitops.mwb", "count/op");
      ("pmedia.bitops.ewb", "count/op");
      ("pmedia.bitops.erb", "count/op");
      ("pmedia.bitops.primitive_ops", "count/op");
      ("sero.queue.completed", "count/op");
      ("sero.queue.coalesced", "count/op");
      ("sim.des.events", "count/op");
      ("gc.minor_words", "words/op");
      ("gc.major_collections", "count");
      ("sero.bcache.hit_pct", "%");
      ("sero.bcache.read_ahead_hits", "count/op");
      ("sero.bcache.evictions", "count/op");
      ("sero.bcache.flushed_spans", "count/op");
      ("lfs.write_amp", "ratio");
      ("lfs.cleaner_copies", "count/op");
      ("lfs.heat_relocations", "count/op");
      ("host.slo.failed", "count");
      ("host.slo.rejected", "count");
      ("trace.overhead_pct", "%");
      ("trace.cover_pct", "%");
      ("trace.peeled_share_pct", "%");
      ("trace.ops_per_s", "1/s");
      ("bench.det_repeat", "bool");
      ("bench.det_seed_varies", "bool");
    ]

let end_to_end_spec =
  [
    ("ops_per_s", "1/s");
    ("setup_s", "s");
    ("alloc_words_per_op", "words");
    ("top_heap_mb", "MB");
    ("sim_p50_ms", "ms");
    ("sim_p99_ms", "ms");
    ("sim_ops_per_s", "1/s");
  ]

(* {1 Work counters} *)

type counts = {
  reads : int;
  writes : int;
  heats : int;
  verifies : int;
  retries : int;
  copied : int;
  mrb : int;
  mwb : int;
  ewb : int;
  erb : int;
  prim : int;
  busy : float;
}

let counts_of dev =
  let s = Sero.Device.stats dev in
  let c =
    Pmedia.Bitops.counters (Probe.Pdevice.bitops (Sero.Device.pdevice dev))
  in
  {
    reads = s.Sero.Device.reads;
    writes = s.writes;
    heats = s.heats;
    verifies = s.verifies;
    retries = s.retries;
    copied = Sero.Device.bytes_copied dev;
    mrb = c.Pmedia.Bitops.mrb;
    mwb = c.mwb;
    ewb = c.ewb;
    erb = c.erb;
    prim = Pmedia.Bitops.primitive_ops c;
    busy = s.elapsed;
  }

let zero_counts =
  {
    reads = 0;
    writes = 0;
    heats = 0;
    verifies = 0;
    retries = 0;
    copied = 0;
    mrb = 0;
    mwb = 0;
    ewb = 0;
    erb = 0;
    prim = 0;
    busy = 0.;
  }

let combine_counts iop fop a b =
  {
    reads = iop a.reads b.reads;
    writes = iop a.writes b.writes;
    heats = iop a.heats b.heats;
    verifies = iop a.verifies b.verifies;
    retries = iop a.retries b.retries;
    copied = iop a.copied b.copied;
    mrb = iop a.mrb b.mrb;
    mwb = iop a.mwb b.mwb;
    ewb = iop a.ewb b.ewb;
    erb = iop a.erb b.erb;
    prim = iop a.prim b.prim;
    busy = fop a.busy b.busy;
  }

let sub_counts = combine_counts ( - ) ( -. )
let add_counts = combine_counts ( + ) ( +. )

(* What one round reports besides wall time and allocation, which the
   runner measures around it. *)
type round = {
  ops : int;
  failed : int;
  lat_ms : Sim.Stats.t;  (** Simulated latency per op. *)
  sim_ops : int;  (** Ops counted by sim_ops_per_s ... *)
  sim_s : float;  (** ... over these simulated seconds. *)
  work : counts;
  layer : (string * float) list;  (** Per-layer values of this round. *)
}

type instance = {
  variants : int;
      (** Distinct seeded rounds; together they form the reference. *)
  round : int -> round;  (** Round of the given variant. *)
  peel : unit -> (string * float) list;
      (** Peeled replays: per-layer wall times of layers the spans
          cannot wrap from outside. *)
}

(* {1 Shared helpers} *)

let block_bytes = 512

let payload_pool rng n =
  Array.init n (fun _ ->
      String.init block_bytes (fun _ -> Char.chr (Sim.Prng.int rng 256)))

let data_pbas_of lay lines =
  Array.of_list (List.concat_map (Sero.Layout.data_blocks_of_line lay) lines)

let ms_of_s s = 1000. *. s

let depth_p99 h =
  let counts = Sim.Stats.Histogram.counts h in
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 0.
  else begin
    let target = 0.99 *. float total in
    let acc = ref 0 and res = ref 0. and found = ref false in
    Array.iteri
      (fun i c ->
        acc := !acc + c;
        if (not !found) && float !acc >= target then begin
          found := true;
          res := Sim.Stats.Histogram.bin_label h i
        end)
      counts;
    !res
  end

(* Queue-level per-layer values of one round. *)
let queue_layer q ~ops =
  let per x = float x /. float (max 1 ops) in
  let wait =
    Sim.Stats.merge (Sero.Queue.wait q Sero.Queue.Foreground)
      (Sero.Queue.wait q Sero.Queue.Background)
  in
  [
    ("sero.queue.wait_p99_ms", ms_of_s (Sim.Stats.p99 wait));
    ("sero.queue.service_mean_ms", ms_of_s (Sim.Stats.mean (Sero.Queue.service q)));
    ("sero.queue.depth_p99", depth_p99 (Sero.Queue.depth_histogram q));
    ( "sero.queue.completed",
      per
        (Sero.Queue.completed q Sero.Queue.Foreground
        + Sero.Queue.completed q Sero.Queue.Background) );
    ("sero.queue.coalesced", per (Sero.Queue.coalesced_requests q));
  ]

let slo_layer server =
  let failed = ref 0 and rejected = ref 0 in
  List.iter
    (fun tenant ->
      let s = Host.Server.slo server ~tenant in
      failed := !failed + Host.Slo.failed s;
      rejected := !rejected + Host.Slo.rejected s)
    (Host.Server.tenants server);
  [ ("host.slo.failed", float !failed); ("host.slo.rejected", float !rejected) ]

(* Every frame and every response crosses the wire format: encode, then
   decode what was encoded. *)
let wire_frame f =
  let s = Trace.span sp_codec (fun () -> Host.Proto.encode_frame f) in
  fst (Trace.span sp_codec (fun () -> Host.Proto.decode_frame s))

let wire_response r =
  let s = Trace.span sp_codec (fun () -> Host.Proto.encode_response r) in
  fst (Trace.span sp_codec (fun () -> Host.Proto.decode_response s))

(* Pump the DES one event at a time, each step a span; returns events. *)
let pump des =
  let events = ref 0 in
  while Trace.span sp_step (fun () -> Sim.Des.step des) do
    incr events
  done;
  !events

(* {1 host_mix — the multi-tenant sector path}

   4 tenants x 4 closed-loop streams with 1 ms think time under the
   fair-share arbiter; Zipf(0.9) 60 % reads over every data block, 40 %
   writes to the WMRM upper half.  The lower half is the heated
   archive.  A round is [host_round_ops] commands; each of the
   [host_variants] variants has its own streams, and every round of a
   variant replays them on a CoW clone of the set-up device. *)

let host_blocks = 4096
let host_tenants = 4
let host_streams = 4
let host_think_s = 0.001
let host_read_frac = 0.6
let host_theta = 0.9
let host_variants = 4
let host_round_ops = 2_000
let host_pool = 1024

type host_state = {
  h_seed : int;
  h_dev : Sero.Device.t;
  h_pool : string array;
  h_init : int array;  (* pba -> pool index written at set-up *)
  h_reads : int array;  (* Zipf rank -> pba, every data block *)
  h_writes : int array;  (* Zipf rank -> pba, WMRM half *)
  h_zr : Workload.Zipf.t;
  h_zw : Workload.Zipf.t;
  h_base : counts;
}

type host_op = { o_read : bool; o_pba : int; o_idx : int }

(* A client stream's generator: the same ops every round.  Each stream
   rotates the Zipf ranking by its own offset, so every stream has its
   own hot set and a round averages over sixteen placements. *)
type host_gen = { g_rng : Sim.Prng.t; g_roff : int; g_woff : int }

let host_gen st v tenant s =
  let rng = Sim.Prng.stream ~seed:st.h_seed ((v * 1024) + (tenant * 64) + s) in
  let g_roff = Sim.Prng.int rng (Array.length st.h_reads) in
  let g_woff = Sim.Prng.int rng (Array.length st.h_writes) in
  { g_rng = rng; g_roff; g_woff }

let host_next st g =
  let pick arr z off =
    arr.((Workload.Zipf.sample z g.g_rng + off) mod Array.length arr)
  in
  if Sim.Prng.bernoulli g.g_rng host_read_frac then
    { o_read = true; o_pba = pick st.h_reads st.h_zr g.g_roff; o_idx = -1 }
  else
    {
      o_read = false;
      o_pba = pick st.h_writes st.h_zw g.g_woff;
      o_idx = Sim.Prng.int g.g_rng host_pool;
    }

let host_setup ~seed =
  let rng = Sim.Prng.create seed in
  let pool = payload_pool rng host_pool in
  let cfg =
    {
      (Sero.Device.default_config ~n_blocks:host_blocks ~line_exp:3 ()) with
      seed = seed land 0xffffff;
    }
  in
  let dev = Sero.Device.create cfg in
  let lay = Sero.Device.layout dev in
  let n_lines = Sero.Layout.n_lines lay in
  let archive = n_lines / 2 in
  let all = data_pbas_of lay (List.init n_lines Fun.id) in
  let wmrm =
    data_pbas_of lay (List.init (n_lines - archive) (fun i -> archive + i))
  in
  let init = Array.make host_blocks (-1) in
  Array.iter
    (fun pba ->
      let idx = Sim.Prng.int rng host_pool in
      init.(pba) <- idx;
      match Sero.Device.write_block dev ~pba pool.(idx) with
      | Ok () -> ()
      | Error _ -> failwith "host_mix set-up: write refused")
    all;
  for line = 0 to archive - 1 do
    match Sero.Device.heat_line dev ~line () with
    | Ok _ -> ()
    | Error _ -> failwith "host_mix set-up: heat failed"
  done;
  Sim.Prng.shuffle rng all;
  Sim.Prng.shuffle rng wmrm;
  {
    h_seed = seed;
    h_dev = dev;
    h_pool = pool;
    h_init = init;
    h_reads = all;
    h_writes = wmrm;
    h_zr = Workload.Zipf.create ~n:(Array.length all) ~theta:host_theta;
    h_zw = Workload.Zipf.create ~n:(Array.length wmrm) ~theta:host_theta;
    h_base = counts_of dev;
  }

type host_pending = {
  p_op : host_op;
  p_id : int;
  p_t0 : float;
  p_next : unit -> unit;
}

let host_round st v =
  let dev = Sero.Device.clone st.h_dev in
  let des = Sim.Des.create () in
  let q = Sero.Queue.create des dev in
  let server = Host.Server.create (Host.Server.Device q) in
  Host.Server.set_policy server (Host.Arbiter.Fair_share (fun _ -> 1.));
  let model = Array.copy st.h_init in
  let lat = Sim.Stats.create () in
  let issued = ref 0 and completed = ref 0 and failed = ref 0 in
  let pending : (int * int, host_pending) Hashtbl.t = Hashtbl.create 64 in
  let seqs = Array.make (host_tenants + 1) 0 in
  Host.Server.set_on_response server
    (Some
       (fun r ->
         Trace.span sp_hook (fun () ->
             let r = wire_response r in
             let key = (r.Host.Proto.r_tenant, r.Host.Proto.r_seq) in
             match Hashtbl.find_opt pending key with
             | None -> incr failed
             | Some p ->
                 Hashtbl.remove pending key;
                 Trace.req := p.p_id;
                 incr completed;
                 Sim.Stats.add lat (ms_of_s (Sim.Des.now des -. p.p_t0));
                 let ok =
                   if Host.Proto.response_failed r then false
                   else if p.p_op.o_read then
                     String.equal r.Host.Proto.r_payload
                       st.h_pool.(model.(p.p_op.o_pba))
                   else begin
                     model.(p.p_op.o_pba) <- p.p_op.o_idx;
                     true
                   end
                 in
                 if not ok then incr failed;
                 Sim.Des.schedule des ~delay:host_think_s (fun _ ->
                     p.p_next ()))));
  let stream tenant s =
    let g = host_gen st v tenant s in
    let rec next () =
      if !issued < host_round_ops then begin
        let id = !issued in
        incr issued;
        Trace.req := id;
        let op = host_next st g in
        let cmd =
          if op.o_read then Host.Proto.Read { pba = op.o_pba }
          else
            Host.Proto.Write { pba = op.o_pba; payload = st.h_pool.(op.o_idx) }
        in
        let seq = seqs.(tenant) in
        seqs.(tenant) <- seq + 1;
        Hashtbl.replace pending (tenant, seq)
          { p_op = op; p_id = id; p_t0 = Sim.Des.now des; p_next = next };
        let f = wire_frame { Host.Proto.tenant; seq; cmd } in
        Trace.span sp_submit (fun () -> Host.Server.submit_frame server f);
        Trace.req := -1
      end
    in
    next
  in
  for tenant = 1 to host_tenants do
    for s = 0 to host_streams - 1 do
      stream tenant s ()
    done
  done;
  let events = pump des in
  let failed = !failed + (!issued - !completed) in
  let ops = !issued in
  let work = sub_counts (counts_of dev) st.h_base in
  {
    ops;
    failed;
    lat_ms = lat;
    sim_ops = ops;
    sim_s = Sim.Des.now des;
    work;
    layer =
      (("sim.des.events", float events /. float ops) :: queue_layer q ~ops)
      @ slo_layer server;
  }

(* Peeled replay of variant 0: the same streams straight into a queue
   (no host, no wire), then the same op sequence straight into the
   device, each on a fresh CoW clone of the set-up device. *)
let host_peel st () =
  let dev = Sero.Device.clone st.h_dev in
  let des = Sim.Des.create () in
  let q = Sero.Queue.create des dev in
  Host.Arbiter.install q (Host.Arbiter.Fair_share (fun _ -> 1.));
  let issued = ref 0 in
  let log =
    Array.make host_round_ops { o_read = true; o_pba = 0; o_idx = 0 }
  in
  let t0 = now_ns () in
  let stream tenant s =
    let g = host_gen st 0 tenant s in
    let rec next () =
      if !issued < host_round_ops then begin
        let op = host_next st g in
        log.(!issued) <- op;
        incr issued;
        let again _ =
          Sim.Des.schedule des ~delay:host_think_s (fun _ -> next ())
        in
        if op.o_read then Sero.Queue.submit_read q ~tenant ~pba:op.o_pba again
        else
          Sero.Queue.submit_write q ~tenant ~pba:op.o_pba st.h_pool.(op.o_idx)
            again
      end
    in
    next
  in
  for tenant = 1 to host_tenants do
    for s = 0 to host_streams - 1 do
      stream tenant s ()
    done
  done;
  Sim.Des.run des;
  let queue_ns = now_ns () - t0 in
  let dev = Sero.Device.clone st.h_dev in
  let read_ns = ref 0 and reads = ref 0 in
  let write_ns = ref 0 and writes = ref 0 in
  Array.iter
    (fun op ->
      let t = now_ns () in
      if op.o_read then begin
        ignore (Sero.Device.read_block dev ~pba:op.o_pba);
        read_ns := !read_ns + (now_ns () - t);
        incr reads
      end
      else begin
        ignore
          (Sero.Device.write_block dev ~pba:op.o_pba st.h_pool.(op.o_idx));
        write_ns := !write_ns + (now_ns () - t);
        incr writes
      end)
    log;
  let n = float host_round_ops in
  let device_ns = !read_ns + !write_ns in
  [
    ("sero.queue.self_ns", float (queue_ns - device_ns) /. n);
    ("sero.device.read_ns", float !read_ns /. float (max 1 !reads));
    ("sero.device.write_ns", float !write_ns /. float (max 1 !writes));
    ("peel.queue_device_ns", float queue_ns);
  ]

let host_mix ~seed =
  let st = host_setup ~seed in
  { variants = host_variants; round = host_round st; peel = host_peel st }

(* {1 audit_sweep — the paper's audit}

   Every line of an 8192-block device filled and heated, ~2 % tampered
   with raw writes.  Four closed-loop auditor streams submit Audit_line
   frames (background class through the queue); variant k audits the
   k-th quarter of a seeded pass order, so the reference is one pass
   over every line.  TAMPERED must come back on exactly the planted
   lines. *)

let audit_blocks = 8192
let audit_streams = 4
let audit_think_mean_s = 0.0002
let audit_tamper_frac = 0.02
let audit_tenant = 9
let audit_variants = 4

type audit_state = {
  a_seed : int;
  a_dev : Sero.Device.t;
  a_order : int array;  (* pass order over lines *)
  a_tampered : bool array;
  a_payload : int -> string;  (* what set-up wrote at a pba *)
  a_lines : int;
}

let audit_setup ~seed =
  let rng = Sim.Prng.create seed in
  let pool = payload_pool rng 256 in
  let cfg =
    {
      (Sero.Device.default_config ~n_blocks:audit_blocks ~line_exp:3 ()) with
      seed = seed land 0xffffff;
    }
  in
  let dev = Sero.Device.create cfg in
  let lay = Sero.Device.layout dev in
  let n_lines = Sero.Layout.n_lines lay in
  let salt = Sim.Prng.int rng 256 in
  let payload pba = pool.((pba + salt) land 255) in
  for line = 0 to n_lines - 1 do
    Sero.Layout.iter_data_blocks lay line (fun pba ->
        match Sero.Device.write_block dev ~pba (payload pba) with
        | Ok () -> ()
        | Error _ -> failwith "audit_sweep set-up: write refused");
    match Sero.Device.heat_line dev ~line () with
    | Ok _ -> ()
    | Error _ -> failwith "audit_sweep set-up: heat failed"
  done;
  let tampered =
    Array.init n_lines (fun _ -> Sim.Prng.bernoulli rng audit_tamper_frac)
  in
  if not (Array.exists Fun.id tampered) then
    tampered.(Sim.Prng.int rng n_lines) <- true;
  Array.iteri
    (fun line t ->
      if t then begin
        let pbas = Array.of_list (Sero.Layout.data_blocks_of_line lay line) in
        let pba = pbas.(Sim.Prng.int rng (Array.length pbas)) in
        Sero.Device.unsafe_write_block dev ~pba (payload (pba + 1))
      end)
    tampered;
  let order = Array.init n_lines Fun.id in
  Sim.Prng.shuffle rng order;
  {
    a_seed = seed;
    a_dev = dev;
    a_order = order;
    a_tampered = tampered;
    a_payload = payload;
    a_lines = n_lines;
  }

let audit_round st v =
  let per = st.a_lines / audit_variants in
  let base = counts_of st.a_dev in
  let des = Sim.Des.create () in
  let q = Sero.Queue.create des st.a_dev in
  let server = Host.Server.create (Host.Server.Device q) in
  Host.Server.set_policy server (Host.Arbiter.Fair_share (fun _ -> 1.));
  let lat = Sim.Stats.create () in
  let completed = ref 0 and failed = ref 0 and issued = ref 0 in
  let pending : (int, int * float * (unit -> unit)) Hashtbl.t =
    Hashtbl.create 16
  in
  Host.Server.set_on_response server
    (Some
       (fun r ->
         Trace.span sp_hook (fun () ->
             let r = wire_response r in
             match Hashtbl.find_opt pending r.Host.Proto.r_seq with
             | None -> incr failed
             | Some (line, t0, next) ->
                 Hashtbl.remove pending r.Host.Proto.r_seq;
                 Trace.req := line;
                 incr completed;
                 Sim.Stats.add lat (ms_of_s (Sim.Des.now des -. t0));
                 let want =
                   if st.a_tampered.(line) then Host.Proto.st_tampered
                   else Host.Proto.st_ok
                 in
                 if r.Host.Proto.r_phases <> [ Host.Proto.st_ok; want ] then
                   incr failed;
                 next ())));
  let seq = ref 0 in
  let stream k =
    let rng = Sim.Prng.stream ~seed:st.a_seed ((v * audit_streams) + k) in
    let pos = ref ((v * per) + k) in
    let rec next () =
      if !pos < (v + 1) * per then begin
        let line = st.a_order.(!pos) in
        pos := !pos + audit_streams;
        let think = Sim.Prng.exponential rng audit_think_mean_s in
        Sim.Des.schedule des ~delay:think (fun _ ->
            incr issued;
            Trace.req := line;
            let s = !seq in
            incr seq;
            Hashtbl.replace pending s (line, Sim.Des.now des, next);
            let f =
              wire_frame
                {
                  Host.Proto.tenant = audit_tenant;
                  seq = s;
                  cmd = Audit_line { line };
                }
            in
            Trace.span sp_submit (fun () -> Host.Server.submit_frame server f);
            Trace.req := -1)
      end
    in
    next
  in
  for k = 0 to audit_streams - 1 do
    stream k ()
  done;
  let events = pump des in
  let ops = !issued in
  let failed = !failed + (per - !completed) in
  {
    ops;
    failed;
    lat_ms = lat;
    sim_ops = ops;
    sim_s = Sim.Des.now des;
    work = sub_counts (counts_of st.a_dev) base;
    layer =
      (("sim.des.events", float events /. float ops) :: queue_layer q ~ops)
      @ slo_layer server;
  }

(* Peeled replay on a CoW clone: verify_line and ers straight into the
   device, and SHA-256 over each line's data-sized input, per line. *)
let audit_peel st () =
  let dev = Sero.Device.clone st.a_dev in
  let lay = Sero.Device.layout dev in
  let verify_ns = ref 0 and ers_ns = ref 0 and sha_ns = ref 0 in
  let pba_buf = Bytes.create 8 in
  Array.iter
    (fun line ->
      let t = now_ns () in
      ignore (Sero.Device.verify_line dev ~line);
      let t1 = now_ns () in
      ignore (Sero.Device.read_hash_block dev ~line);
      let t2 = now_ns () in
      let ctx = Hash.Sha256.init () in
      Sero.Layout.iter_data_blocks lay line (fun pba ->
          Bytes.set_int64_be pba_buf 0 (Int64.of_int pba);
          Hash.Sha256.feed_bytes ctx pba_buf 0 8;
          Hash.Sha256.feed_string ctx (st.a_payload pba));
      ignore (Hash.Sha256.finalize ctx);
      let t3 = now_ns () in
      verify_ns := !verify_ns + (t1 - t);
      ers_ns := !ers_ns + (t2 - t1);
      sha_ns := !sha_ns + (t3 - t2))
    st.a_order;
  let n = float st.a_lines in
  [
    ("sero.device.verify_line_ns", float !verify_ns /. n);
    ("sero.device.ers_ns", float !ers_ns /. n);
    ("hash.sha256.line_ns", float !sha_ns /. n);
  ]

let audit_sweep ~seed =
  let st = audit_setup ~seed in
  { variants = audit_variants; round = audit_round st; peel = audit_peel st }

(* {1 fs_archive — the file-system path}

   Lfs.Fs on an 8192-block device with the queue and a 256-block cache
   attached.  Each cycle creates files in 4 heat groups, writes them,
   reads back recent and older files (a working set several times the
   cache), syncs, heats a quarter as retention records, overwrites or
   unlinks the rest so the cleaner runs, and verifies the heated files.
   Set-up formats a device per plan, loads [fs_preload_cycles] cycles
   of archive, then ages it through [fs_windows] windows of
   [fs_window_cycles] cycles, snapshotting (CoW clone after sync) at the
   start of each window.  Variant = (plan, window): a round mounts that
   snapshot and runs the window's cycles, stopping early if free
   segments run low.  Short rounds give the per-variant median many
   samples while the reference still covers every window. *)

let fs_blocks = 8192
let fs_cache_blocks = 256
let fs_groups = 4
let fs_files_per_group = 6
let fs_plans = 4
let fs_preload_cycles = 4
let fs_windows = 3
let fs_window_cycles = 4
let fs_min_free_segments = 10

(* Clean early, so the cleaner runs within every round. *)
let fs_policy = { Lfs.State.default_policy with cleaner_low = 24; cleaner_high = 32 }
let fs_older_reads = 12

type fs_file = {
  f_name : string;
  f_group : int;
  f_blocks : int;
  f_fate : [ `Heat | `Overwrite | `Unlink ];
}

type fs_plan = {
  fs_files : fs_file array array;  (* cycle -> files *)
  fs_contents : (string, string) Hashtbl.t;  (* name -> first version *)
  fs_rewrites : (string, string) Hashtbl.t;  (* name -> overwrite *)
  fs_older : int array array;  (* cycle -> older-file picks (indices) *)
}

let fs_make_plan ~seed =
  let rng = Sim.Prng.create seed in
  let pool = payload_pool rng 128 in
  let content blocks =
    String.concat "" (List.init blocks (fun _ -> pool.(Sim.Prng.int rng 128)))
  in
  let contents = Hashtbl.create 512 and rewrites = Hashtbl.create 512 in
  let n_cycles = fs_preload_cycles + (fs_windows * fs_window_cycles) in
  let plan =
    Array.init n_cycles (fun c ->
        let files =
          Array.init (fs_groups * fs_files_per_group) (fun i ->
              let blocks = 4 + Sim.Prng.int rng 21 in
              let name = Printf.sprintf "/c%02d_f%02d" c i in
              Hashtbl.replace contents name (content blocks);
              {
                f_name = name;
                f_group = i mod fs_groups;
                f_blocks = blocks;
                f_fate = `Unlink;
              })
        in
        (* A quarter are retention records; of the rest half are
           overwritten, half unlinked. *)
        let idx = Array.init (Array.length files) Fun.id in
        Sim.Prng.shuffle rng idx;
        let q = Array.length files / 4 in
        Array.iteri
          (fun rank i ->
            let fate =
              if rank < q then `Heat
              else if rank mod 2 = 0 then `Overwrite
              else `Unlink
            in
            if fate = `Overwrite then
              Hashtbl.replace rewrites files.(i).f_name (content files.(i).f_blocks);
            files.(i) <- { (files.(i)) with f_fate = fate })
          idx;
        files)
  in
  let older =
    Array.init n_cycles (fun _ ->
        Array.init fs_older_reads (fun _ -> Sim.Prng.int rng max_int))
  in
  { fs_files = plan; fs_contents = contents; fs_rewrites = rewrites; fs_older = older }

type fs_hooks = { before_heat : Lfs.Fs.t -> unit }

(* Cycles [first, last) of the plan on a mounted file system, through a
   fresh queue and cache; [live] holds the (name, contents) of files
   that outlived their cycle. *)
let fs_session ?(hooks = { before_heat = ignore }) st fs ~first ~last ~live =
  let dev = Lfs.Fs.device fs in
  let des = Sim.Des.create () in
  let q = Sero.Queue.create des dev in
  Lfs.Fs.attach_queue fs q;
  let cache = Sero.Bcache.create ~capacity:fs_cache_blocks q in
  Lfs.Fs.attach_cache fs cache;
  let base = counts_of dev in
  let lat = Sim.Stats.create () in
  let ops = ref 0 and failed = ref 0 and zero_lat = ref 0 in
  let user_blocks = ref 0 in
  let call sp f =
    incr ops;
    Trace.req := !ops;
    let t0 = Sim.Des.now des in
    let r = Trace.span sp f in
    let dt = Sim.Des.now des -. t0 in
    if dt > 0. then Sim.Stats.add lat (ms_of_s dt) else incr zero_lat;
    r
  in
  let check = function Ok _ -> () | Error _ -> incr failed in
  let live = ref live in
  let read_back name want =
    match call sp_fs_read (fun () -> Lfs.Fs.read_file fs name) with
    | Ok got when String.equal got want -> ()
    | _ -> incr failed
  in
  let verify name =
    match call sp_fs_verify (fun () -> Lfs.Fs.verify fs name) with
    | Ok vs ->
        if not (List.for_all (fun (_, v) -> v = Sero.Tamper.Intact) vs) then
          incr failed
    | Error _ -> incr failed
  in
  let c = ref first in
  while
    !c < last
    && Lfs.State.free_segments (Lfs.Fs.state fs) >= fs_min_free_segments
  do
    let files = st.fs_files.(!c) in
    Array.iter
      (fun f ->
        check
          (call sp_fs_create (fun () ->
               Lfs.Fs.create fs ~heat_group:f.f_group f.f_name)))
      files;
    Array.iter
      (fun f ->
        let data = Hashtbl.find st.fs_contents f.f_name in
        user_blocks := !user_blocks + f.f_blocks;
        check
          (call sp_fs_write (fun () ->
               Lfs.Fs.write_file fs f.f_name ~offset:0 data)))
      files;
    Array.iter
      (fun f -> read_back f.f_name (Hashtbl.find st.fs_contents f.f_name))
      files;
    (match !live with
    | [] -> ()
    | l ->
        let arr = Array.of_list l in
        Array.iter
          (fun k ->
            let name, want = arr.(k mod Array.length arr) in
            read_back name want)
          st.fs_older.(!c));
    call sp_fs_sync (fun () -> Lfs.Fs.sync fs);
    hooks.before_heat fs;
    Array.iter
      (fun f ->
        match f.f_fate with
        | `Heat ->
            check (call sp_fs_heat (fun () -> Lfs.Fs.heat fs f.f_name));
            live := (f.f_name, Hashtbl.find st.fs_contents f.f_name) :: !live
        | `Overwrite ->
            let data = Hashtbl.find st.fs_rewrites f.f_name in
            user_blocks := !user_blocks + f.f_blocks;
            check
              (call sp_fs_write (fun () ->
                   Lfs.Fs.write_file fs f.f_name ~offset:0 data));
            live := (f.f_name, data) :: !live
        | `Unlink ->
            check (call sp_fs_unlink (fun () -> Lfs.Fs.unlink fs f.f_name)))
      files;
    Array.iter (fun f -> if f.f_fate = `Heat then verify f.f_name) files;
    incr c
  done;
  call sp_fs_sync (fun () -> Lfs.Fs.sync fs);
  let m = (Lfs.Fs.state fs).Lfs.State.metrics in
  let bs = Sero.Bcache.stats cache in
  let ops = !ops in
  let per x = float x /. float ops in
  let lookups = bs.Sero.Bcache.hits + bs.misses in
  ( {
      ops;
      failed = !failed;
      lat_ms = lat;
      sim_ops = ops;
      sim_s = Sim.Des.now des;
      work = sub_counts (counts_of dev) base;
      layer =
        queue_layer q ~ops
        @ [
            ( "sero.bcache.hit_pct",
              if lookups = 0 then 0.
              else 100. *. float bs.hits /. float lookups );
            ("sero.bcache.read_ahead_hits", per bs.read_ahead_hits);
            ("sero.bcache.evictions", per bs.evictions);
            ("sero.bcache.flushed_spans", per bs.flushed_spans);
            ( "lfs.write_amp",
              float m.Lfs.State.fs_block_writes /. float (max 1 !user_blocks) );
            ("lfs.cleaner_copies", per m.cleaner_copies);
            ("lfs.heat_relocations", per m.heat_relocations);
            ("fs.zero_latency_ops", float !zero_lat);
            ("fs.cycles", float (!c - first));
          ];
    },
    !live )

(* One variant: the aged image a window starts from. *)
type fs_state = {
  fs_plan : fs_plan;
  fs_image : Sero.Device.t;  (* synced snapshot at the window start *)
  fs_live : (string * string) list;
  fs_first : int;  (* the window's first cycle *)
}

let fs_setup ~seed =
  let plan = fs_make_plan ~seed in
  let cfg =
    {
      (Sero.Device.default_config ~n_blocks:fs_blocks ~line_exp:3 ()) with
      seed = seed land 0xffffff;
    }
  in
  let dev = Sero.Device.create cfg in
  let fs = Lfs.Fs.format ~policy:fs_policy dev in
  let age ~first ~live =
    let r, live =
      fs_session plan fs ~first ~last:(first + fs_window_cycles) ~live
    in
    if r.failed > 0 then failwith "fs_archive set-up: ageing failed";
    live
  in
  let r, live = fs_session plan fs ~first:0 ~last:fs_preload_cycles ~live:[] in
  if r.failed > 0 then failwith "fs_archive set-up: preload failed";
  let live = ref live in
  List.init fs_windows (fun w ->
      let first = fs_preload_cycles + (w * fs_window_cycles) in
      (* fs_session ends with a sync, so the clone holds a checkpoint. *)
      let st =
        {
          fs_plan = plan;
          fs_image = Sero.Device.clone dev;
          fs_live = !live;
          fs_first = first;
        }
      in
      if w < fs_windows - 1 then live := age ~first ~live:!live;
      st)

let fs_mount st =
  let dev = Sero.Device.clone st.fs_image in
  match
    Trace.span sp_fs_mount (fun () -> Lfs.Fs.mount ~policy:fs_policy dev)
  with
  | Ok fs -> fs
  | Error e -> failwith ("fs_archive: mount failed: " ^ e)

let fs_run ?hooks st =
  let fs = fs_mount st in
  let r, _ =
    fs_session ?hooks st.fs_plan fs ~first:st.fs_first
      ~last:(st.fs_first + fs_window_cycles) ~live:st.fs_live
  in
  (r, Lfs.Fs.device fs)

(* Peeled replay: the same round untraced, with a CoW clone of the
   device taken just before each heat phase (after sync, so the medium
   holds every byte).  The lines a phase burned — heated at the next
   snapshot but not at this one — are then heated straight on the
   clone. *)
let fs_peel st () =
  let clones = ref [] in
  let before_heat fs =
    clones := Sero.Device.clone (Lfs.Fs.device fs) :: !clones
  in
  let _, dev = fs_run ~hooks:{ before_heat } st in
  let n_lines = Sero.Layout.n_lines (Sero.Device.layout dev) in
  let heated d =
    List.filter
      (fun line -> Sero.Device.is_line_heated d ~line)
      (List.init n_lines Fun.id)
  in
  (* Newest snapshot first; each phase ends at the snapshot after it.
     Work out every phase's lines before heating any clone. *)
  let rec phases after = function
    | [] -> []
    | clone :: earlier ->
        let before = heated clone in
        let lines = List.filter (fun l -> not (List.mem l before)) after in
        (clone, lines) :: phases before earlier
  in
  let heat_ns = ref 0 and heats = ref 0 in
  List.iter
    (fun (clone, lines) ->
      List.iter
        (fun line ->
          let t = now_ns () in
          let r = Sero.Device.heat_line clone ~line () in
          let dt = now_ns () - t in
          match r with
          | Ok _ ->
              heat_ns := !heat_ns + dt;
              incr heats
          | Error _ -> ())
        lines)
    (phases (heated dev) !clones);
  [ ("sero.device.heat_line_ns", float !heat_ns /. float (max 1 !heats)) ]

let fs_archive ~seed =
  let sts =
    Array.of_list
      (List.concat (List.init fs_plans (fun k -> fs_setup ~seed:(seed + k))))
  in
  {
    variants = Array.length sts;
    round = (fun k -> fst (fs_run sts.(k)));
    peel = fs_peel sts.(0);
  }

(* {1 campaign — E27 at -j1}

   Security.Campaign.run for all five attack classes against the
   reference defender, [campaign_sites] sites each; an op is one site.
   Round variant k runs the campaigns of seed + k.  Set-up is a
   single-site warm-up campaign of every attack class (the library
   builds its golden device on first use, so only the first set-up
   pays for that). *)

let campaign_sites = 2
let campaign_variants = 8

let campaign_seed seed a =
  let key = Hashtbl.hash (Security.Campaign.attack_name a) in
  Sim.Prng.int (Sim.Prng.stream ~seed key) (1 lsl 30)

let campaign_one ~seed ~sites a =
  Security.Campaign.run ~seed:(campaign_seed seed a) ~sites ~attack:a
    ~adversary:Security.Campaign.default_adversary
    ~defender:Security.Campaign.reference_defender ()

let campaign_setup ~seed =
  List.iter
    (fun a -> ignore (campaign_one ~seed:(seed - 1) ~sites:1 a))
    Security.Campaign.all_attacks

let campaign_round ~seed k =
  let seed = seed + k in
  let failed = ref 0 and ops = ref 0 in
  let results =
    List.map
      (fun a ->
        let r =
          Trace.span (List.assoc a sp_site) (fun () ->
              campaign_one ~seed ~sites:campaign_sites a)
        in
        ops := !ops + campaign_sites;
        let open Security.Campaign in
        if r.r_undetected <> 0 || r.r_detected <> r.r_landed then
          failed := !failed + campaign_sites;
        r)
      Security.Campaign.all_attacks
  in
  let lat =
    Sim.Stats.merge_many
      (List.map (fun r -> r.Security.Campaign.r_det_latency_ms) results)
  in
  let exposure_s = Sim.Stats.total lat /. 1000. in
  {
    ops = !ops;
    failed = !failed;
    lat_ms = lat;
    (* Simulated time of a campaign is its detection exposure: tampers
       detected per simulated second they stayed undetected. *)
    sim_ops = Sim.Stats.count lat;
    sim_s = exposure_s;
    work = zero_counts;
    layer = [];
  }

let campaign ~seed =
  campaign_setup ~seed;
  {
    variants = campaign_variants;
    round = campaign_round ~seed;
    peel = (fun () -> []);
  }

let workloads =
  [
    ("host_mix", host_mix);
    ("audit_sweep", audit_sweep);
    ("fs_archive", fs_archive);
    ("campaign", campaign);
  ]

(* {1 Runner} *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* {2 Machine speed}

   The vCPUs of a shared host run the same code up to twice as fast or
   slow from one second to the next, as other tenants load the physical
   cores under them; a run of tens of seconds can sit in either state.
   So every timed piece of work is bracketed by a fixed calibration
   kernel that does not touch the library — hashing, short-lived
   allocation, byte twiddling and scattered reads over a table larger
   than L2 — and its wall time is scaled by [calib_nominal_ns] over the
   kernel's mean time around it: the time the work would take on a
   machine where the kernel takes [calib_nominal_ns].  A change to the
   library moves the scaled times; the host's load mostly cancels. *)

let calib_nominal_ns = 10e6
let calib_iters = 40_000
let calib_table = Bytes.make (1 lsl 22) '\000'

let calib_kernel () =
  let h = Hashtbl.create 1024 in
  let mask = Bytes.length calib_table - 1 in
  let acc = ref 0 in
  for i = 1 to calib_iters do
    let k = (i * 0x9E3779B1) land mask in
    let b = Char.code (Bytes.unsafe_get calib_table k) in
    Bytes.unsafe_set calib_table k (Char.unsafe_chr ((b + (i lxor (i lsr 5))) land 255));
    let key = string_of_int (k land 4095) in
    (match Hashtbl.find_opt h key with
    | Some v -> acc := !acc + v + b
    | None -> Hashtbl.replace h key i);
    if i land 1023 = 0 then Hashtbl.reset h
  done;
  !acc

let calib_ns () =
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (calib_kernel ()));
  float (now_ns () - t0)

(* [f ()] and its wall time scaled to nominal machine speed. *)
let scaled_time f =
  let c0 = calib_ns () in
  let t0 = now_ns () in
  let v = f () in
  let wall = now_ns () - t0 in
  let c1 = calib_ns () in
  (v, wall, float wall *. calib_nominal_ns /. ((c0 +. c1) /. 2.))

type measured = {
  variant : int;
  m : round;
  wall_ns : int;
  scaled_ns : float;  (** [wall_ns] at nominal machine speed. *)
  minor_words : float;
  major_collections : int;
}

(* Every round starts from a collected heap, so the major collector's
   work inside a round does not depend on where the previous round left
   its cycle.  A traced round is one span, around the round alone. *)
let measure ?(traced = false) inst variant =
  Gc.full_major ();
  let (m, minor_words, major_collections), wall_ns, scaled_ns =
    scaled_time (fun () ->
        let g0 = Gc.minor_words ()
        and c0 = (Gc.quick_stat ()).Gc.major_collections in
        if traced then begin
          Trace.on := true;
          Trace.enter sp_round
        end;
        let m = inst.round variant in
        if traced then begin
          Trace.leave ();
          Trace.on := false
        end;
        let g1 = Gc.minor_words ()
        and c1 = (Gc.quick_stat ()).Gc.major_collections in
        (m, g1 -. g0, c1 - c0))
  in
  { variant; m; wall_ns; scaled_ns; minor_words; major_collections }

(* The reference: one round of every variant, folded together.  Its
   simulated latency, allocation and work counts are deterministic. *)
type reference = {
  r_ops : int;
  r_lat : Sim.Stats.t;
  r_sim_ops : int;
  r_sim_s : float;
  r_work : counts;
  r_minor : float;
  r_major : int;
  r_layer : (string * float) list;  (* of variant 0 *)
}

let fold_reference = function
  | [] -> invalid_arg "fold_reference"
  | first :: _ as ms ->
      let sum f = List.fold_left (fun a r -> a + f r) 0 ms in
      {
        r_ops = sum (fun r -> r.m.ops);
        r_lat = Sim.Stats.merge_many (List.map (fun r -> r.m.lat_ms) ms);
        r_sim_ops = sum (fun r -> r.m.sim_ops);
        r_sim_s = List.fold_left (fun a r -> a +. r.m.sim_s) 0. ms;
        r_work = List.fold_left (fun a r -> add_counts a r.m.work) zero_counts ms;
        r_minor = List.fold_left (fun a r -> a +. r.minor_words) 0. ms;
        r_major = sum (fun r -> r.major_collections);
        r_layer = first.m.layer;
      }

(* Throughput: per variant the median of its rounds' times, then all
   variants' ops over the sum of those medians.  Every round of a
   variant is the same work; [time] is a round's scaled time for
   ops_per_s, or its raw wall time for the report. *)
let variant_walls ?(time = fun r -> r.scaled_ns) rounds =
  let by_variant = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let ops, ws =
        Option.value (Hashtbl.find_opt by_variant r.variant) ~default:(r.m.ops, [])
      in
      Hashtbl.replace by_variant r.variant (ops, time r :: ws))
    rounds;
  List.sort compare
    (Hashtbl.fold (fun k (ops, ws) acc -> (k, (ops, median ws)) :: acc) by_variant [])

let throughput walls =
  let ops = List.fold_left (fun a (_, (o, _)) -> a + o) 0 walls in
  let ns = List.fold_left (fun a (_, (_, w)) -> a +. w) 0. walls in
  float ops /. (ns /. 1e9)

(* Workload seeds are mixed so neighbouring --seed values share
   nothing. *)
let workload_seed args =
  Sim.Prng.int (Sim.Prng.stream ~seed:0x5E60 args.seed) (1 lsl 40)

let prepare args make =
  let seed = workload_seed args in
  let times = ref [] and inst = ref None in
  for _ = 1 to setup_reps do
    inst := None;
    Gc.full_major ();
    let i, _, scaled = scaled_time (fun () -> make ~seed) in
    times := (scaled /. 1e9) :: !times;
    inst := Some i
  done;
  let inst = Option.get !inst in
  let rounds = List.init inst.variants (measure inst) in
  (median !times, inst, rounds)

let lat_quantiles r =
  if Sim.Stats.count r.r_lat = 0 then (0., 0.)
  else
    let p50, _, p99 = Sim.Stats.quantiles r.r_lat in
    (p50, p99)

let alloc_per_op r = r.r_minor /. float (max 1 r.r_ops)
let sim_ops_per_s r = float r.r_sim_ops /. r.r_sim_s

(* The deterministic face of the reference, printed exactly. *)
let digest_of r =
  let p50, p99 = lat_quantiles r in
  let w = r.r_work in
  Printf.sprintf
    "p50=%h p99=%h n=%d simops=%h alloc=%h ops=%d reads=%d writes=%d heats=%d \
     verifies=%d retries=%d copied=%d mrb=%d mwb=%d ewb=%d erb=%d prim=%d"
    p50 p99 (Sim.Stats.count r.r_lat) (sim_ops_per_s r) (alloc_per_op r)
    r.r_ops w.reads w.writes w.heats w.verifies w.retries w.copied w.mrb w.mwb
    w.ewb w.erb w.prim

let child_digest args seed =
  let argv =
    [|
      Sys.executable_name;
      "--workload";
      args.workload;
      "--seed";
      string_of_int seed;
      "--digest-only";
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
      match !lines with
      | l :: _ when String.length l > 7 && String.sub l 0 7 = "digest " ->
          Some (String.sub l 7 (String.length l - 7))
      | _ -> None)
  | _ -> None

let fingerprint () =
  let jobs = Option.value (Sys.getenv_opt "SERO_JOBS") ~default:"unset" in
  let sched =
    match Sim.Des.default_sched () with
    | Sim.Des.Binary_heap -> "heap"
    | Sim.Des.Timing_wheel -> "wheel"
  in
  let s =
    Printf.sprintf "nproc=%d ocaml=%s flambda=%s sero_jobs=%s des=%s"
      (Domain.recommended_domain_count ())
      Build_info.ocaml_version Build_info.flambda jobs sched
  in
  (s, Digest.to_hex (Digest.string s))

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v)
             unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let run args make =
  let setup_s, inst, ref_rounds = prepare args make in
  let reference = fold_reference ref_rounds in
  (* Peak major heap through set-up and the reference: later rounds only
     repeat that work. *)
  let top_heap_mb =
    float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  if args.digest_only then begin
    Printf.printf "digest %s\n%!" (digest_of reference);
    exit 0
  end;
  let fp, fp_id = fingerprint () in
  Printf.printf "fingerprint %s id=%s\n" fp fp_id;
  Printf.printf
    "note: wall-clock metrics compare only between runs with fingerprint id=%s\n"
    fp_id;
  let budget_ns = int_of_float (args.seconds *. 1e9) in
  let t_start =
    now_ns () - List.fold_left (fun a r -> a + r.wall_ns) 0 ref_rounds
  in
  let min_rounds = max 3 inst.variants in
  (* With --trace 1, untraced and traced rounds of the same variant
     alternate, so drift in machine speed cancels out of the overhead. *)
  let untraced = ref (List.rev ref_rounds) and traced = ref [] and i = ref 0 in
  let enough () =
    List.length !untraced >= min_rounds
    && ((not args.trace) || List.length !traced >= 3)
  in
  while now_ns () < t_start + budget_ns || not (enough ()) do
    let trace_this = args.trace && !i mod 2 = 1 in
    let v = (if args.trace then !i / 2 else !i) mod inst.variants in
    incr i;
    if trace_this then traced := measure ~traced:true inst v :: !traced
    else untraced := measure inst v :: !untraced
  done;
  let untraced = !untraced and traced = !traced in
  let all = untraced @ traced in
  let attempted = List.fold_left (fun a r -> a + r.m.ops) 0 all in
  let failed = List.fold_left (fun a r -> a + r.m.failed) 0 all in
  let walls = variant_walls untraced in
  let ops_per_s = throughput walls in
  List.iter
    (fun v ->
      let of_variant f =
        List.filter_map
          (fun r -> if r.variant = v then Some (f r /. 1e6) else None)
          untraced
        |> List.sort compare
      in
      let ws = of_variant (fun r -> float r.wall_ns) in
      Printf.printf
        "variant %d: %d rounds, wall ms min %.2f median %.2f max %.2f, scaled \
         ms median %.2f\n"
        v (List.length ws) (List.hd ws) (median ws)
        (List.nth ws (List.length ws - 1))
        (median (of_variant (fun r -> r.scaled_ns))))
    (List.init inst.variants Fun.id);
  Printf.printf "unscaled wall throughput: %.1f ops/s\n"
    (throughput (variant_walls ~time:(fun r -> float r.wall_ns) untraced));
  let p50, p99 = lat_quantiles reference in
  Printf.printf
    "workload %s seed %d: %d rounds of %d variant(s) (%d traced), %d ops \
     attempted, %d failed, fail_pct %.4f\n"
    args.workload args.seed (List.length all) inst.variants
    (List.length traced) attempted failed
    (100. *. float failed /. float (max 1 attempted));
  Printf.printf "sim latency: p50 %.4f ms, p99 %.4f ms over %d samples\n" p50
    p99 (Sim.Stats.count reference.r_lat);
  Printf.printf "digest %s\n" (digest_of reference);
  if not args.trace then begin
    let values =
      [
        ("ops_per_s", ops_per_s);
        ("setup_s", setup_s);
        ("alloc_words_per_op", alloc_per_op reference);
        ("top_heap_mb", top_heap_mb);
        ("sim_p50_ms", p50);
        ("sim_p99_ms", p99);
        ("sim_ops_per_s", sim_ops_per_s reference);
      ]
    in
    print_result ~correct:(failed = 0) ~attempted ~failed
      (List.map (fun (n, u) -> (n, u, List.assoc n values)) end_to_end_spec)
  end
  else begin
    let traced_walls = variant_walls traced in
    let traced_ops_per_s = throughput traced_walls in
    (* Overhead over the variants both halves ran. *)
    let common = List.filter (fun (k, _) -> List.mem_assoc k traced_walls) walls in
    let overhead_pct = 100. *. (1. -. (traced_ops_per_s /. throughput common)) in
    let peeled = inst.peel () in
    (* Self time per call of each wrapped layer, over the traced rounds. *)
    let per_call id = Trace.self_per_call id in
    let round_total = List.fold_left (fun a r -> a + r.wall_ns) 0 traced in
    let covered = float (round_total - Trace.self_total sp_round) in
    let submit_step = Trace.self_total sp_submit + Trace.self_total sp_step in
    let traced_ops = List.fold_left (fun a r -> a + r.m.ops) 0 traced in
    let peeled_share =
      match List.assoc_opt "peel.queue_device_ns" peeled with
      | Some q when submit_step > 0 ->
          (* The queue replay's wall per op, against the traced submit +
             step self time per op: the share of that self time the
             queue and the device under it account for. *)
          100. *. (q /. float host_round_ops)
          /. (float submit_step /. float (max 1 traced_ops))
      | _ -> 0.
    in
    let site_ns =
      List.map
        (fun (a, id) ->
          ( "security.campaign.site_ns." ^ Security.Campaign.attack_name a,
            per_call id /. float campaign_sites ))
        sp_site
    in
    let w = reference.r_work in
    let per x = float x /. float (max 1 reference.r_ops) in
    let mine = digest_of reference in
    let det_repeat = child_digest args args.seed = Some mine in
    let det_varies =
      match child_digest args (args.seed + 1) with
      | Some d -> d <> mine
      | None -> false
    in
    let values =
      [
        ("host.proto.codec_ns", per_call sp_codec);
        ("host.server.submit_ns", per_call sp_submit);
        ("sim.des.step_ns", per_call sp_step);
        ("lfs.fs.create_ns", per_call sp_fs_create);
        ("lfs.fs.write_ns", per_call sp_fs_write);
        ("lfs.fs.read_ns", per_call sp_fs_read);
        ("lfs.fs.sync_ns", per_call sp_fs_sync);
        ("lfs.fs.heat_ns", per_call sp_fs_heat);
        ("lfs.fs.verify_ns", per_call sp_fs_verify);
        ("probe.timing.busy_s", w.busy);
        ("sero.device.reads", per w.reads);
        ("sero.device.writes", per w.writes);
        ("sero.device.heats", per w.heats);
        ("sero.device.verifies", per w.verifies);
        ("sero.device.retries", per w.retries);
        ("sero.device.bytes_copied", per w.copied);
        ("pmedia.bitops.mrb", per w.mrb);
        ("pmedia.bitops.mwb", per w.mwb);
        ("pmedia.bitops.ewb", per w.ewb);
        ("pmedia.bitops.erb", per w.erb);
        ("pmedia.bitops.primitive_ops", per w.prim);
        ("gc.minor_words", alloc_per_op reference);
        ("gc.major_collections", float reference.r_major);
        ("trace.overhead_pct", overhead_pct);
        ( "trace.cover_pct",
          if round_total = 0 then 0. else 100. *. covered /. float round_total );
        ("trace.peeled_share_pct", peeled_share);
        ("trace.ops_per_s", traced_ops_per_s);
        ("bench.det_repeat", if det_repeat then 1. else 0.);
        ("bench.det_seed_varies", if det_varies then 1. else 0.);
      ]
      @ site_ns @ reference.r_layer @ peeled
    in
    List.iter
      (fun (n, v) ->
        if not (List.exists (fun (m, _) -> m = n) per_layer_spec) then
          Printf.printf "extra %s %.6g\n" n v)
      values;
    let out_dir = ".perfbench-out" in
    (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
    let path =
      Filename.concat out_dir
        (Printf.sprintf "spans-%s-%d.tsv" args.workload args.seed)
    in
    Trace.write path;
    Printf.printf "spans: %d kept of %d recorded, written to %s\n" !Trace.kept
      (Array.fold_left ( + ) 0 Trace.calls)
      path;
    Printf.printf "determinism: same seed %s, other seed %s\n"
      (if det_repeat then "repeats" else "DIFFERS")
      (if det_varies then "differs" else "DOES NOT DIFFER");
    print_result
      ~correct:(failed = 0 && det_repeat && det_varies)
      ~attempted ~failed
      (List.map
         (fun (n, u) -> (n, u, Option.value (List.assoc_opt n values) ~default:0.))
         per_layer_spec)
  end

let () =
  let args = parse_args () in
  Sim.Pool.set_jobs 1;
  match List.assoc_opt args.workload workloads with
  | None -> usage ()
  | Some make -> (
      try run args make
      with e ->
        Printf.eprintf "serobench: %s\n%!" (Printexc.to_string e);
        exit 1)
