(* The asynchronous request pipeline: service order conforms to the
   scheduling policy, coalescing is invisible to the caller,
   [Queue.await] is bit-identical to direct device calls, foreground
   traffic strictly precedes background, and dispatch matches the
   earlier queue core kept here as an oracle. *)

let qtest = QCheck_alcotest.to_alcotest

let mk_dev () =
  Sero.Device.create (Sero.Device.default_config ~n_blocks:512 ~line_exp:3 ())

let data_pbas dev =
  let lay = Sero.Device.layout dev in
  List.init (Sero.Layout.n_lines lay) Fun.id
  |> List.concat_map (Sero.Layout.data_blocks_of_line lay)
  |> Array.of_list

let payload_of pba =
  String.init 256 (fun i -> Char.chr ((pba + (11 * i)) land 0xff))

let prefill dev =
  Array.iter
    (fun pba ->
      match Sero.Device.write_block dev ~pba (payload_of pba) with
      | Ok () -> ()
      | Error _ -> assert false)
    (data_pbas dev)

let mk_queue ?policy ?coalesce dev =
  Sero.Queue.create ?policy ?coalesce (Sim.Des.create ()) dev

let media_equal a b =
  let ma = Probe.Pdevice.medium (Sero.Device.pdevice a)
  and mb = Probe.Pdevice.medium (Sero.Device.pdevice b) in
  let n = Pmedia.Medium.size ma in
  n = Pmedia.Medium.size mb
  &&
  let rec go i =
    i >= n || (Pmedia.Medium.get ma i = Pmedia.Medium.get mb i && go (i + 1))
  in
  go 0

(* {1 Service order conforms to the policy}

   Submit a settled batch (no arrivals during service), run the clock
   out, and the offsets in completion order must equal one
   [Sched.order] call over the batch — dispatching head-by-head from
   the moving sled position reproduces the full-batch order for every
   policy. *)

let conformance_cases =
  List.map
    (fun policy ->
      let name =
        Format.asprintf "served offsets follow %a" Probe.Sched.pp_policy policy
      in
      Alcotest.test_case name `Quick (fun () ->
          let dev = mk_dev () in
          prefill dev;
          let pbas = data_pbas dev in
          let rng = Sim.Prng.create 41 in
          let picks =
            List.init 24 (fun _ -> pbas.(Sim.Prng.int rng (Array.length pbas)))
          in
          let offset_of pba =
            snd
              (Probe.Tips.locate
                 (Probe.Pdevice.tips (Sero.Device.pdevice dev))
                 (Sero.Layout.block_first_dot (Sero.Device.layout dev) pba))
          in
          (* Coalescing is off, so every sled pass completes one
             request and the callbacks fire in service order. *)
          let q = mk_queue ~policy ~coalesce:false dev in
          let served = ref [] in
          List.iter
            (fun pba ->
              Sero.Queue.submit_read q ~pba (fun r ->
                  Alcotest.(check bool) "read ok" true (Result.is_ok r);
                  served := offset_of pba :: !served))
            picks;
          Sim.Des.run (Sero.Queue.des q);
          let expected =
            Probe.Sched.order policy ~current:0 (List.map offset_of picks)
          in
          Alcotest.(check (list int)) "service order" expected
            (List.rev !served)))
    Probe.Sched.all_policies

(* {1 Priority} *)

let priority_cases =
  [
    Alcotest.test_case "foreground overtakes queued background" `Quick
      (fun () ->
        let dev = mk_dev () in
        prefill dev;
        let pbas = data_pbas dev in
        let q = mk_queue ~coalesce:false dev in
        let log = ref [] in
        (* Background submitted FIRST; the foreground request must still
           be served first — only a request already on the sled wins. *)
        Sero.Queue.submit_read q ~prio:Sero.Queue.Background ~pba:pbas.(40)
          (fun _ -> log := "bg" :: !log);
        Sero.Queue.submit_read q ~prio:Sero.Queue.Foreground ~pba:pbas.(3)
          (fun _ -> log := "fg" :: !log);
        Sim.Des.run (Sero.Queue.des q);
        Alcotest.(check (list string)) "fg first" [ "fg"; "bg" ] (List.rev !log);
        Alcotest.(check int) "one fg done" 1
          (Sero.Queue.completed q Sero.Queue.Foreground);
        Alcotest.(check int) "one bg done" 1
          (Sero.Queue.completed q Sero.Queue.Background));
    Alcotest.test_case "background fills idle time only" `Quick (fun () ->
        let dev = mk_dev () in
        prefill dev;
        let pbas = data_pbas dev in
        let q = mk_queue dev in
        let order = ref [] in
        for i = 0 to 5 do
          Sero.Queue.submit_read q ~prio:Sero.Queue.Foreground ~pba:pbas.(i)
            (fun _ -> order := `Fg :: !order)
        done;
        Sero.Queue.submit_read q ~prio:Sero.Queue.Background ~pba:pbas.(60)
          (fun _ -> order := `Bg :: !order);
        Sim.Des.run (Sero.Queue.des q);
        (* All six foreground completions precede the background one. *)
        Alcotest.(check bool) "bg last" true (List.hd !order = `Bg);
        Alcotest.(check int) "all fg before" 6
          (List.length (List.filter (( = ) `Fg) (List.tl !order))));
  ]

(* {1 Coalescing} *)

let coalescing_cases =
  [
    Alcotest.test_case "bulk spans are invisible to the caller" `Quick
      (fun () ->
        (* Same consecutive-read batch through a coalescing queue and a
           scalar one on twin devices: same results, same device
           counters and ledger; only the span counter differs. *)
        let run coalesce =
          let dev = mk_dev () in
          prefill dev;
          let pbas = data_pbas dev in
          let q = mk_queue ~coalesce dev in
          let results = ref [] in
          (* Two runs of consecutive PBAs (a line's data blocks are
             consecutive) plus a stray, submitted interleaved. *)
          let batch =
            [ pbas.(8); pbas.(9); pbas.(10); pbas.(11); pbas.(200);
              pbas.(12); pbas.(13) ]
          in
          List.iter
            (fun pba ->
              Sero.Queue.submit_read q ~pba (fun r ->
                  results := (pba, r) :: !results))
            batch;
          Sim.Des.run (Sero.Queue.des q);
          (dev, q, List.rev !results)
        in
        let dev_c, q_c, res_c = run true in
        let dev_s, q_s, res_s = run false in
        Alcotest.(check bool) "spans formed" true
          (Sero.Queue.coalesced_requests q_c > 0);
        Alcotest.(check int) "scalar path never coalesces" 0
          (Sero.Queue.coalesced_requests q_s);
        List.iter2
          (fun (pba, r) (pba', r') ->
            Alcotest.(check int) "same pba" pba pba';
            match (r, r') with
            | Ok a, Ok b ->
                Alcotest.(check string) "same payload" a b;
                (* The device pads the payload out to the sector size. *)
                Alcotest.(check string) "honest payload" (payload_of pba)
                  (String.sub a 0 (String.length (payload_of pba)))
            | _ -> Alcotest.fail "read failed")
          res_c res_s;
        Alcotest.(check bool) "same device stats" true
          (Sero.Device.stats dev_c = Sero.Device.stats dev_s);
        Alcotest.(check bool) "same media" true (media_equal dev_c dev_s));
    Alcotest.test_case "span respects max_span" `Quick (fun () ->
        let dev = mk_dev () in
        prefill dev;
        let q = Sero.Queue.create ~coalesce:true (Sim.Des.create ()) dev in
        for pba = 1 to 17 do
          Sero.Queue.submit_read q ~pba (fun _ -> ())
        done;
        Sim.Des.run (Sero.Queue.des q);
        (* Seventeen consecutive reads, spans of at most 8: blocks 1-8
           and 9-16 each absorb seven, block 17 rides alone. *)
        Alcotest.(check int) "fourteen absorptions" 14
          (Sero.Queue.coalesced_requests q));
  ]

(* {1 Queue.await = direct device}

   Random op soup (reads, writes, heats — including ones the device
   refuses) applied through {!Sero.Queue.await} on one device and
   directly on a twin: every result, both media and the whole stats
   record must match. *)

let facade_equiv =
  QCheck.Test.make ~name:"sync facade is bit-identical to Device calls"
    ~count:30
    QCheck.(small_list (pair (int_range 0 2) (int_range 0 1000)))
    (fun ops ->
      let dev_q = mk_dev () and dev_d = mk_dev () in
      prefill dev_q;
      prefill dev_d;
      let pbas = data_pbas dev_q in
      let n_lines = Sero.Layout.n_lines (Sero.Device.layout dev_q) in
      let q = mk_queue dev_q in
      let same =
        List.for_all
          (fun (what, n) ->
            match what with
            | 0 ->
                let pba = pbas.(n mod Array.length pbas) in
                Sero.Queue.await q (fun k -> Sero.Queue.submit_read q ~pba k)
                = Sero.Device.read_block dev_d ~pba
            | 1 ->
                let pba = pbas.(n mod Array.length pbas) in
                let payload = payload_of (n * 3) in
                Sero.Queue.await q (fun k ->
                    Sero.Queue.submit_write q ~pba payload k)
                = Sero.Device.write_block dev_d ~pba payload
            | _ ->
                let line = n mod n_lines in
                Sero.Queue.await q (fun k ->
                    Sero.Queue.submit_heat_line q ~line ~timestamp:1. k)
                = Sero.Device.heat_line dev_d ~line ~timestamp:1. ())
          ops
      in
      same
      && Sero.Device.stats dev_q = Sero.Device.stats dev_d
      && media_equal dev_q dev_d)

(* {1 Background scrubbing through the queue} *)

let scrub_cases =
  [
    Alcotest.test_case "scheduled scrub sweeps lines as bg traffic" `Quick
      (fun () ->
        let dev = mk_dev () in
        prefill dev;
        let pbas = data_pbas dev in
        let q = mk_queue dev in
        let des = Sero.Queue.des q in
        let done_fg = ref 0 in
        (* A slow trickle of foreground reads keeps the clock moving. *)
        let rng = Sim.Prng.create 17 in
        let rec spawn () =
          if !done_fg < 40 then
            Sero.Queue.submit_read q
              ~pba:pbas.(Sim.Prng.int rng (Array.length pbas))
              (fun _ ->
                incr done_fg;
                Sim.Des.schedule des ~delay:0.01 (fun _ -> spawn ()))
        in
        spawn ();
        let prog =
          Sero.Queue.schedule_scrub q ~period:0.02 ~stop:(fun () ->
              !done_fg >= 40)
        in
        Sim.Des.run des;
        let report = Sero.Scrub.report_of_progress prog in
        Alcotest.(check bool) "lines swept" true
          (report.Sero.Scrub.lines_swept > 0);
        Alcotest.(check int) "sweeps completed as background"
          report.Sero.Scrub.lines_swept
          (Sero.Queue.completed q Sero.Queue.Background);
        Alcotest.(check int) "all foreground done" 40 !done_fg);
  ]

(* {1 The LFS rides the queue transparently} *)

let fs_cases =
  [
    Alcotest.test_case "fs over the queue equals fs over the device" `Quick
      (fun () ->
        let story fs =
          let w path data =
            (match Lfs.Fs.create fs ~heat_group:0 path with
            | Ok () -> ()
            | Error e -> Alcotest.fail e);
            match Lfs.Fs.write_file fs path ~offset:0 data with
            | Ok () -> ()
            | Error e -> Alcotest.fail e
          in
          w "/ledger" (String.concat "," (List.init 300 string_of_int));
          w "/audit" "tamper-evident";
          (match Lfs.Fs.heat fs "/ledger" with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e);
          Lfs.Fs.sync fs;
          match (Lfs.Fs.read_file fs "/ledger", Lfs.Fs.read_file fs "/audit") with
          | Ok a, Ok b -> (a, b)
          | _ -> Alcotest.fail "read back failed"
        in
        let dev_q = mk_dev () and dev_d = mk_dev () in
        let fs_q = Lfs.Fs.format dev_q and fs_d = Lfs.Fs.format dev_d in
        let q = mk_queue dev_q in
        Lfs.Fs.attach_queue fs_q q;
        let out_q = story fs_q and out_d = story fs_d in
        Sero.Queue.drain q;
        Alcotest.(check (pair string string)) "same file contents" out_d out_q;
        Alcotest.(check bool) "same media" true (media_equal dev_q dev_d);
        Alcotest.(check bool) "same stats" true
          (Sero.Device.stats dev_q = Sero.Device.stats dev_d);
        Alcotest.(check bool) "fs traffic went through the queue" true
          (Sero.Queue.completed q Sero.Queue.Foreground > 0));
    Alcotest.test_case "attach_queue rejects a foreign device" `Quick
      (fun () ->
        let dev_a = mk_dev () and dev_b = mk_dev () in
        let fs = Lfs.Fs.format dev_a in
        let q = mk_queue dev_b in
        Alcotest.check_raises "foreign queue"
          (Lfs.State.Fs_error "attach_queue: queue serves a different device")
          (fun () -> Lfs.Fs.attach_queue fs q));
  ]

(* {1 Measurement sanity} *)

let measurement_cases =
  [
    Alcotest.test_case "latency >= wait, clock advances, energy flows" `Quick
      (fun () ->
        let dev = mk_dev () in
        prefill dev;
        let pbas = data_pbas dev in
        let q = mk_queue dev in
        for i = 0 to 15 do
          Sero.Queue.submit_read q ~pba:pbas.(i * 7) (fun _ -> ())
        done;
        Sim.Des.run (Sero.Queue.des q);
        let fg = Sero.Queue.Foreground in
        Alcotest.(check int) "all done" 16 (Sero.Queue.completed q fg);
        Alcotest.(check bool) "clock advanced" true
          (Sero.Queue.last_completion q fg > 0.);
        Alcotest.(check bool) "latency dominates wait" true
          (Sim.Stats.mean (Sero.Queue.latency q fg)
          >= Sim.Stats.mean (Sero.Queue.wait q fg));
        Alcotest.(check bool) "service time measured" true
          (Sim.Stats.mean (Sero.Queue.service q) > 0.);
        Alcotest.(check bool) "energy attributed" true
          (Sero.Queue.energy_spent q fg > 0.);
        Alcotest.(check int) "depth histogram sampled every submit" 16
          (Sim.Stats.Histogram.total (Sero.Queue.depth_histogram q)));
  ]

(* {1 Tenant arbitration}

   Arbitration is one pass over the pending list: a fair-share weight
   is looked at only when two tenants contend, and choosing a tenant
   allocates little.  The load is 4 tenants x 4 closed-loop readers
   with 1 ms think time, 4,000 uniform reads in all.  A per-dispatch
   table of sorted tenant views read 648 words per read under arrival
   order and 703 under fair share; one pass reads 453 and 530 (and the
   tenant-blind queue 733, either way).  With each request carrying its
   tenant's ledger, a fair-share key costs no table lookup: 450 and
   497. *)

let closed_loop_words arbiter =
  let dev = mk_dev () in
  prefill dev;
  let pbas = data_pbas dev in
  let q = mk_queue dev in
  let des = Sero.Queue.des q in
  Sero.Queue.set_arbiter q arbiter;
  let rng = Sim.Prng.create 25 in
  let reads = 4000 and issued = ref 0 in
  let rec reader tenant =
    if !issued < reads then begin
      incr issued;
      let pba = pbas.(Sim.Prng.int rng (Array.length pbas)) in
      Sero.Queue.submit_read q ~tenant ~pba (fun _ ->
          Sim.Des.schedule des ~delay:1e-3 (fun _ -> reader tenant))
    end
  in
  let before = Gc.minor_words () in
  for tenant = 1 to 4 do
    for _ = 1 to 4 do
      reader tenant
    done
  done;
  Sim.Des.run des;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int)
    "every read completes" reads
    (Sero.Queue.completed q Sero.Queue.Foreground);
  words /. float_of_int reads

let arbiter_cases =
  [
    Alcotest.test_case "fair-share weights are read only under contention"
      `Quick (fun () ->
        let dev = mk_dev () in
        prefill dev;
        let pbas = data_pbas dev in
        let q = mk_queue dev in
        let des = Sero.Queue.des q in
        Sero.Queue.set_arbiter q
          (Sero.Queue.Fair_share (fun tid -> if tid = 2 then 0. else 1.));
        for i = 0 to 5 do
          Sero.Queue.submit_read q ~tenant:2 ~pba:pbas.(i * 7) (fun _ -> ())
        done;
        Sim.Des.run des;
        Alcotest.(check int) "tenant 2 alone is served" 6
          (Sero.Queue.tenant_completed q 2);
        Sero.Queue.submit_read q ~tenant:1 ~pba:pbas.(50) (fun _ -> ());
        Sero.Queue.submit_read q ~tenant:2 ~pba:pbas.(60) (fun _ -> ());
        match Sim.Des.run des with
        | () -> Alcotest.fail "a zero weight under contention was accepted"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "choosing a tenant allocates little" `Quick (fun () ->
        List.iter
          (fun (arbiter, name, bound) ->
            let w = closed_loop_words arbiter in
            Alcotest.(check bool)
              (Printf.sprintf "%s: %.0f words per read < %.0f" name w bound)
              true (w < bound))
          [
            (Sero.Queue.Arrival_order, "arrival order", 550.);
            (Sero.Queue.Fair_share (fun _ -> 1.), "fair share", 510.);
          ]);
  ]

(* {1 The earlier dispatch, kept as the oracle}

   [Queue_oracle] is the queue core as it stood before dispatch had one
   removal rule: a pending list per priority chosen by matching on the
   class, the head removed by a fold that keeps the rest in order, and
   each coalesced read found and filtered out by a chain of its own.
   Its tenant arbiter is a closure over one view per backlogged tenant,
   rebuilt in a table and sorted by tenant id at every dispatch, with
   the two rules that used to be [Host.Arbiter]'s.  Only its
   identifiers differ from that code.  The qcheck below races it
   against [Sero.Queue] on twin devices. *)

module Queue_oracle = struct
  type prio = Sero.Queue.prio = Foreground | Background

  type kind =
    | KRead of {
        pba : int;
        k : (string, Sero.Device.read_error) result -> unit;
      }
    | KOther of { exec : unit -> unit -> unit }

  type req = {
    kind : kind;
    rprio : prio;
    tenant : int;
    offset : int;
    submitted : float;
    mutable attempts : int;
  }

  type outcome = Done of (unit -> unit) | Retryable of (unit -> unit)

  (* A backlogged tenant as the arbiter saw it. *)
  type view = {
    av_tenant : int;
    av_oldest : float; (* submit time of its oldest pending request *)
  }

  type ledger = {
    latency : Sim.Stats.t;
    wait : Sim.Stats.t;
    mutable energy : float;
    mutable completed : int;
    mutable last_completion : float;
  }

  type tenant_stats = {
    mutable t_completed : int;
    mutable t_service : float;
    mutable t_energy : float;
  }

  type t = {
    des : Sim.Des.t;
    dev : Sero.Device.t;
    policy : Probe.Sched.policy;
    coalesce : bool;
    read_retry_limit : int;
    retry_backoff : float;
    mutable waiting_fg : req list; (* newest first *)
    mutable waiting_bg : req list; (* newest first *)
    mutable busy : bool;
    mutable dispatch_armed : bool;
    mutable current_offset : int;
    fg : ledger;
    bg : ledger;
    mutable arbiter : (view list -> int) option;
    by_tenant : (int, tenant_stats) Hashtbl.t;
    service : Sim.Stats.t;
    depth_hist : Sim.Stats.Histogram.h;
    mutable coalesced : int;
    mutable retry_pending : int;
    mutable retried_reads : int;
    mutable abandoned_reads : int;
  }

  let ledger_create () =
    {
      latency = Sim.Stats.create ();
      wait = Sim.Stats.create ();
      energy = 0.;
      completed = 0;
      last_completion = 0.;
    }

  let max_span = 8

  let create ~policy ~coalesce ~read_retry_limit des dev =
    {
      des;
      dev;
      policy;
      coalesce;
      read_retry_limit;
      retry_backoff = 1e-4;
      waiting_fg = [];
      waiting_bg = [];
      busy = false;
      dispatch_armed = false;
      current_offset = 0;
      fg = ledger_create ();
      bg = ledger_create ();
      arbiter = None;
      by_tenant = Hashtbl.create 8;
      service = Sim.Stats.create ();
      depth_hist = Sim.Stats.Histogram.create ~lo:0. ~hi:64. ~bins:16;
      coalesced = 0;
      retry_pending = 0;
      retried_reads = 0;
      abandoned_reads = 0;
    }

  let ledger_of t = function Foreground -> t.fg | Background -> t.bg
  let set_arbiter t a = t.arbiter <- a

  let tenant_ledger t tenant =
    match Hashtbl.find_opt t.by_tenant tenant with
    | Some ts -> ts
    | None ->
        let ts = { t_completed = 0; t_service = 0.; t_energy = 0. } in
        Hashtbl.add t.by_tenant tenant ts;
        ts

  let tenants t =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.by_tenant [])

  let tenant_completed t tenant =
    match Hashtbl.find_opt t.by_tenant tenant with
    | Some ts -> ts.t_completed
    | None -> 0

  let tenant_service t tenant =
    match Hashtbl.find_opt t.by_tenant tenant with
    | Some ts -> ts.t_service
    | None -> 0.

  let tenant_energy t tenant =
    match Hashtbl.find_opt t.by_tenant tenant with
    | Some ts -> ts.t_energy
    | None -> 0.

  let pending t = List.length t.waiting_fg + List.length t.waiting_bg

  let offset_of_pba t pba =
    snd
      (Probe.Tips.locate
         (Probe.Pdevice.tips (Sero.Device.pdevice t.dev))
         (Sero.Layout.block_first_dot (Sero.Device.layout t.dev) pba))

  let offset_of_line t line =
    offset_of_pba t
      (Sero.Layout.hash_block_of_line (Sero.Device.layout t.dev) line)

  (* The head's removal: walk oldest-first, take the first request at
     [off] (of [tenant], when given), keep the rest. *)
  let take_first_at ?tenant t prio off =
    let pend =
      match prio with Foreground -> t.waiting_fg | Background -> t.waiting_bg
    in
    let wanted r =
      r.offset = off
      && match tenant with None -> true | Some tid -> r.tenant = tid
    in
    let taken = ref None in
    let rest =
      List.fold_left
        (fun acc r ->
          if !taken = None && wanted r then begin
            taken := Some r;
            acc
          end
          else r :: acc)
        [] (List.rev pend)
    in
    match !taken with
    | None -> None
    | Some r ->
        (match prio with
        | Foreground -> t.waiting_fg <- rest
        | Background -> t.waiting_bg <- rest);
        Some r

  let views_of pend =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun r ->
        match Hashtbl.find_opt tbl r.tenant with
        | None ->
            Hashtbl.add tbl r.tenant
              { av_tenant = r.tenant; av_oldest = r.submitted }
        | Some v ->
            Hashtbl.replace tbl r.tenant
              { v with av_oldest = min v.av_oldest r.submitted })
      pend;
    List.sort
      (fun a b -> compare a.av_tenant b.av_tenant)
      (Hashtbl.fold (fun _ v acc -> v :: acc) tbl [])

  (* The tenant holding the oldest pending request. *)
  let arrival_order views =
    match views with
    | [] -> invalid_arg "arrival_order: no views"
    | v :: vs ->
        let best =
          List.fold_left
            (fun best v -> if v.av_oldest < best.av_oldest then v else best)
            v vs
        in
        best.av_tenant

  (* The tenant with the least service over its weight. *)
  let fair_share t ~weight views =
    match views with
    | [] -> invalid_arg "fair_share: no views"
    | v :: vs ->
        let score v =
          let w = weight v.av_tenant in
          if w <= 0. then invalid_arg "fair_share: weight <= 0";
          tenant_service t v.av_tenant /. w
        in
        let best =
          List.fold_left
            (fun (bs, bv) v ->
              let s = score v in
              if s < bs then (s, v) else (bs, bv))
            (score v, v) vs
        in
        (snd best).av_tenant

  let rec serve_group t group =
    let pd = Sero.Device.pdevice t.dev in
    let t0 = Probe.Pdevice.elapsed pd and e0 = Probe.Pdevice.energy pd in
    let read_outcome k r =
      match r with
      | Ok _ -> Done (fun () -> k r)
      | Error _ -> Retryable (fun () -> k r)
    in
    let outcomes =
      match group with
      | [ { kind = KOther { exec }; _ } ] -> [ Done (exec ()) ]
      | [ { kind = KRead { pba; k }; _ } ] ->
          [ read_outcome k (Sero.Device.read_block t.dev ~pba) ]
      | { kind = KRead { pba = first; _ }; _ } :: _ ->
          let results =
            Sero.Device.read_blocks t.dev ~pba:first ~n:(List.length group)
          in
          List.mapi
            (fun i r ->
              match r.kind with
              | KRead { k; _ } -> read_outcome k results.(i)
              | KOther _ -> assert false)
            group
      | _ -> assert false
    in
    let dt = Probe.Pdevice.elapsed pd -. t0
    and de = Probe.Pdevice.energy pd -. e0 in
    Sim.Stats.add t.service dt;
    (let ts = tenant_ledger t (List.hd group).tenant in
     ts.t_service <- ts.t_service +. dt;
     ts.t_energy <- ts.t_energy +. de);
    t.coalesced <- t.coalesced + List.length group - 1;
    List.iter (fun r -> t.current_offset <- r.offset) group;
    let started = Sim.Des.now t.des in
    Sim.Des.schedule t.des ~delay:dt (fun des ->
        let now = Sim.Des.now des in
        let complete r fire =
          let cs = ledger_of t r.rprio in
          Sim.Stats.add cs.latency (now -. r.submitted);
          Sim.Stats.add cs.wait (started -. r.submitted);
          cs.energy <- cs.energy +. (de /. float_of_int (List.length group));
          cs.completed <- cs.completed + 1;
          cs.last_completion <- now;
          (tenant_ledger t r.tenant).t_completed <-
            (tenant_ledger t r.tenant).t_completed + 1;
          fire ()
        in
        List.iter2
          (fun r outcome ->
            match outcome with
            | Done fire -> complete r fire
            | Retryable fire ->
                if r.attempts < t.read_retry_limit then begin
                  r.attempts <- r.attempts + 1;
                  t.retried_reads <- t.retried_reads + 1;
                  let delay =
                    t.retry_backoff *. (2. ** float_of_int (r.attempts - 1))
                  in
                  t.retry_pending <- t.retry_pending + 1;
                  Sim.Des.schedule des ~delay (fun _ ->
                      t.retry_pending <- t.retry_pending - 1;
                      enqueue t r)
                end
                else begin
                  t.abandoned_reads <-
                    t.abandoned_reads
                    + if t.read_retry_limit > 0 then 1 else 0;
                  complete r fire
                end)
          group outcomes;
        t.busy <- false;
        arm_dispatch t)

  and dispatch t =
    if t.busy then ()
    else
      let prio =
        if t.waiting_fg <> [] then Some Foreground
        else if t.waiting_bg <> [] then Some Background
        else None
      in
      match prio with
      | None -> ()
      | Some prio ->
          let pend =
            match prio with
            | Foreground -> t.waiting_fg
            | Background -> t.waiting_bg
          in
          let tenant_filter =
            match t.arbiter with
            | None -> None
            | Some choose -> (
                match views_of pend with
                | [] -> None
                | [ v ] -> Some v.av_tenant
                | vs ->
                    let pick = choose vs in
                    if List.exists (fun v -> v.av_tenant = pick) vs then
                      Some pick
                    else Some (List.hd vs).av_tenant)
          in
          let eligible =
            match tenant_filter with
            | None -> pend
            | Some tid -> List.filter (fun r -> r.tenant = tid) pend
          in
          let offsets = List.rev_map (fun r -> r.offset) eligible in
          let ordered =
            Probe.Sched.order t.policy ~current:t.current_offset offsets
          in
          let head_off = List.hd ordered in
          let head =
            match take_first_at ?tenant:tenant_filter t prio head_off with
            | Some r -> r
            | None -> assert false
          in
          let group =
            match head.kind with
            | KOther _ -> [ head ]
            | KRead { pba = first; _ } when t.coalesce ->
                let rec absorb acc last_pba = function
                  | _ when List.length acc >= max_span -> acc
                  | [] -> acc
                  | off :: rest -> (
                      let next_pba = last_pba + 1 in
                      if
                        next_pba
                        >= (Sero.Device.config t.dev).Sero.Device.n_blocks
                        || off <> offset_of_pba t next_pba
                      then acc
                      else
                        let matches r =
                          match r.kind with
                          | KRead { pba; _ } ->
                              pba = next_pba && r.offset = off
                              && r.tenant = head.tenant
                          | KOther _ -> false
                        in
                        let pend_now =
                          match prio with
                          | Foreground -> t.waiting_fg
                          | Background -> t.waiting_bg
                        in
                        match List.exists matches (List.rev pend_now) with
                        | false -> acc
                        | true ->
                            let oldest =
                              List.find matches (List.rev pend_now)
                            in
                            let rest_pend =
                              let removed = ref false in
                              List.filter
                                (fun r ->
                                  if (not !removed) && r == oldest then begin
                                    removed := true;
                                    false
                                  end
                                  else true)
                                pend_now
                            in
                            (match prio with
                            | Foreground -> t.waiting_fg <- rest_pend
                            | Background -> t.waiting_bg <- rest_pend);
                            absorb (acc @ [ oldest ]) next_pba rest)
                in
                absorb [ head ] first (List.tl ordered)
            | KRead _ -> [ head ]
          in
          t.busy <- true;
          serve_group t group

  and arm_dispatch t =
    if (not t.dispatch_armed) && not t.busy then begin
      t.dispatch_armed <- true;
      Sim.Des.schedule t.des ~delay:0. (fun _ ->
          t.dispatch_armed <- false;
          dispatch t)
    end

  and enqueue t r =
    (match r.rprio with
    | Foreground -> t.waiting_fg <- r :: t.waiting_fg
    | Background -> t.waiting_bg <- r :: t.waiting_bg);
    Sim.Stats.Histogram.add t.depth_hist
      (float_of_int (pending t + if t.busy then 1 else 0));
    arm_dispatch t

  let submit_read t ~prio ~tenant ~pba k =
    enqueue t
      {
        kind = KRead { pba; k };
        rprio = prio;
        tenant;
        offset = offset_of_pba t pba;
        submitted = Sim.Des.now t.des;
        attempts = 1;
      }

  let submit_other t prio tenant offset exec =
    enqueue t
      {
        kind = KOther { exec };
        rprio = prio;
        tenant;
        offset;
        submitted = Sim.Des.now t.des;
        attempts = 1;
      }

  let submit_write t ~prio ~tenant ~pba payload k =
    submit_other t prio tenant (offset_of_pba t pba) (fun () ->
        let r = Sero.Device.write_block t.dev ~pba payload in
        fun () -> k r)

  let submit_write_span t ~prio ~tenant ~pba payloads k =
    let n = Array.length payloads in
    submit_other t prio tenant (offset_of_pba t pba) (fun () ->
        let rs =
          Array.mapi
            (fun i p -> Sero.Device.write_block t.dev ~pba:(pba + i) p)
            payloads
        in
        t.coalesced <- t.coalesced + (n - 1);
        fun () -> k rs)

  let submit_heat_line t ~prio ~tenant ~line k =
    let timestamp = Sim.Des.now t.des in
    submit_other t prio tenant (offset_of_line t line) (fun () ->
        let r = Sero.Device.heat_line t.dev ~line ~timestamp () in
        fun () -> k r)

  let submit_verify_line t ~prio ~tenant ~line k =
    submit_other t prio tenant (offset_of_line t line) (fun () ->
        let v = Sero.Device.verify_line t.dev ~line in
        fun () -> k v)
end

(* {1 Queue = Queue_oracle}

   A script of reads (runs of consecutive blocks among them), writes,
   write spans, heats and verifies, from both classes and tenants 0-3,
   is submitted at random DES times (many equal) to [Sero.Queue] and to
   [Queue_oracle] on twin prefilled devices with two unreadable blocks.
   Every policy, coalescing on and off, zero or two read retries and
   each arbiter: callback order and times, results, device and medium
   state and every counter must agree. *)

let twin_blocks = 256

type twin_op =
  | T_read of int * int (* first data-block index, run length *)
  | T_write of int * int (* data-block index, payload tag *)
  | T_span of int * int * int (* data-block index, length, payload tag *)
  | T_heat of int
  | T_verify of int

type twin_script = {
  policy : Probe.Sched.policy;
  coalesce : bool;
  retries : int;
  arbiter : int; (* 0 none, 1 arrival order, 2 fair share *)
  wounds : int * int; (* data-block indices made unreadable *)
  ops : (int * bool * int * twin_op) list; (* tick, background, tenant *)
}

(* Reads and writes aim at the first [window] data blocks, so requests
   pile up on the same and on consecutive offsets. *)
let window = 40

let twin_script_gen =
  let open QCheck.Gen in
  let lay = Sero.Layout.create ~n_blocks:twin_blocks ~line_exp:3 () in
  let n_lines = Sero.Layout.usable_lines lay in
  let idx = 0 -- (window - 1) in
  let op =
    frequency
      [
        ( 6,
          map2
            (fun i n -> T_read (i, n))
            idx
            (frequencyl [ (3, 1); (2, 3); (1, 9) ]) );
        (3, map2 (fun i tag -> T_write (i, tag)) idx (0 -- 999));
        (1, map3 (fun i n tag -> T_span (i, n, tag)) idx (1 -- 4) (0 -- 999));
        (1, map (fun l -> T_heat l) (0 -- 5));
        (1, map (fun l -> T_verify l) (0 -- (n_lines - 1)));
      ]
  in
  let timed =
    map3
      (fun (tick, bg) tenant op -> (tick, bg, tenant, op))
      (pair (0 -- 30) (frequencyl [ (3, false); (1, true) ]))
      (0 -- 3) op
  in
  map3
    (fun (policy, coalesce, retries) (arbiter, wounds) ops ->
      { policy; coalesce; retries; arbiter; wounds; ops })
    (triple (oneofl Probe.Sched.all_policies) bool (oneofl [ 0; 2 ]))
    (pair (0 -- 2) (pair idx idx))
    (list_size (1 -- 40) timed)

let print_twin_script s =
  let op = function
    | T_read (i, n) -> Printf.sprintf "read %d+%d" i n
    | T_write (i, tag) -> Printf.sprintf "write %d #%d" i tag
    | T_span (i, n, tag) -> Printf.sprintf "span %d+%d #%d" i n tag
    | T_heat l -> Printf.sprintf "heat %d" l
    | T_verify l -> Printf.sprintf "verify %d" l
  in
  Format.asprintf "%a coalesce=%b retries=%d arbiter=%d wounds=%d,%d@.%s"
    Probe.Sched.pp_policy s.policy s.coalesce s.retries s.arbiter
    (fst s.wounds) (snd s.wounds)
    (String.concat "\n"
       (List.map
          (fun (tick, bg, tenant, o) ->
            Printf.sprintf "  @%d %s t%d %s" tick
              (if bg then "bg" else "fg")
              tenant (op o))
          s.ops))

type twin_result =
  | Got_read of (string, Sero.Device.read_error) result
  | Got_write of (unit, Sero.Device.write_error) result
  | Got_span of (unit, Sero.Device.write_error) result array
  | Got_heat of (string, Sero.Device.heat_error) result
  | Got_verify of Sero.Tamper.verdict

(* How one twin takes a request: prio, tenant, target, callback. *)
type 'a twin_call =
  Sero.Queue.prio -> int -> 'a -> (twin_result -> unit) -> unit

type twin_submit = {
  read : int twin_call; (* pba *)
  write : (int * string) twin_call;
  span : (int * string array) twin_call;
  heat : int twin_call; (* line *)
  verify : int twin_call;
}

let hex_heat r = Got_heat (Result.map Hash.Sha256.to_hex r)

let queue_submit q =
  let module Q = Sero.Queue in
  {
    read =
      (fun prio tenant pba k ->
        Q.submit_read q ~prio ~tenant ~pba (fun r -> k (Got_read r)));
    write =
      (fun prio tenant (pba, p) k ->
        Q.submit_write q ~prio ~tenant ~pba p (fun r -> k (Got_write r)));
    span =
      (fun prio tenant (pba, ps) k ->
        Q.submit_write_span q ~prio ~tenant ~pba ps (fun r -> k (Got_span r)));
    heat =
      (fun prio tenant line k ->
        Q.submit_heat_line q ~prio ~tenant ~line (fun r -> k (hex_heat r)));
    verify =
      (fun prio tenant line k ->
        Q.submit_verify_line q ~prio ~tenant ~line (fun v -> k (Got_verify v)));
  }

let oracle_submit o =
  let module O = Queue_oracle in
  {
    read =
      (fun prio tenant pba k ->
        O.submit_read o ~prio ~tenant ~pba (fun r -> k (Got_read r)));
    write =
      (fun prio tenant (pba, p) k ->
        O.submit_write o ~prio ~tenant ~pba p (fun r -> k (Got_write r)));
    span =
      (fun prio tenant (pba, ps) k ->
        O.submit_write_span o ~prio ~tenant ~pba ps (fun r -> k (Got_span r)));
    heat =
      (fun prio tenant line k ->
        O.submit_heat_line o ~prio ~tenant ~line (fun r -> k (hex_heat r)));
    verify =
      (fun prio tenant line k ->
        O.submit_verify_line o ~prio ~tenant ~line (fun v -> k (Got_verify v)));
  }

let fair_weight tid = float_of_int (tid + 1)

let twin_device s =
  let dev =
    Sero.Device.create
      (Sero.Device.default_config ~n_blocks:twin_blocks ~line_exp:3 ())
  in
  prefill dev;
  let pbas = data_pbas dev in
  let wound i =
    Sero.Device.unsafe_heat_dots dev
      ~dot:(Sero.Layout.block_first_dot (Sero.Device.layout dev) pbas.(i))
      ~n:600
  in
  wound (fst s.wounds);
  wound (snd s.wounds);
  dev

(* Submit the script on [des] through [submit]; returns the callback
   log, oldest first: (op number, DES time, result). *)
let run_twin s des dev submit =
  let pbas = data_pbas dev in
  let log = ref [] in
  List.iteri
    (fun i (tick, bg, tenant, op) ->
      let prio = if bg then Sero.Queue.Background else Sero.Queue.Foreground in
      let k r = log := (i, Sim.Des.now des, r) :: !log in
      Sim.Des.schedule des ~delay:(float_of_int tick *. 2e-4) (fun _ ->
          match op with
          | T_read (j, n) ->
              for m = 0 to n - 1 do
                submit.read prio tenant pbas.((j + m) mod Array.length pbas) k
              done
          | T_write (j, tag) ->
              submit.write prio tenant (pbas.(j), payload_of tag) k
          | T_span (j, n, tag) ->
              submit.span prio tenant
                (pbas.(j), Array.init n (fun m -> payload_of (tag + m)))
                k
          | T_heat line -> submit.heat prio tenant line k
          | T_verify line -> submit.verify prio tenant line k))
    s.ops;
  Sim.Des.run des;
  List.rev !log

let medium_bytes dev =
  let m = Probe.Pdevice.medium (Sero.Device.pdevice dev) in
  let n = Pmedia.Medium.packed_length m in
  let b = Bytes.create n in
  Pmedia.Medium.blit_packed m ~pos:0 ~dst:b ~dst_off:0 ~len:n;
  b

let stats_sig st = (Sim.Stats.count st, Sim.Stats.total st)

let oracle_equiv =
  QCheck.Test.make ~name:"dispatch matches the earlier queue, op for op"
    ~count:200
    (QCheck.make ~print:print_twin_script twin_script_gen)
    (fun s ->
      let dev_q = twin_device s and dev_o = twin_device s in
      let des_q = Sim.Des.create () and des_o = Sim.Des.create () in
      let q =
        Sero.Queue.create ~policy:s.policy ~coalesce:s.coalesce
          ~read_retry_limit:s.retries des_q dev_q
      in
      let o =
        Queue_oracle.create ~policy:s.policy ~coalesce:s.coalesce
          ~read_retry_limit:s.retries des_o dev_o
      in
      (match s.arbiter with
      | 0 -> ()
      | 1 ->
          Sero.Queue.set_arbiter q Sero.Queue.Arrival_order;
          Queue_oracle.set_arbiter o (Some Queue_oracle.arrival_order)
      | _ ->
          Sero.Queue.set_arbiter q (Sero.Queue.Fair_share fair_weight);
          Queue_oracle.set_arbiter o
            (Some (Queue_oracle.fair_share o ~weight:fair_weight)));
      let log_q = run_twin s des_q dev_q (queue_submit q) in
      let log_o = run_twin s des_o dev_o (oracle_submit o) in
      let per_class prio =
        let l = Queue_oracle.ledger_of o prio in
        ( ( Sero.Queue.completed q prio = l.Queue_oracle.completed,
            stats_sig (Sero.Queue.latency q prio)
            = stats_sig l.Queue_oracle.latency,
            stats_sig (Sero.Queue.wait q prio)
            = stats_sig l.Queue_oracle.wait ),
          ( Sero.Queue.energy_spent q prio = l.Queue_oracle.energy,
            Sero.Queue.last_completion q prio = l.Queue_oracle.last_completion )
        )
      in
      let per_tenant tid =
        ( Sero.Queue.tenant_completed q tid
          = Queue_oracle.tenant_completed o tid,
          Sero.Queue.tenant_service q tid = Queue_oracle.tenant_service o tid,
          Sero.Queue.tenant_energy q tid = Queue_oracle.tenant_energy o tid )
      in
      let all_true = ((true, true, true), (true, true)) in
      log_q = log_o
      && Sero.Device.stats dev_q = Sero.Device.stats dev_o
      && Bytes.equal (medium_bytes dev_q) (medium_bytes dev_o)
      && per_class Sero.Queue.Foreground = all_true
      && per_class Sero.Queue.Background = all_true
      && stats_sig (Sero.Queue.service q) = stats_sig o.Queue_oracle.service
      && Sero.Queue.coalesced_requests q = o.Queue_oracle.coalesced
      && Sero.Queue.retried_reads q = o.Queue_oracle.retried_reads
      && Sero.Queue.abandoned_reads q = o.Queue_oracle.abandoned_reads
      && Sero.Queue.tenants q = Queue_oracle.tenants o
      && List.for_all
           (fun tid -> per_tenant tid = (true, true, true))
           [ 0; 1; 2; 3 ]
      && Sim.Stats.Histogram.counts (Sero.Queue.depth_histogram q)
         = Sim.Stats.Histogram.counts o.Queue_oracle.depth_hist)

let () =
  Alcotest.run "queue"
    [
      ("conformance", conformance_cases);
      ("priority", priority_cases);
      ("coalescing", coalescing_cases);
      ("facade", [ qtest facade_equiv ]);
      ("oracle", [ qtest oracle_equiv ]);
      ("scrub", scrub_cases);
      ("fs", fs_cases);
      ("measurement", measurement_cases);
      ("arbiter", arbiter_cases);
    ]
