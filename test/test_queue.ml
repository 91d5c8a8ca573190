(* The asynchronous request pipeline: service order conforms to the
   scheduling policy, coalescing is invisible to the caller,
   [Queue.await] is bit-identical to direct device calls, and
   foreground traffic strictly precedes background. *)

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
   out, and the served-offset log must equal one [Sched.order] call
   over the batch — dispatching head-by-head from the moving sled
   position reproduces the full-batch order for every policy. *)

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
          let q = mk_queue ~policy ~coalesce:false dev in
          List.iter
            (fun pba ->
              Sero.Queue.submit_read q ~pba (fun r ->
                  Alcotest.(check bool) "read ok" true (Result.is_ok r)))
            picks;
          Sim.Des.run (Sero.Queue.des q);
          let offset_of pba =
            snd
              (Probe.Tips.locate
                 (Probe.Pdevice.tips (Sero.Device.pdevice dev))
                 (Sero.Layout.block_first_dot (Sero.Device.layout dev) pba))
          in
          let expected =
            Probe.Sched.order policy ~current:0 (List.map offset_of picks)
          in
          Alcotest.(check (list int)) "service order" expected
            (Sero.Queue.served_offsets q)))
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

let () =
  Alcotest.run "queue"
    [
      ("conformance", conformance_cases);
      ("priority", priority_cases);
      ("coalescing", coalescing_cases);
      ("facade", [ qtest facade_equiv ]);
      ("scrub", scrub_cases);
      ("fs", fs_cases);
      ("measurement", measurement_cases);
    ]
