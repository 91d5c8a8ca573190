(* Workload generators and the DB-snapshot / retention runs. *)

let qtest = QCheck_alcotest.to_alcotest

let zipf_cases =
  [
    Alcotest.test_case "theta=0 is roughly uniform" `Quick (fun () ->
        let z = Workload.Zipf.create ~n:10 ~theta:0. in
        let rng = Sim.Prng.create 1 in
        let counts = Array.make 10 0 in
        for _ = 1 to 10000 do
          let i = Workload.Zipf.sample z rng in
          counts.(i) <- counts.(i) + 1
        done;
        Array.iter
          (fun c -> Alcotest.(check bool) "within 30% of uniform" true (c > 700 && c < 1300))
          counts);
    Alcotest.test_case "theta=1 skews to the head" `Quick (fun () ->
        let z = Workload.Zipf.create ~n:100 ~theta:1.0 in
        let rng = Sim.Prng.create 2 in
        let head = ref 0 in
        for _ = 1 to 5000 do
          if Workload.Zipf.sample z rng < 10 then incr head
        done;
        Alcotest.(check bool) "top-10 majority" true (!head > 2500));
    Alcotest.test_case "pmf sums to 1" `Quick (fun () ->
        let z = Workload.Zipf.create ~n:50 ~theta:0.9 in
        let total = ref 0. in
        for i = 0 to 49 do
          total := !total +. Workload.Zipf.pmf z i
        done;
        Alcotest.(check (float 1e-9)) "1" 1. !total);
  ]

let zipf_in_range =
  QCheck.Test.make ~name:"samples always in range" ~count:200
    QCheck.(pair (int_range 1 100) (float_range 0. 1.5))
    (fun (n, theta) ->
      let z = Workload.Zipf.create ~n ~theta in
      let rng = Sim.Prng.create 7 in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Workload.Zipf.sample z rng in
        if v < 0 || v >= n then ok := false
      done;
      !ok)

let dbwork_cases =
  [
    Alcotest.test_case "generator emits the configured structure" `Quick
      (fun () ->
        let cfg =
          { Workload.Dbwork.default_config with Workload.Dbwork.snapshots = 3 }
        in
        let ops = Workload.Dbwork.generate cfg in
        let count p = List.length (List.filter p ops) in
        Alcotest.(check int) "3 begins" 3
          (count (function Workload.Dbwork.Snap_begin _ -> true | _ -> false));
        Alcotest.(check int) "3 freezes" 3
          (count (function Workload.Dbwork.Snap_freeze _ -> true | _ -> false));
        Alcotest.(check bool) "updates interleaved within snapshots" true
          (let rec check in_snap = function
             | [] -> true
             | Workload.Dbwork.Snap_begin _ :: rest -> check true rest
             | Workload.Dbwork.Snap_freeze _ :: rest -> check false rest
             | Workload.Dbwork.Update _ :: rest -> check in_snap rest
             | Workload.Dbwork.Snap_chunk _ :: rest -> in_snap && check in_snap rest
           in
           check false ops));
    Alcotest.test_case "generator is deterministic per seed" `Quick (fun () ->
        let cfg = Workload.Dbwork.default_config in
        Alcotest.(check bool) "same" true
          (Workload.Dbwork.generate cfg = Workload.Dbwork.generate cfg));
    Alcotest.test_case "small run verifies all snapshots" `Quick (fun () ->
        let cfg =
          {
            Workload.Dbwork.default_config with
            Workload.Dbwork.snapshots = 2;
            updates_between_snapshots = 60;
            snapshot_pages = 16;
          }
        in
        let r =
          Workload.Dbwork.run ~clustering:true
            ~device:(Sero.Device.default_config ~n_blocks:4096 ~line_exp:3 ())
            cfg
        in
        Alcotest.(check int) "no bad lines" 0 r.Workload.Dbwork.snap_verdicts_bad;
        Alcotest.(check bool) "some verified" true (r.Workload.Dbwork.snap_verdicts_ok > 0));
  ]

let retention_cases =
  [
    Alcotest.test_case "retention run stores and audits every class" `Quick
      (fun () ->
        let r =
          Workload.Retention.run
            ~device:(Sero.Device.default_config ~n_blocks:4096 ~line_exp:3 ())
            Workload.Retention.default_config
        in
        let total =
          List.fold_left
            (fun a c -> a + c.Workload.Retention.records_stored)
            0 r.Workload.Retention.per_class
        in
        Alcotest.(check int) "all records" 300 total;
        List.iter
          (fun c ->
            Alcotest.(check bool)
              (Printf.sprintf "class %d audits clean" c.Workload.Retention.class_id)
              true c.Workload.Retention.verdict_ok)
          r.Workload.Retention.per_class);
  ]

let trace_cases =
  [
    Alcotest.test_case "encode/decode roundtrip" `Quick (fun () ->
        let ops =
          [
            Workload.Trace.Mkdir "/d";
            Workload.Trace.Create { path = "/d/f"; heat_group = 3 };
            Workload.Trace.Write { path = "/d/f"; offset = 512; data = "abc" };
            Workload.Trace.Append { path = "/d/f"; data = String.make 600 'z' };
            Workload.Trace.Heat "/d/f";
            Workload.Trace.Sync;
            Workload.Trace.Unlink "/d/f";
          ]
        in
        match Workload.Trace.decode (Workload.Trace.encode ops) with
        | Ok got -> Alcotest.(check bool) "equal" true (got = ops)
        | Error e -> Alcotest.failf "decode: %s" e);
    Alcotest.test_case "garbage is rejected" `Quick (fun () ->
        match Workload.Trace.decode "not a trace" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted");
    Alcotest.test_case "an offset past max_int is rejected, not wrapped"
      `Quick (fun () ->
        let b =
          Bytes.of_string
            (Workload.Trace.encode
               [ Workload.Trace.Write { path = "/x"; offset = 5; data = "!" } ])
        in
        (* Magic, op count, tag and the framed path precede the u64
           offset: its top byte set makes it 2^63 + 5. *)
        Bytes.set b (8 + 4 + 1 + 4 + 2) '\x80';
        match Workload.Trace.decode (Bytes.to_string b) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "2^63 + 5 accepted");
    Alcotest.test_case "replay is deterministic: identical media" `Quick
      (fun () ->
        let mk () =
          let dev =
            Sero.Device.create
              (Sero.Device.default_config ~n_blocks:1024 ~line_exp:3 ())
          in
          (dev, Lfs.Fs.format dev)
        in
        let trace =
          Workload.Trace.(
            [ Create { path = "/a"; heat_group = 1 } ]
            @ List.init 10 (fun i ->
                  Write
                    {
                      path = "/a";
                      offset = 512 * i;
                      data = String.make 512 (Char.chr (65 + i));
                    })
            @ [
                Heat "/a";
                Create { path = "/b"; heat_group = 0 };
                Append { path = "/b"; data = "tail" };
                Sync;
              ])
        in
        (* Replay onto two fresh instances: media must be bit-identical. *)
        let replay () =
          let dev, fs = mk () in
          let outcome = Workload.Trace.replay fs trace in
          Alcotest.(check int) "all applied" (List.length trace)
            outcome.Workload.Trace.applied;
          dev
        in
        let dev1 = replay () and dev2 = replay () in
        let digest dev =
          let medium = Probe.Pdevice.medium (Sero.Device.pdevice dev) in
          let buf = Buffer.create 4096 in
          for i = 0 to Pmedia.Medium.size medium - 1 do
            Buffer.add_char buf
              (match Pmedia.Medium.get medium i with
              | Pmedia.Dot.Magnetised Pmedia.Dot.Up -> '1'
              | Pmedia.Dot.Magnetised Pmedia.Dot.Down -> '0'
              | Pmedia.Dot.Heated -> 'H')
          done;
          Hash.Sha256.to_hex (Hash.Sha256.digest_string (Buffer.contents buf))
        in
        Alcotest.(check string) "bit-identical media" (digest dev1) (digest dev2));
    Alcotest.test_case "replay counts refusals without dying" `Quick (fun () ->
        let dev =
          Sero.Device.create (Sero.Device.default_config ~n_blocks:512 ~line_exp:3 ())
        in
        let fs = Lfs.Fs.format dev in
        let outcome =
          Workload.Trace.replay fs
            [
              Workload.Trace.Create { path = "/x"; heat_group = 0 };
              Workload.Trace.Write { path = "/x"; offset = 0; data = "v" };
              Workload.Trace.Heat "/x";
              Workload.Trace.Write { path = "/x"; offset = 0; data = "w" };
              Workload.Trace.Unlink "/x";
            ]
        in
        Alcotest.(check int) "applied" 3 outcome.Workload.Trace.applied;
        Alcotest.(check int) "refused" 2 outcome.Workload.Trace.refused);
    Alcotest.test_case "a sync that fills the device is a refused op" `Quick
      (fun () ->
        (* Forty growing files, each synced, overflow a 256-block
           device; the failing syncs must count as refusals, not
           escape as exceptions. *)
        let dev =
          Sero.Device.create
            (Sero.Device.default_config ~n_blocks:256 ~line_exp:3 ())
        in
        let fs = Lfs.Fs.format dev in
        let ops =
          List.concat
            (List.init 40 (fun i ->
                 let path = Printf.sprintf "/f%d" i in
                 Workload.Trace.
                   [
                     Create { path; heat_group = 0 };
                     Write
                       {
                         path;
                         offset = 0;
                         data = String.make (1000 + (50 * i)) 'd';
                       };
                     Sync;
                   ]))
        in
        let outcome = Workload.Trace.replay fs ops in
        Alcotest.(check int) "every op counted" (List.length ops)
          (outcome.Workload.Trace.applied + outcome.Workload.Trace.refused);
        Alcotest.(check bool) "some ops refused" true
          (outcome.Workload.Trace.refused > 0));
  ]

let () =
  Alcotest.run "workload"
    [
      ("zipf", zipf_cases @ [ qtest zipf_in_range ]);
      ("dbwork", dbwork_cases);
      ("retention", retention_cases);
      ("trace", trace_cases);
    ]
