(* Probe device: tip striping, actuator, timing ledger, run operations. *)

let qtest = QCheck_alcotest.to_alcotest

let make_medium ?(rows = 32) ?(cols = 32) () =
  Pmedia.Medium.create (Pmedia.Medium.default_config ~rows ~cols)

let make_pdev ?(n_tips = 16) () =
  Probe.Pdevice.create
    ~config:{ Probe.Pdevice.default_config with Probe.Pdevice.n_tips }
    (make_medium ())

(* {1 Tips} *)

let tips_bijection =
  QCheck.Test.make ~name:"locate/dot_of bijection" ~count:300
    QCheck.(int_range 0 1023)
    (fun dot ->
      let tips = Probe.Tips.create ~n_tips:16 (make_medium ()) in
      let tip, offset = Probe.Tips.locate tips dot in
      Probe.Tips.dot_of tips ~tip ~offset = dot)

let tips_striping =
  QCheck.Test.make ~name:"consecutive dots land on consecutive tips" ~count:100
    QCheck.(int_range 0 1000)
    (fun dot ->
      let tips = Probe.Tips.create ~n_tips:16 (make_medium ()) in
      let t1, o1 = Probe.Tips.locate tips dot in
      let t2, o2 = Probe.Tips.locate tips (dot + 1) in
      if t1 < 15 then t2 = t1 + 1 && o2 = o1 else t2 = 0 && o2 = o1 + 1)

let tips_cases =
  [
    Alcotest.test_case "non-multiple medium rounds the field size up" `Quick
      (fun () ->
        (* 1024 dots over 7 tips: fields of ceil(1024/7) = 147 offsets;
           the last scan row is partial. *)
        let tips = Probe.Tips.create ~n_tips:7 (make_medium ()) in
        Alcotest.(check int) "field size" 147 (Probe.Tips.field_size tips);
        Alcotest.(check (pair int int)) "last dot" (1023 mod 7, 1023 / 7)
          (Probe.Tips.locate tips 1023);
        Alcotest.(check int) "roundtrip" 1023
          (Probe.Tips.dot_of tips ~tip:(1023 mod 7) ~offset:(1023 / 7));
        (* Dots past the medium end do not exist, on either mapping. *)
        Alcotest.check_raises "locate rejects phantom"
          (Invalid_argument "Tips.locate: dot address out of range") (fun () ->
            ignore (Probe.Tips.locate tips 1024));
        Alcotest.check_raises "dot_of rejects phantom"
          (Invalid_argument "Tips.dot_of: out of range") (fun () ->
            ignore (Probe.Tips.dot_of tips ~tip:5 ~offset:146)));
    Alcotest.test_case "spare tips remap a failed field" `Quick (fun () ->
        let tips = Probe.Tips.create ~spares:2 ~n_tips:16 (make_medium ()) in
        Alcotest.(check int) "spares" 2 (Probe.Tips.spares tips);
        Alcotest.(check bool) "no-op on healthy tip" false
          (Probe.Tips.remap_tip tips 3);
        Probe.Tips.fail_tip tips 3;
        Alcotest.(check bool) "failed" true (Probe.Tips.tip_failed tips 3);
        Alcotest.(check bool) "remapped" true (Probe.Tips.remap_tip tips 3);
        Alcotest.(check bool) "serving again" false
          (Probe.Tips.tip_failed tips 3);
        Alcotest.(check int) "one remap" 1 (Probe.Tips.remapped_count tips);
        (* The second spare serves the next failed field; a third has
           none left. *)
        Probe.Tips.fail_tip tips 5;
        Probe.Tips.fail_tip tips 7;
        Alcotest.(check bool) "second spare" true (Probe.Tips.remap_tip tips 5);
        Alcotest.(check bool) "no spare left" false (Probe.Tips.remap_tip tips 7);
        Alcotest.(check bool) "still failed" true (Probe.Tips.tip_failed tips 7));
    Alcotest.test_case "failed tips tracked" `Quick (fun () ->
        let tips = Probe.Tips.create ~n_tips:16 (make_medium ()) in
        Alcotest.(check bool) "none" true (Probe.Tips.all_serving_healthy tips);
        Probe.Tips.fail_tip tips 3;
        Probe.Tips.fail_tip tips 9;
        Alcotest.(check bool) "some" false (Probe.Tips.all_serving_healthy tips);
        Alcotest.(check bool) "tip 3" true (Probe.Tips.tip_failed tips 3);
        Alcotest.(check bool) "tip 4" false (Probe.Tips.tip_failed tips 4));
  ]

(* {1 Actuator} *)

let actuator_cases =
  [
    Alcotest.test_case "seek to current position is free" `Quick (fun () ->
        let timing = Probe.Timing.create () in
        let act = Probe.Actuator.create timing ~pitch:100e-9 ~field_cols:8 in
        Probe.Actuator.seek act 0;
        Alcotest.(check (float 0.)) "no time" 0. (Probe.Timing.elapsed timing));
    Alcotest.test_case "scan step pays no settle" `Quick (fun () ->
        let timing = Probe.Timing.create () in
        let act = Probe.Actuator.create timing ~pitch:100e-9 ~field_cols:8 in
        Probe.Actuator.seek act 1;
        Alcotest.(check (float 0.)) "no settle" 0. (Probe.Timing.elapsed timing);
        (* A scan run is one seek to its first offset, then scan steps. *)
        Probe.Actuator.scan_run act ~first:2 ~last:9;
        Alcotest.(check (float 0.)) "scan run" 0. (Probe.Timing.elapsed timing);
        Probe.Actuator.seek act 10;
        Alcotest.(check (float 0.)) "ends on its last offset" 0.
          (Probe.Timing.elapsed timing));
    Alcotest.test_case "random seek pays settle + travel" `Quick (fun () ->
        let timing = Probe.Timing.create () in
        let act = Probe.Actuator.create timing ~pitch:100e-9 ~field_cols:8 in
        Probe.Actuator.seek act 40;
        Alcotest.(check bool) "settle charged" true
          (Probe.Timing.elapsed timing >= (Probe.Timing.default_costs).Probe.Timing.seek_settle));
    Alcotest.test_case "serpentine keeps adjacent offsets adjacent" `Quick
      (fun () ->
        let timing = Probe.Timing.create () in
        let act = Probe.Actuator.create timing ~pitch:100e-9 ~field_cols:4 in
        (* Offsets 3 and 4: end of row 0 and start of row 1; serpentine
           places them in the same column. *)
        let x3, y3 = Probe.Actuator.xy_of_offset act 3 in
        let x4, y4 = Probe.Actuator.xy_of_offset act 4 in
        Alcotest.(check int) "same column" x3 x4;
        Alcotest.(check int) "next row" (y3 + 1) y4);
  ]

(* {1 Timing ledger} *)

let timing_cases =
  [
    Alcotest.test_case "charges accumulate" `Quick (fun () ->
        let t = Probe.Timing.create () in
        Probe.Timing.charge_bits t ~read:10 ~written:5;
        Probe.Timing.charge_ewb t 2;
        let c = Probe.Timing.costs t in
        let expect =
          (15. *. c.Probe.Timing.bit_time) +. (2. *. c.Probe.Timing.ewb_time)
        in
        Alcotest.(check (float 1e-12)) "elapsed" expect (Probe.Timing.elapsed t);
        Alcotest.(check bool) "energy > 0" true (Probe.Timing.energy t > 0.);
        Probe.Timing.reset t;
        Alcotest.(check (float 0.)) "reset" 0. (Probe.Timing.elapsed t));
  ]

(* {1 Pdevice runs} *)

let bools = QCheck.array_of_size (QCheck.Gen.int_range 1 200) QCheck.bool

(* Runs move bits packed MSB-first; these convert to and from bools
   independently of the library's own bit helpers. *)
let pack bits =
  let b = Bytes.make ((Array.length bits + 7) / 8) '\000' in
  Array.iteri
    (fun i v ->
      if v then
        Bytes.set b (i / 8)
          (Char.chr (Char.code (Bytes.get b (i / 8)) lor (0x80 lsr (i mod 8)))))
    bits;
  b

let unpack b len =
  Array.init len (fun i ->
      Char.code (Bytes.get b (i / 8)) land (0x80 lsr (i mod 8)) <> 0)

let read_bits p ~start ~len =
  let dst = Bytes.make ((len + 7) / 8) '\000' in
  Probe.Pdevice.read_run p ~start ~len ~dst;
  unpack dst len

let write_bits p ~start bits =
  Probe.Pdevice.write_run p ~start ~len:(Array.length bits) ~src:(pack bits)

(* An electrical read into a buffer of noise one byte longer than the
   run needs, returned whole: the bits past the run must survive. *)
let erb_raw ?cycles p ~start ~len =
  let rng = Sim.Prng.create (start + len) in
  let dst = Bytes.init ((len / 8) + 2) (fun _ -> Char.chr (Sim.Prng.int rng 256)) in
  Probe.Pdevice.erb_run ?cycles p ~start ~len ~dst;
  dst

let erb_bits ?cycles p ~start ~len = unpack (erb_raw ?cycles p ~start ~len) len

let write_read_roundtrip =
  QCheck.Test.make ~name:"write_run/read_run roundtrip" ~count:100
    QCheck.(pair bools (int_range 0 200))
    (fun (bits, start) ->
      let p = make_pdev () in
      let start = min start (Probe.Pdevice.size p - Array.length bits) in
      write_bits p ~start bits;
      let got = read_bits p ~start ~len:(Array.length bits) in
      got = bits)

let heat_then_erb =
  QCheck.Test.make ~name:"heat_run pattern detected by erb_run" ~count:50
    bools
    (fun pattern ->
      let p = make_pdev () in
      Probe.Pdevice.heat_run p ~start:0 pattern;
      let got = erb_bits ~cycles:30 p ~start:0 ~len:(Array.length pattern) in
      got = pattern)

let pdevice_cases =
  [
    Alcotest.test_case "failed tip turns its dots to noise" `Quick (fun () ->
        let p = make_pdev ~n_tips:16 () in
        let bits = Array.make 64 true in
        write_bits p ~start:0 bits;
        Probe.Tips.fail_tip (Probe.Pdevice.tips p) 5;
        (* Dots 5, 21, 37, 53 belong to tip 5: reads become random; over
           several trials at least one disagrees. *)
        let diffs = ref 0 in
        for _ = 1 to 20 do
          let got = read_bits p ~start:0 ~len:64 in
          for k = 0 to 3 do
            if not got.((16 * k) + 5) then incr diffs
          done
        done;
        Alcotest.(check bool) "noise observed" true (!diffs > 0));
    Alcotest.test_case "failed tip reports heated on erb (bad-block overlap)"
      `Quick (fun () ->
        let p = make_pdev ~n_tips:16 () in
        Probe.Tips.fail_tip (Probe.Pdevice.tips p) 0;
        let got = erb_bits p ~start:0 ~len:16 in
        Alcotest.(check bool) "dot 0 heated-looking" true got.(0));
    Alcotest.test_case "parallelism: run cost scales with offsets not bits"
      `Quick (fun () ->
        let p = make_pdev ~n_tips:16 () in
        Probe.Pdevice.reset_ledger p;
        write_bits p ~start:0 (Array.make 16 true);
        let one_row = Probe.Pdevice.elapsed p in
        Probe.Pdevice.reset_ledger p;
        write_bits p ~start:0 (Array.make 160 true);
        let ten_rows = Probe.Pdevice.elapsed p in
        Alcotest.(check bool) "10x not 160x" true
          (ten_rows < 12. *. one_row && ten_rows > 8. *. one_row));
    Alcotest.test_case "out-of-range run rejected" `Quick (fun () ->
        let p = make_pdev () in
        Alcotest.check_raises "range" (Invalid_argument "Pdevice: run out of range")
          (fun () -> ignore (read_bits p ~start:0 ~len:(Probe.Pdevice.size p + 1))));
    Alcotest.test_case "rejected erb_run leaves the device untouched" `Quick
      (fun () ->
        let p = make_pdev () in
        write_bits p ~start:0 (Array.make 64 true);
        let before =
          ( Probe.Pdevice.elapsed p,
            Probe.Pdevice.energy p,
            Pmedia.Bitops.primitive_ops
              (Pmedia.Bitops.counters (Probe.Pdevice.bitops p)) )
        in
        List.iter
          (fun cycles ->
            Alcotest.check_raises "cycles"
              (Invalid_argument "Pdevice.erb_run: cycles must be positive")
              (fun () -> ignore (erb_bits ~cycles p ~start:16 ~len:32)))
          [ 0; -1 ];
        Alcotest.(check bool) "ledger and counters unchanged" true
          (before
          = ( Probe.Pdevice.elapsed p,
              Probe.Pdevice.energy p,
              Pmedia.Bitops.primitive_ops
                (Pmedia.Bitops.counters (Probe.Pdevice.bitops p)) )));
    Alcotest.test_case "energy grows with electrical writes" `Quick (fun () ->
        let p = make_pdev () in
        let e0 = Probe.Pdevice.energy p in
        Probe.Pdevice.heat_run p ~start:0 (Array.make 32 true);
        Alcotest.(check bool) "more energy" true (Probe.Pdevice.energy p > e0));
  ]

(* {1 Sled scheduling} *)

let sched_permutation =
  QCheck.Test.make ~name:"every policy returns a permutation" ~count:200
    QCheck.(pair (small_list (int_range 0 500)) (int_range 0 500))
    (fun (offsets, current) ->
      List.for_all
        (fun policy ->
          List.sort compare (Probe.Sched.order policy ~current offsets)
          = List.sort compare offsets)
        Probe.Sched.all_policies)

let sched_permutation_dups =
  (* A narrow offset range forces duplicates: a policy must keep every
     occurrence, not just every distinct offset. *)
  QCheck.Test.make ~name:"permutation holds with duplicate offsets" ~count:300
    QCheck.(pair (small_list (int_range 0 4)) (int_range 0 4))
    (fun (offsets, current) ->
      List.for_all
        (fun policy ->
          List.sort compare (Probe.Sched.order policy ~current offsets)
          = List.sort compare offsets)
        Probe.Sched.all_policies)

let elevator_wrap =
  (* The elevator is a C-SCAN: everything at or ahead of the sled in
     ascending order, then the wrap — the offsets behind it, ascending. *)
  QCheck.Test.make ~name:"elevator = sorted ahead, then sorted behind"
    ~count:300
    QCheck.(pair (small_list (int_range 0 100)) (int_range 0 100))
    (fun (offsets, current) ->
      let ahead, behind = List.partition (fun o -> o >= current) offsets in
      Probe.Sched.order Probe.Sched.Elevator ~current offsets
      = List.sort compare ahead @ List.sort compare behind)

let sched_cases =
  [
    Alcotest.test_case "elevator sweeps up then wraps" `Quick (fun () ->
        Alcotest.(check (list int)) "order" [ 12; 30; 3; 7 ]
          (Probe.Sched.order Probe.Sched.Elevator ~current:10 [ 3; 30; 12; 7 ]));
    Alcotest.test_case "sstf picks nearest first" `Quick (fun () ->
        Alcotest.(check (list int)) "order" [ 12; 7; 3; 30 ]
          (Probe.Sched.order Probe.Sched.Sstf ~current:10 [ 3; 30; 12; 7 ]));
    Alcotest.test_case "ordered service travels no further than fifo" `Quick
      (fun () ->
        let timing = Probe.Timing.create () in
        let act = Probe.Actuator.create timing ~pitch:100e-9 ~field_cols:32 in
        let rng = Sim.Prng.create 9 in
        let offsets = List.init 64 (fun _ -> Sim.Prng.int rng 1024) in
        let cost p =
          Probe.Sched.travel_cost act ~current:0
            (Probe.Sched.order p ~current:0 offsets)
        in
        Alcotest.(check bool) "elevator <= fifo" true
          (cost Probe.Sched.Elevator <= cost Probe.Sched.Fifo);
        Alcotest.(check bool) "sstf <= fifo" true
          (cost Probe.Sched.Sstf <= cost Probe.Sched.Fifo));
  ]

(* {1 Run dispatch equivalence}

   The dispatch must be invisible: a device whose kernels run the packed
   path, a twin with an empty-plan injector (inert, so the same fast
   paths run and credit their ticks in bulk) and a twin forced onto the
   per-dot scalar loops must produce the same outputs, medium state,
   timing ledger and tip wear, and the two injectors the same op count.
   The scalar twin's plan has a stuck rate so small it never fires (a
   dot is stuck only when its hashed draw is exactly 0, odds 2^-53):
   the inertness predicate never clears it, and its ledger staying
   empty checks that it changed nothing.  With [~remap], every twin
   has one failed tip remapped onto a spare, which sends every run
   through the row-by-row dispatch. *)

let never_stuck = Fault.Plan.make ~stuck_rate:Float.min_float ()

type twins = {
  fast : Probe.Pdevice.t;
  inert : Probe.Pdevice.t;
  scalar : Probe.Pdevice.t;
}

let twin_pdevs ?(remap = false) (seed, ops) =
  let make plan =
    let cfg =
      { (Pmedia.Medium.default_config ~rows:32 ~cols:32) with
        Pmedia.Medium.seed }
    in
    let p =
      Probe.Pdevice.create
        ~config:
          {
            Probe.Pdevice.default_config with
            Probe.Pdevice.n_tips = 16;
            spare_tips = 1;
          }
        (Pmedia.Medium.create cfg)
    in
    if remap then begin
      let tips = Probe.Pdevice.tips p in
      Probe.Tips.fail_tip tips 5;
      assert (Probe.Tips.remap_tip tips 5)
    end;
    Option.iter
      (fun plan -> Probe.Pdevice.install_fault p (Fault.Injector.create plan))
      plan;
    (* Same scramble on both devices: writes and a few heats. *)
    List.iter
      (fun (i, v) ->
        if v mod 7 = 0 then
          Probe.Pdevice.heat_run p ~start:i [| true; true; false |]
        else write_bits p ~start:i [| v land 1 = 0; v land 2 = 0; v land 4 = 0 |])
      ops;
    p
  in
  {
    fast = make None;
    inert = make (Some (Fault.Plan.make ()));
    scalar = make (Some never_stuck);
  }

let packed_string m =
  let len = Pmedia.Medium.packed_length m in
  let b = Bytes.create len in
  Pmedia.Medium.blit_packed m ~pos:0 ~dst:b ~dst_off:0 ~len;
  Bytes.unsafe_to_string b

let pdev_state p =
  let m = Probe.Pdevice.medium p in
  ( Option.map
      (fun inj -> (Fault.Injector.ops inj, Fault.Injector.ledger_to_string inj))
      (Probe.Pdevice.fault p),
    ( packed_string m,
      Probe.Pdevice.elapsed p,
      Probe.Pdevice.energy p,
      Sim.Prng.bits64 (Pmedia.Medium.rng m) ) )

(* [script] on every twin gives one answer, and leaves every twin in
   one state: the injectors agree on their op count and log nothing. *)
let twins_agree tw script =
  let a = script tw.fast and b = script tw.inert and c = script tw.scalar in
  let _, f = pdev_state tw.fast
  and inert_inj, i = pdev_state tw.inert
  and scalar_inj, sc = pdev_state tw.scalar in
  a = b && b = c && f = i && i = sc && inert_inj = scalar_inj
  && Option.map snd scalar_inj = Some ""

let scramble_arb =
  QCheck.(
    pair (int_range 1 9999)
      (small_list (pair (int_range 0 1000) (int_range 0 99))))

(* Half the runs are byte-aligned, so the packed kernels get exercised
   on the fast twin. *)
let run_arb =
  QCheck.(pair scramble_arb (triple (int_range 0 1000) (int_range 0 23) bool))

let run_of (start, len, aligned) =
  if aligned then
    let start = 8 * (start mod 120) in
    (start, 8 * min len ((1024 - start) / 8))
  else (start, len)

let dispatch_read_equiv =
  QCheck.Test.make ~name:"bulk vs forced-scalar dispatch: read_run" ~count:100
    run_arb
    (fun (scramble, run) ->
      let start, len = run_of run in
      twins_agree (twin_pdevs scramble) (fun p -> read_bits p ~start ~len))

let dispatch_erb_equiv =
  QCheck.Test.make ~name:"bulk vs forced-scalar dispatch: erb_run" ~count:60
    run_arb
    (fun (scramble, ((start, _, _) as run)) ->
      let cycles = [| 1; 2; 3; 8; 24 |].(start mod 5) in
      let start, len = run_of run in
      twins_agree (twin_pdevs scramble) (fun p ->
          Bytes.to_string (erb_raw ~cycles p ~start ~len)))

let dispatch_write_equiv =
  QCheck.Test.make ~name:"bulk vs forced-scalar dispatch: write_run" ~count:100
    run_arb
    (fun (scramble, run) ->
      let start, len = run_of run in
      let bits = Array.init len (fun i -> (start + i) land 1 = 0) in
      twins_agree (twin_pdevs scramble) (fun p -> write_bits p ~start bits))

let dispatch_remapped_equiv =
  QCheck.Test.make ~name:"one remapped tip: row-by-row read, write, erb"
    ~count:100 run_arb
    (fun (scramble, run) ->
      let start, len = run_of run in
      let bits = Array.init len (fun i -> (start + i) mod 3 = 0) in
      twins_agree (twin_pdevs ~remap:true scramble) (fun p ->
          write_bits p ~start bits;
          let r = read_bits p ~start ~len in
          let e = erb_raw ~cycles:2 p ~start ~len in
          (r, Bytes.to_string e)))

let () =
  Alcotest.run "probe"
    [
      ("tips", tips_cases @ List.map qtest [ tips_bijection; tips_striping ]);
      ("actuator", actuator_cases);
      ("timing", timing_cases);
      ("pdevice", pdevice_cases @ List.map qtest [ write_read_roundtrip; heat_then_erb ]);
      ( "run dispatch",
        List.map qtest
          [
            dispatch_read_equiv;
            dispatch_erb_equiv;
            dispatch_write_equiv;
            dispatch_remapped_equiv;
          ] );
      ( "sched",
        sched_cases
        @ [
            qtest sched_permutation;
            qtest sched_permutation_dups;
            qtest elevator_wrap;
          ] );
    ]
