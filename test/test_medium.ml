(* The patterned medium: dot state machine (Figure 2), packed state
   matrix, and the four bit operations. *)

let qtest = QCheck_alcotest.to_alcotest

let dot_state =
  QCheck.make
    (QCheck.Gen.oneofl
       [ Pmedia.Dot.Magnetised Pmedia.Dot.Up;
         Pmedia.Dot.Magnetised Pmedia.Dot.Down; Pmedia.Dot.Heated ])
    ~print:(Format.asprintf "%a" Pmedia.Dot.pp)

(* {1 Figure 2: state machine} *)

let dot_cases =
  [
    Alcotest.test_case "exhaustive transition table matches Figure 2" `Quick
      (fun () ->
        let expect =
          [
            (Pmedia.Dot.Magnetised Pmedia.Dot.Up, "mwb 0", Pmedia.Dot.Magnetised Pmedia.Dot.Down);
            (Pmedia.Dot.Magnetised Pmedia.Dot.Up, "mwb 1", Pmedia.Dot.Magnetised Pmedia.Dot.Up);
            (Pmedia.Dot.Magnetised Pmedia.Dot.Up, "ewb", Pmedia.Dot.Heated);
            (Pmedia.Dot.Magnetised Pmedia.Dot.Down, "mwb 0", Pmedia.Dot.Magnetised Pmedia.Dot.Down);
            (Pmedia.Dot.Magnetised Pmedia.Dot.Down, "mwb 1", Pmedia.Dot.Magnetised Pmedia.Dot.Up);
            (Pmedia.Dot.Magnetised Pmedia.Dot.Down, "ewb", Pmedia.Dot.Heated);
            (Pmedia.Dot.Heated, "mwb 0", Pmedia.Dot.Heated);
            (Pmedia.Dot.Heated, "mwb 1", Pmedia.Dot.Heated);
            (Pmedia.Dot.Heated, "ewb", Pmedia.Dot.Heated);
          ]
        in
        List.iter
          (fun (s, op, s') ->
            Alcotest.(check bool)
              (Format.asprintf "%a --%s--> %a" Pmedia.Dot.pp s op Pmedia.Dot.pp s')
              true
              (List.exists
                 (fun (a, b, c) ->
                   Pmedia.Dot.equal a s && String.equal b op && Pmedia.Dot.equal c s')
                 Pmedia.Dot.transition_table))
          expect;
        Alcotest.(check int) "exactly 9 edges" 9
          (List.length Pmedia.Dot.transition_table));
  ]

let heated_absorbing =
  QCheck.Test.make ~name:"Heated is absorbing" ~count:100 dot_state (fun s ->
      Pmedia.Dot.equal (Pmedia.Dot.transition_ewb s) Pmedia.Dot.Heated
      && Pmedia.Dot.equal
           (Pmedia.Dot.transition_mwb Pmedia.Dot.Heated Pmedia.Dot.Up)
           Pmedia.Dot.Heated)

let mwb_sets_direction =
  QCheck.Test.make ~name:"mwb sets direction on magnetised dots" ~count:100
    (QCheck.pair dot_state QCheck.bool) (fun (s, up) ->
      let d = Pmedia.Dot.of_bool up in
      match Pmedia.Dot.transition_mwb s d with
      | Pmedia.Dot.Magnetised d' -> Pmedia.Dot.equal_direction d d'
      | Pmedia.Dot.Heated -> Pmedia.Dot.is_heated s)

(* {1 Medium matrix} *)

(* The 4-neighbourhood of dot [i] in the order {!Pmedia.Medium.iter_neighbours}
   promises: left, right, up, down, off-medium dots dropped. *)
let neighbours_model m i =
  let c = Pmedia.Medium.cols m and rows = Pmedia.Medium.rows m in
  let row = i / c and col = i mod c in
  List.filter_map
    (fun (r, cl) ->
      if r < 0 || r >= rows || cl < 0 || cl >= c then None else Some ((r * c) + cl))
    [ (row, col - 1); (row, col + 1); (row - 1, col); (row + 1, col) ]

let neighbours m i =
  let seen = ref [] in
  Pmedia.Medium.iter_neighbours m i (fun j -> seen := j :: !seen);
  List.rev !seen

let medium_cases =
  [
    Alcotest.test_case "virgin medium all Down, none heated" `Quick (fun () ->
        let m = Pmedia.Medium.create (Pmedia.Medium.default_config ~rows:8 ~cols:8) in
        for i = 0 to 63 do
          Alcotest.(check bool) "down" true
            (Pmedia.Dot.equal (Pmedia.Medium.get m i)
               (Pmedia.Dot.Magnetised Pmedia.Dot.Down))
        done;
        Alcotest.(check int) "heated" 0
          (Pmedia.Medium.count_heated_run m ~start:0 ~len:64));
    Alcotest.test_case "out-of-range access raises" `Quick (fun () ->
        let m = Pmedia.Medium.create (Pmedia.Medium.default_config ~rows:4 ~cols:4) in
        Alcotest.check_raises "get"
          (Invalid_argument "Medium: dot index out of range") (fun () ->
            ignore (Pmedia.Medium.get m 16)));
    Alcotest.test_case "neighbours of corner, edge, interior" `Quick (fun () ->
        let m = Pmedia.Medium.create (Pmedia.Medium.default_config ~rows:4 ~cols:4) in
        Alcotest.(check (list int)) "corner" [ 1; 4 ] (List.sort compare (neighbours m 0));
        Alcotest.(check (list int)) "interior" [ 1; 4; 6; 9 ]
          (List.sort compare (neighbours m 5));
        Alcotest.(check (list int)) "edge" [ 2; 7 ]
          (List.sort compare (neighbours m 3)));
    Alcotest.test_case "defect rate places defects deterministically" `Quick
      (fun () ->
        let cfg =
          { (Pmedia.Medium.default_config ~rows:100 ~cols:100) with
            Pmedia.Medium.defect_rate = 0.05 }
        in
        let m1 = Pmedia.Medium.create cfg and m2 = Pmedia.Medium.create cfg in
        let count m =
          let n = ref 0 in
          for i = 0 to Pmedia.Medium.size m - 1 do
            if Pmedia.Medium.is_defect m i then incr n
          done;
          !n
        in
        let c1 = count m1 in
        Alcotest.(check int) "same seed, same defects" c1 (count m2);
        Alcotest.(check bool) "rate roughly honoured" true (c1 > 300 && c1 < 700));
  ]

let set_get_roundtrip =
  QCheck.Test.make ~name:"set/get roundtrip at any index" ~count:300
    QCheck.(pair (int_range 0 255) dot_state)
    (fun (i, s) ->
      let m = Pmedia.Medium.create (Pmedia.Medium.default_config ~rows:16 ~cols:16) in
      Pmedia.Medium.set m i s;
      Pmedia.Dot.equal (Pmedia.Medium.get m i) s)

(* The heated count is the production [count_heated_run] over the whole
   medium, against the last state written to each dot. *)
let heated_count_tracks =
  QCheck.Test.make ~name:"heated_count tracks set operations" ~count:100
    QCheck.(small_list (pair (int_range 0 63) dot_state))
    (fun writes ->
      let m = Pmedia.Medium.create (Pmedia.Medium.default_config ~rows:8 ~cols:8) in
      List.iter (fun (i, s) -> Pmedia.Medium.set m i s) writes;
      let last = Hashtbl.create 16 in
      List.iter (fun (i, s) -> Hashtbl.replace last i s) writes;
      let heated =
        Hashtbl.fold (fun _ s n -> if Pmedia.Dot.is_heated s then n + 1 else n) last 0
      in
      Pmedia.Medium.count_heated_run m ~start:0 ~len:64 = heated)

(* {1 Bit operations} *)

let make_ctx () =
  Pmedia.Bitops.make
    (Pmedia.Medium.create (Pmedia.Medium.default_config ~rows:16 ~cols:16))

let bitops_cases =
  [
    Alcotest.test_case "mwb then mrb reads back" `Quick (fun () ->
        let ctx = make_ctx () in
        Pmedia.Bitops.mwb ctx 3 Pmedia.Dot.Up;
        Alcotest.(check bool) "up" true
          (Pmedia.Dot.equal_direction (Pmedia.Bitops.mrb ctx 3) Pmedia.Dot.Up);
        Pmedia.Bitops.mwb ctx 3 Pmedia.Dot.Down;
        Alcotest.(check bool) "down" true
          (Pmedia.Dot.equal_direction (Pmedia.Bitops.mrb ctx 3) Pmedia.Dot.Down));
    Alcotest.test_case "ewb is irreversible; mwb has no effect after" `Quick
      (fun () ->
        let ctx = make_ctx () in
        Pmedia.Bitops.ewb ctx 7;
        Pmedia.Bitops.mwb ctx 7 Pmedia.Dot.Up;
        Alcotest.(check bool) "still heated" true
          (Pmedia.Dot.is_heated (Pmedia.Medium.get (Pmedia.Bitops.medium ctx) 7)));
    Alcotest.test_case "erb detects a heated dot (with enough cycles)" `Quick
      (fun () ->
        let ctx = make_ctx () in
        Pmedia.Bitops.ewb ctx 5;
        Alcotest.(check bool) "heated detected" true
          (Pmedia.Bitops.erb ~cycles:30 ctx 5));
    Alcotest.test_case "erb on healthy dot reports unheated and restores data"
      `Quick (fun () ->
        let ctx = make_ctx () in
        Pmedia.Bitops.mwb ctx 9 Pmedia.Dot.Up;
        Alcotest.(check bool) "not heated" false (Pmedia.Bitops.erb ~cycles:8 ctx 9);
        Alcotest.(check bool) "data intact" true
          (Pmedia.Dot.equal_direction (Pmedia.Bitops.mrb ctx 9) Pmedia.Dot.Up));
    Alcotest.test_case "erb sequence costs 5 primitive ops per cycle" `Quick
      (fun () ->
        let ctx = make_ctx () in
        Pmedia.Bitops.mwb ctx 2 Pmedia.Dot.Down;
        Pmedia.Bitops.reset_counters ctx;
        ignore (Pmedia.Bitops.erb ~cycles:1 ctx 2);
        let c = Pmedia.Bitops.counters ctx in
        Alcotest.(check int) "5 ops (3 reads + 2 writes)" 5
          (Pmedia.Bitops.primitive_ops c);
        Alcotest.(check int) "3 reads" 3 c.Pmedia.Bitops.mrb;
        Alcotest.(check int) "2 writes" 2 c.Pmedia.Bitops.mwb);
    Alcotest.test_case "mrb of heated dot is a coin flip" `Quick (fun () ->
        let ctx = make_ctx () in
        Pmedia.Bitops.ewb ctx 0;
        let ups = ref 0 in
        for _ = 1 to 400 do
          if Pmedia.Dot.equal_direction (Pmedia.Bitops.mrb ctx 0) Pmedia.Dot.Up
          then incr ups
        done;
        Alcotest.(check bool) "roughly balanced" true (!ups > 120 && !ups < 280));
    Alcotest.test_case "defective dot reads inverted" `Quick (fun () ->
        let cfg =
          { (Pmedia.Medium.default_config ~rows:32 ~cols:32) with
            Pmedia.Medium.defect_rate = 0.2 }
        in
        let medium = Pmedia.Medium.create cfg in
        let ctx = Pmedia.Bitops.make medium in
        (* find a defect *)
        let defect = ref (-1) in
        for i = 0 to Pmedia.Medium.size medium - 1 do
          if !defect < 0 && Pmedia.Medium.is_defect medium i then defect := i
        done;
        Alcotest.(check bool) "found a defect" true (!defect >= 0);
        Pmedia.Bitops.mwb ctx !defect Pmedia.Dot.Up;
        Alcotest.(check bool) "reads inverted" true
          (Pmedia.Dot.equal_direction (Pmedia.Bitops.mrb ctx !defect) Pmedia.Dot.Down));
    Alcotest.test_case "aggressive thermal profile causes collateral damage"
      `Quick (fun () ->
        (* A low-mixing-temperature material under an overdriven pulse
           with hardly any substrate heat-sinking: the neighbour reaches
           ~1000 C and its interfaces mix within the pulse. *)
        let cfg =
          { (Pmedia.Medium.default_config ~rows:32 ~cols:32) with
            Pmedia.Medium.material = Physics.Constants.co_pt_low_temp }
        in
        let medium = Pmedia.Medium.create cfg in
        let profile =
          {
            (Physics.Thermal.default_profile cfg.Pmedia.Medium.geometry) with
            Physics.Thermal.peak_temp_c = 5000.;
            decay_length = 50. *. cfg.Pmedia.Medium.geometry.Physics.Constants.pitch;
          }
        in
        let ctx = Pmedia.Bitops.make ~profile medium in
        for i = 100 to 140 do
          Pmedia.Bitops.ewb ctx i
        done;
        let c = Pmedia.Bitops.counters ctx in
        Alcotest.(check bool) "collateral > 0" true (c.Pmedia.Bitops.collateral > 0));
  ]

let erb_false_negative_rate =
  Alcotest.test_case "erb misses a heated dot ~25% per single cycle (paper flaw)"
    `Quick (fun () ->
      let ctx = make_ctx () in
      Pmedia.Bitops.ewb ctx 11;
      let missed = ref 0 in
      for _ = 1 to 1000 do
        if not (Pmedia.Bitops.erb ~cycles:1 ctx 11) then incr missed
      done;
      (* P(miss) = 1/4: both verification reads agree by luck. *)
      Alcotest.(check bool) "20%..31%" true (!missed > 200 && !missed < 310))

(* {1 Run kernels}

   The bulk mrb/mwb/erb kernels must be indistinguishable from the
   per-dot scalar ops: same medium state, same counter charges, same
   PRNG stream position afterwards.  Each property builds twin
   media/ctxs from the same config, scrambles both with the same op
   prefix, then runs the kernel on one and a hand-written scalar loop
   on the other. *)

let run_access_cases =
  [
    Alcotest.test_case "count_heated_run matches a naive count" `Quick
      (fun () ->
        let m = Pmedia.Medium.create (Pmedia.Medium.default_config ~rows:16 ~cols:16) in
        List.iter
          (fun i -> Pmedia.Medium.set m i Pmedia.Dot.Heated)
          [ 0; 1; 5; 63; 64; 100; 255 ];
        List.iter
          (fun (start, len) ->
            let naive = ref 0 in
            for i = start to start + len - 1 do
              if Pmedia.Dot.is_heated (Pmedia.Medium.get m i) then incr naive
            done;
            Alcotest.(check int)
              (Printf.sprintf "run [%d, %d)" start (start + len))
              !naive
              (Pmedia.Medium.count_heated_run m ~start ~len))
          [ (0, 256); (0, 1); (1, 7); (3, 99); (60, 8); (255, 1); (10, 0) ]);
    Alcotest.test_case "run_defect_free never false-accepts" `Quick (fun () ->
        let cfg =
          { (Pmedia.Medium.default_config ~rows:32 ~cols:32) with
            Pmedia.Medium.defect_rate = 0.03 }
        in
        let m = Pmedia.Medium.create cfg in
        for start = 0 to 200 do
          let len = 1 + (start * 7 mod 64) in
          if Pmedia.Medium.run_defect_free m ~start ~len then
            for i = start to start + len - 1 do
              Alcotest.(check bool)
                (Printf.sprintf "dot %d clean" i)
                false
                (Pmedia.Medium.is_defect m i)
            done
        done;
        let clean = Pmedia.Medium.create (Pmedia.Medium.default_config ~rows:32 ~cols:32) in
        Alcotest.(check bool) "defect-free medium accepts" true
          (Pmedia.Medium.run_defect_free clean ~start:0 ~len:1024));
    Alcotest.test_case "iter_neighbours visits neighbours in list order"
      `Quick (fun () ->
        let m = Pmedia.Medium.create (Pmedia.Medium.default_config ~rows:5 ~cols:7) in
        for i = 0 to Pmedia.Medium.size m - 1 do
          Alcotest.(check (list int))
            (Printf.sprintf "dot %d" i)
            (neighbours_model m i) (neighbours m i)
        done);
  ]

(* The injector plan of a twin pair, placed against the run about to
   be raced: the run covers dots [start, start + len), begins at
   injector op [ops0] (the scramble ticks once per op) and ticks
   [ticks] times, or at most that for erb.  Inert plans let the kernel
   credit the run's ticks in one step, and a noisy window leaves a
   magnetic read to the packed kernel, which replays its flips; the rest
   must send it down the per-dot loop, so the cut fires and the ledger
   fills exactly as the hand-written loop's do. *)
let run_plan fault ~start ~len ~ops0 ~ticks =
  let cut n = Some (Fault.Plan.make ~power_cut_after_ops:(max 0 n) ()) in
  let death after_ops =
    Some
      (Fault.Plan.make ~tip_deaths:[ { Fault.Plan.tip = 0; after_ops } ] ())
  in
  let region first_dot n_dots = { Fault.Plan.first_dot; n_dots; ber = 0.3 } in
  match fault with
  | 1 -> Some (Fault.Plan.make ())
  | 2 ->
      (* A noisy window over the middle of the run. *)
      Some
        (Fault.Plan.make ~seed:11
           ~targeted:[ region (start + (len / 2)) 8 ]
           ())
  | 3 ->
      (* Noisy windows flush against both ends, touching no dot of it. *)
      Some
        (Fault.Plan.make ~seed:11
           ~targeted:[ region (start + len) 8; region (max 0 (start - 8)) (min 8 start) ]
           ())
  | 4 -> cut (ops0 - 1) (* fires in the scramble: disarmed by the run *)
  | 5 -> cut ops0 (* on the run's first tick *)
  | 6 -> cut (ops0 + (ticks / 2))
  | 7 -> cut (ops0 + ticks - 1) (* on its last tick *)
  | 8 -> cut (ops0 + ticks) (* on the op after it *)
  | 9 -> cut (ops0 + ticks + 7)
  | 10 -> death (ops0 + (ticks / 2))
  | 11 -> death (ops0 + ticks)
  | 12 ->
      (* A window over the whole run, under a BER-1 window (the no-draw
         edge) over its middle half, which takes precedence there. *)
      Some
        (Fault.Plan.make ~seed:11
           ~targeted:
             [
               { Fault.Plan.first_dot = start + (len / 4); n_dots = len / 2; ber = 1. };
               region (max 0 (start - 4)) (len + 8);
             ]
           ())
  | 13 ->
      (* Windows straddling either end, over a global read BER. *)
      let straddle dot = region (max 0 (dot - 8)) 16 in
      Some
        (Fault.Plan.make ~seed:11 ~read_ber:0.01
           ~targeted:[ straddle start; straddle (start + len) ]
           ())
  | _ -> None

(* Twin setups for the equivalence properties, both under [plan], with
   their electrical runs drawn through [window] if one is given. *)
let make_twin ?plan ?window (seed, dr_idx) ops =
  let defect_rate = [| 0.; 0.02; 0.1 |].(dr_idx) in
  let cfg =
    { (Pmedia.Medium.default_config ~rows:16 ~cols:16) with
      Pmedia.Medium.defect_rate; seed }
  in
  let make () =
    let m = Pmedia.Medium.create cfg in
    let ctx =
      match window with
      | None -> Pmedia.Bitops.make m
      | Some w -> Pmedia.Bitops.Window.make w m
    in
    Option.iter
      (fun p -> Pmedia.Bitops.set_fault ctx (Some (Fault.Injector.create p)))
      plan;
    (* Scramble: same deterministic prefix of scalar ops on both twins
       so runs cross heated, Up and Down dots.  A cut in it is the
       reboot the run starts from. *)
    List.iter
      (fun (i, v) ->
        try
          if v mod 5 = 0 then Pmedia.Bitops.ewb ctx i
          else Pmedia.Bitops.mwb ctx i (Pmedia.Dot.of_bool (v mod 2 = 0))
        with Fault.Injector.Power_cut -> ())
      ops;
    (m, ctx)
  in
  (make (), make ())

(* [f ()], and the injector op at which it was cut short, if it was. *)
let cut_op ctx f =
  match f () with
  | () -> None
  | exception Fault.Injector.Power_cut ->
      Option.map Fault.Injector.ops (Pmedia.Bitops.fault ctx)

let packed_string m =
  let len = Pmedia.Medium.packed_length m in
  let b = Bytes.create len in
  Pmedia.Medium.blit_packed m ~pos:0 ~dst:b ~dst_off:0 ~len;
  Bytes.unsafe_to_string b

(* Equality of everything the kernel could disturb: medium state bytes,
   op counters, the PRNG stream position (read from copies, so a twin
   can be compared again), and the injector's op count and ledger. *)
let twins_agree (m1, ctx1) (m2, ctx2) =
  let c1 = Pmedia.Bitops.counters ctx1 and c2 = Pmedia.Bitops.counters ctx2 in
  let injector ctx =
    Option.map
      (fun inj -> (Fault.Injector.ops inj, Fault.Injector.ledger_to_string inj))
      (Pmedia.Bitops.fault ctx)
  in
  injector ctx1 = injector ctx2
  && String.equal (packed_string m1) (packed_string m2)
  && c1.Pmedia.Bitops.mrb = c2.Pmedia.Bitops.mrb
  && c1.Pmedia.Bitops.mwb = c2.Pmedia.Bitops.mwb
  && c1.Pmedia.Bitops.ewb = c2.Pmedia.Bitops.ewb
  && c1.Pmedia.Bitops.erb = c2.Pmedia.Bitops.erb
  && c1.Pmedia.Bitops.collateral = c2.Pmedia.Bitops.collateral
  && Sim.Prng.bits64 (Sim.Prng.copy (Pmedia.Medium.rng m1))
     = Sim.Prng.bits64 (Sim.Prng.copy (Pmedia.Medium.rng m2))

(* The second component is a {!run_plan} variant (three values in
   sixteen install no injector).  The last is (start, length), an erb
   cycles index into {!erb_cycles}, a destination bit offset, and
   whether to byte-align the magnetic run (half the cases, so the packed
   kernels get their share). *)
let equiv_arb =
  QCheck.(
    quad
      (pair (int_range 1 9999) (int_range 0 2))
      (int_range 0 15)
      (small_list (pair (int_range 0 255) (int_range 0 9)))
      (quad (pair (int_range 0 255) (int_range 0 255)) (int_range 0 4)
         (int_range 0 15) bool))

(* Up to four cycles the outcome table settles every heated dot; from
   five on it leaves four passing rounds to the per-round loop. *)
let erb_cycles = [| 1; 2; 3; 8; 24 |]

let clamp_run start len_raw = (start, min len_raw (256 - start))

(* A magnetic run with its bit offset, aligned to whole bytes on
   request. *)
let magnetic_run start len_raw off aligned =
  let a x = if aligned then x land lnot 7 else x in
  let start = a start in
  (start, a (min len_raw (256 - start)), a off)

(* A buffer of random bytes with room for [len] bits at [off], so the
   kernels must leave the bits around the run alone. *)
let noise_bytes seed ~off ~len =
  let rng = Sim.Prng.create seed in
  Bytes.init (((off + len) / 8) + 2) (fun _ -> Char.chr (Sim.Prng.int rng 256))

let test_bit b i = Char.code (Bytes.get b (i / 8)) land (0x80 lsr (i mod 8)) <> 0

let put_bit b i v =
  let m = 0x80 lsr (i mod 8) and c = Char.code (Bytes.get b (i / 8)) in
  Bytes.set b (i / 8) (Char.chr (if v then c lor m else c land lnot m))

(* Every window the native erb kernel can draw through on this CPU: the
   scalar one everywhere, the AVX-512DQ one where CPUID reports it.
   The erb twins race each of them. *)
let windows =
  Pmedia.Bitops.Window.scalar :: Option.to_list Pmedia.Bitops.Window.vector

(* The OCaml lookahead walk, the native kernel's oracle.  It loads bit
   0 of the next 62 draws into a window without advancing the PRNG
   ([bool_window], from a copy), settles each heated dot from the next
   twelve of them through the per-[cycles] outcome table, runs the
   rounds one by one from the PRNG itself when twelve draws leave a dot
   open, and catches the PRNG up ([skip], draw by draw) before each
   refill and at the end.  Only the fast path is modelled: callers run
   it without an injector, over defect-free runs. *)
module Erb_oracle = struct
  let bool_window rng =
    let c = Sim.Prng.copy rng and w = ref 0 in
    for k = 0 to 61 do
      if Sim.Prng.bool c then w := !w lor (1 lsl k)
    done;
    !w

  let skip rng n =
    for _ = 1 to n do
      ignore (Sim.Prng.bits64 rng)
    done

  (* Heated dots of a state byte as a mask, bit [j] = dot [j]. *)
  let heated_mask =
    Array.init 256 (fun b ->
        let m = ref 0 in
        for j = 0 to 3 do
          m := !m lor (((b lsr ((2 * j) + 1)) land 1) lsl j)
        done;
        !m)

  (* Entry [(c - 1) * 4096 + w]: the outcome when bit [k] of [w] is the
     [k]-th draw and [cycles = c] ([c = 5] for every [cycles >= 5]):
     draws in bits 0-3, rounds in bits 4-6, detected in bit 7, or 0
     when twelve draws do not settle it. *)
  let erb_outcomes =
    String.init (5 * 4096) (fun idx ->
        let cycles = (idx lsr 12) + 1 and w = idx land 4095 in
        let bit k = (w lsr k) land 1 in
        let rec round r pos =
          if r = cycles then pos lor (r lsl 4)
          else if pos + 3 > 12 then 0
          else if bit (pos + 1) = bit pos then
            (pos + 2) lor ((r + 1) lsl 4) lor 0x80
          else if bit (pos + 2) <> bit pos then
            (pos + 3) lor ((r + 1) lsl 4) lor 0x80
          else round (r + 1) (pos + 3)
        in
        Char.chr (round 0 0))

  let outcome table win =
    Char.code (String.unsafe_get erb_outcomes (table lor (win land 4095)))

  (* For each 4-bit mask of heated dots, its population (bits 0-2) and
     its set bits' offsets, ascending, two bits each from bit 3. *)
  let mask_dots =
    Array.init 16 (fun m ->
        let e = ref 0 and k = ref 0 in
        for j = 0 to 3 do
          if m land (1 lsl j) <> 0 then begin
            e := !e lor (j lsl (3 + (2 * !k)));
            incr k
          end
        done;
        !e lor !k)

  (* [win] holds the next [avail] draws' bits out of the [limit] the
     last refill loaded; the PRNG stands [limit - avail] draws behind
     them.  [rem] lists the heated dots of the state byte at dot [q4]
     not yet visited, as {!mask_dots} does. *)
  type walk = {
    mutable q4 : int;
    mutable rem : int;
    mutable win : int;
    mutable avail : int;
    mutable limit : int;
    mutable clean : int;
    mutable heated_mrb : int;
    mutable heated_mwb : int;
  }

  let heated_dots (states : Pmedia.Medium.states) ~base q4 ~lo ~hi =
    mask_dots.(heated_mask.(Char.code states.{(q4 lsr 2) - base})
               land ((1 lsl hi) - (1 lsl lo)))

  let next_dot rem = ((rem lsr 2) land lnot 7) lor ((rem land 7) - 1)

  let commit rng walk =
    let used = walk.limit - walk.avail in
    skip rng used;
    walk.heated_mrb <- walk.heated_mrb + used;
    walk.limit <- walk.avail

  (* One chunk: dot [d] lands on bit [d + dst_off] of [dst]. *)
  let chunk ~cycles ~table rng walk dst ~dst_off states ~base ~start ~len =
    let stop = start + len in
    let rec step q4 rem win avail clean mwb =
      let k = rem land 7 in
      if k = 0 && q4 + 4 < stop then begin
        let q4 = q4 + 4 in
        let hi = if stop - q4 < 4 then stop - q4 else 4 in
        let rem = heated_dots states ~base q4 ~lo:0 ~hi in
        step q4 rem win avail (clean + hi - (rem land 7)) mwb
      end
      else begin
        let e = if k = 0 then 0 else outcome table win in
        let n = e land 15 in
        if n = 0 || n > avail then begin
          walk.q4 <- q4;
          walk.rem <- rem;
          walk.win <- win;
          walk.avail <- avail;
          walk.clean <- clean;
          walk.heated_mwb <- mwb
        end
        else begin
          if e land 0x80 <> 0 then
            Pmedia.Bitops.set_bit dst (q4 + ((rem lsr 3) land 3) + dst_off) true;
          step q4 (next_dot rem) (win lsr n) (avail - n) clean
            (mwb + (2 * ((e lsr 4) land 7)))
        end
      end
    in
    let q4 = start land lnot 3 in
    let hi = if stop - q4 < 4 then stop - q4 else 4 in
    let rem = heated_dots states ~base q4 ~lo:(start - q4) ~hi in
    walk.q4 <- q4;
    walk.rem <- rem;
    walk.clean <- walk.clean + hi - (start - q4) - (rem land 7);
    let continue = ref true in
    while !continue do
      step walk.q4 walk.rem walk.win walk.avail walk.clean walk.heated_mwb;
      if walk.rem land 7 = 0 then continue := false
      else begin
        commit rng walk;
        walk.win <- bool_window rng;
        walk.avail <- 62;
        walk.limit <- 62;
        if outcome table walk.win = 0 then begin
          let detected = ref false and cyc = ref 0 in
          while (not !detected) && !cyc < cycles do
            incr cyc;
            let original = Sim.Prng.bool rng in
            let check1 = Sim.Prng.bool rng in
            walk.heated_mwb <- walk.heated_mwb + 2;
            if check1 = original then begin
              walk.heated_mrb <- walk.heated_mrb + 2;
              detected := true
            end
            else begin
              let check2 = Sim.Prng.bool rng in
              walk.heated_mrb <- walk.heated_mrb + 3;
              if check2 <> original then detected := true
            end
          done;
          if !detected then
            Pmedia.Bitops.set_bit dst
              (walk.q4 + ((walk.rem lsr 3) land 3) + dst_off)
              true;
          walk.rem <- next_dot walk.rem;
          walk.win <- 0;
          walk.avail <- 0;
          walk.limit <- 0
        end
      end
    done

  let erb_run ~cycles ctx ~start ~len ~dst ~dst_pos =
    let m = Pmedia.Bitops.medium ctx in
    assert (Pmedia.Bitops.fault ctx = None);
    assert (Pmedia.Medium.run_defect_free m ~start ~len);
    let c = Pmedia.Bitops.counters ctx in
    c.Pmedia.Bitops.erb <- c.Pmedia.Bitops.erb + len;
    for k = 0 to len - 1 do
      put_bit dst (dst_pos + k) false
    done;
    let rng = Pmedia.Medium.rng m in
    let walk =
      { q4 = 0; rem = 0; win = 0; avail = 0; limit = 0; clean = 0;
        heated_mrb = 0; heated_mwb = 0 }
    in
    Pmedia.Medium.iter_chunks m ~write:false ~start ~len
      (chunk ~cycles ~table:((min cycles 5 - 1) lsl 12) rng walk dst
         ~dst_off:(dst_pos - start));
    commit rng walk;
    c.Pmedia.Bitops.mrb <-
      c.Pmedia.Bitops.mrb + (3 * cycles * walk.clean) + walk.heated_mrb;
    c.Pmedia.Bitops.mwb <-
      c.Pmedia.Bitops.mwb + (2 * cycles * walk.clean) + walk.heated_mwb
end

let mrb_run_equiv =
  QCheck.Test.make ~name:"mrb_run == per-dot mrb loop" ~count:400 equiv_arb
    (fun (((seed, _) as seeds), fault, ops, ((start, len_raw), _, off, aligned)) ->
      let start, len, off = magnetic_run start len_raw off aligned in
      let plan = run_plan fault ~start ~len ~ops0:(List.length ops) ~ticks:len in
      let ((_, ctx1) as t1), ((_, ctx2) as t2) = make_twin ?plan seeds ops in
      let d1 = noise_bytes seed ~off ~len in
      let d2 = Bytes.copy d1 in
      let cut1 =
        cut_op ctx1 (fun () ->
            Pmedia.Bitops.mrb_run ctx1 ~start ~len ~dst:d1 ~dst_pos:off)
      in
      let cut2 =
        cut_op ctx2 (fun () ->
            for k = 0 to len - 1 do
              put_bit d2 (off + k)
                (Pmedia.Dot.to_bool (Pmedia.Bitops.mrb ctx2 (start + k)))
            done)
      in
      cut1 = cut2 && Bytes.equal d1 d2 && twins_agree t1 t2)

let mwb_run_equiv =
  QCheck.Test.make ~name:"mwb_run == per-dot mwb loop" ~count:400 equiv_arb
    (fun (((seed, _) as seeds), fault, ops, ((start, len_raw), _, off, aligned)) ->
      let start, len, off = magnetic_run start len_raw off aligned in
      let plan = run_plan fault ~start ~len ~ops0:(List.length ops) ~ticks:len in
      let ((_, ctx1) as t1), ((_, ctx2) as t2) = make_twin ?plan seeds ops in
      let src = noise_bytes (seed + 1) ~off ~len in
      let cut1 =
        cut_op ctx1 (fun () ->
            Pmedia.Bitops.mwb_run ctx1 ~start ~len ~src ~src_pos:off)
      in
      let cut2 =
        cut_op ctx2 (fun () ->
            for k = 0 to len - 1 do
              Pmedia.Bitops.mwb ctx2 (start + k)
                (Pmedia.Dot.of_bool (test_bit src (off + k)))
            done)
      in
      cut1 = cut2 && twins_agree t1 t2)

(* Packed reads through noise over heated dots, the kernel's draw
   edges: every [gap]-th dot of the run heated, a noisy window over its
   first half (at the wear ramp's 0.005, at 0.3, or at 1, which flips
   without drawing) over a global read BER.  The replayed flips must
   skip each heated dot, draw once per magnetised one and carry the op
   number of its own tick; the run must take the packed kernel. *)
let mrb_run_flips_equiv =
  QCheck.Test.make ~name:"mrb_run replays read flips around heated dots"
    ~count:200
    QCheck.(
      quad (int_range 1 9999) (int_range 2 5)
        (oneofl [ 0.005; 0.3; 1. ])
        (pair (int_range 0 31) (int_range 1 32)))
    (fun (seed, gap, ber, (s8, l8)) ->
      let start = 8 * s8 in
      let len = 8 * min l8 (32 - s8) in
      let plan =
        Fault.Plan.make ~seed ~read_ber:0.01
          ~targeted:
            [ { Fault.Plan.first_dot = max 0 (start - 4); n_dots = (len / 2) + 4; ber } ]
          ()
      in
      let ops =
        List.init len (fun k ->
            (start + k, if k mod gap = 0 then 0 else 1 + ((seed + k) mod 4)))
      in
      let ((_, ctx1) as t1), ((_, ctx2) as t2) = make_twin ~plan (seed, 0) ops in
      let packed = Pmedia.Bitops.mrb_run_fast ctx1 ~start ~len in
      let d1 = Bytes.make (len / 8) '\000' and d2 = Bytes.make (len / 8) '\000' in
      Pmedia.Bitops.mrb_run ctx1 ~start ~len ~dst:d1 ~dst_pos:0;
      for k = 0 to len - 1 do
        put_bit d2 k (Pmedia.Dot.to_bool (Pmedia.Bitops.mrb ctx2 (start + k)))
      done;
      packed && Bytes.equal d1 d2 && twins_agree t1 t2)

(* [len] per-dot erb calls written into [d], the kernel's reference. *)
let erb_loop_into ~cycles ctx ~start ~len d ~off =
  for k = 0 to len - 1 do
    put_bit d (off + k) (Pmedia.Bitops.erb ~cycles ctx (start + k))
  done

let erb_loop ~cycles ctx ~start ~len dst ~off =
  let d = Bytes.copy dst in
  erb_loop_into ~cycles ctx ~start ~len d ~off;
  d

(* A plan's ticks are placed against the kernel's bound, five a cycle
   per dot: the exact count is only known after the run.  The kernel
   runs under every window. *)
let erb_run_equiv =
  QCheck.Test.make ~name:"erb_run == per-dot erb loop" ~count:200 equiv_arb
    (fun (((seed, _) as seeds), fault, ops, ((start, len_raw), cyc, off, _)) ->
      let start, len = clamp_run start len_raw in
      let cycles = erb_cycles.(cyc) in
      let plan =
        run_plan fault ~start ~len ~ops0:(List.length ops)
          ~ticks:(5 * cycles * len)
      in
      List.for_all
        (fun window ->
          let ((_, ctx1) as t1), ((_, ctx2) as t2) =
            make_twin ?plan ~window seeds ops
          in
          let d1 = noise_bytes seed ~off ~len in
          let d2 = Bytes.copy d1 in
          let cut1 =
            cut_op ctx1 (fun () ->
                Pmedia.Bitops.erb_run ~cycles ctx1 ~start ~len ~dst:d1
                  ~dst_pos:off)
          in
          let cut2 =
            cut_op ctx2 (fun () -> erb_loop_into ~cycles ctx2 ~start ~len d2 ~off)
          in
          cut1 = cut2 && Bytes.equal d1 d2 && twins_agree t1 t2)
        windows)

(* Which plans the packed read kernel may run under: only those that
   cannot act on the run's own ticks and dots other than by read flips. *)
let inert_keeps_packed =
  Alcotest.test_case "an injector that cannot act keeps the packed kernel"
    `Quick (fun () ->
      let start = 64 and len = 64 in
      List.iter
        (fun (fault, want) ->
          let _, (_, ctx) =
            make_twin ?plan:(run_plan fault ~start ~len ~ops0:0 ~ticks:len)
              (1, 0) []
          in
          Alcotest.(check bool)
            (Printf.sprintf "plan variant %d" fault)
            want
            (Pmedia.Bitops.mrb_run_fast ctx ~start ~len))
        [
          (0, true); (1, true); (2, true); (3, true); (5, false); (6, false);
          (7, false); (8, true); (9, true); (10, false); (11, true); (12, true);
          (13, true);
        ])

(* A mostly heated medium, read over and over under every window:
   thousands of heated dots per cycle count, so the draws run out
   mid-byte and, from five cycles on, dozens of dots need the
   per-round loop. *)
let erb_run_dense =
  Alcotest.test_case "erb_run == per-dot erb loop over dense heat" `Quick
    (fun () ->
      Array.iter
        (fun cycles ->
          List.iter
            (fun window ->
              let make ctx_of =
                let m =
                  Pmedia.Medium.create
                    (Pmedia.Medium.default_config ~rows:16 ~cols:16)
                in
                let ctx = ctx_of m in
                for i = 0 to 255 do
                  if i mod 7 <> 3 then Pmedia.Bitops.ewb ctx i
                done;
                (m, ctx)
              in
              let ((_, ctx1) as t1), ((_, ctx2) as t2) =
                (make (Pmedia.Bitops.Window.make window), make Pmedia.Bitops.make)
              in
              let name = Pmedia.Bitops.Window.name window in
              for pass = 0 to 39 do
                let start = pass mod 5 and off = pass mod 11 in
                let len = 256 - start - (pass mod 3) in
                let d1 = noise_bytes pass ~off ~len in
                let d2 = erb_loop ~cycles ctx2 ~start ~len d1 ~off in
                Pmedia.Bitops.erb_run ~cycles ctx1 ~start ~len ~dst:d1 ~dst_pos:off;
                Alcotest.(check bool)
                  (Printf.sprintf "%s cycles %d pass %d bits" name cycles pass)
                  true (Bytes.equal d1 d2)
              done;
              Alcotest.(check bool)
                (Printf.sprintf "%s cycles %d twins" name cycles)
                true (twins_agree t1 t2))
            windows)
        erb_cycles)

(* {1 Word kernels across segments}

   The packed kernels take eight state bytes (32 dots, four image bytes)
   per step inside a segment chunk and finish each chunk pair by pair.
   These twins race them against the per-dot loops on a medium of four
   segments, on CoW clones of a written parent, so each write chunk
   materialises its segment before the kernel stores into it.  Runs
   straddle a segment boundary, their lengths are whole bytes but not
   whole words, and their heated dots fall at random, at one chosen
   position of the run's first word and, in half the cases, over all of
   its second word. *)
let seg_dots = 4 * Pmedia.Medium.segment_bytes

(* 8 x 6,200 dots: three full segments and part of a fourth. *)
let word_config = Pmedia.Medium.default_config ~rows:8 ~cols:6200

(* A parent with magnetic data over [lo, hi), set dot by dot, then the
   [heated] dots.  [ones] picks how often a dot is Up: never, 1 in 64,
   half the time or always.  A word whose other dots are all Down or
   all Up must not pass for a clean one. *)
let word_parent rng ~ones ~lo ~hi heated =
  let m = Pmedia.Medium.create word_config in
  for i = lo to hi - 1 do
    let up =
      match ones with
      | 0 -> false
      | 1 -> Sim.Prng.int rng 64 = 0
      | 2 -> Sim.Prng.bool rng
      | _ -> true
    in
    Pmedia.Medium.set m i (Pmedia.Dot.Magnetised (Pmedia.Dot.of_bool up))
  done;
  List.iter (fun i -> Pmedia.Medium.set m i Pmedia.Dot.Heated) heated;
  m

(* [mrb_run] and [mwb_run] over [start, start+len) of CoW clones of
   [parent] against the per-dot loops, at bit offset [off] into noise.
   Reads: the same bits inside the noise, the same clones, counters and
   PRNG position, and the packed kernel taken.  Writes: the same
   clones, and each segment the run touches made private by the kernel.
   The parent must come through untouched. *)
let race_word_kernels parent ~seed ~start ~len ~off =
  let image = packed_string parent in
  let twin () =
    let m = Pmedia.Medium.clone parent in
    (m, Pmedia.Bitops.make m)
  in
  let ((_, r1) as t1), ((_, r2) as t2) = (twin (), twin ()) in
  let d1 = noise_bytes seed ~off ~len in
  let d2 = Bytes.copy d1 in
  let packed = Pmedia.Bitops.mrb_run_fast r1 ~start ~len in
  Pmedia.Bitops.mrb_run r1 ~start ~len ~dst:d1 ~dst_pos:off;
  for k = 0 to len - 1 do
    put_bit d2 (off + k) (Pmedia.Dot.to_bool (Pmedia.Bitops.mrb r2 (start + k)))
  done;
  let reads = packed && Bytes.equal d1 d2 && twins_agree t1 t2 in
  let ((m3, w3) as t3), ((_, w4) as t4) = (twin (), twin ()) in
  let src = noise_bytes (seed + 1) ~off ~len in
  Pmedia.Bitops.mwb_run w3 ~start ~len ~src ~src_pos:off;
  for k = 0 to len - 1 do
    Pmedia.Bitops.mwb w4 (start + k) (Pmedia.Dot.of_bool (test_bit src (off + k)))
  done;
  let segments = ((start + len - 1) / seg_dots) - (start / seg_dots) + 1 in
  reads && twins_agree t3 t4
  && Pmedia.Medium.owned_segments m3 = segments
  && String.equal (packed_string parent) image

(* (seed, boundary), (length in bytes, bytes of it before the boundary),
   (heated position in the first word, random heat density, data
   density), and the buffer's byte offset. *)
let word_twin_arb =
  QCheck.(
    quad
      (pair (int_range 0 1_000_000) (int_range 1 3))
      (pair (int_range 5 400) (int_range 0 400))
      (triple (int_range 0 31) (int_range 0 3) (int_range 0 3))
      (int_range 0 7))

let word_kernel_twins =
  QCheck.Test.make
    ~name:"word kernels == per-dot loops across segments of a CoW clone"
    ~count:300 ~long_factor:20 word_twin_arb
    (fun ((seed, bnd), (len8, before), (q, dens, ones), byte_off) ->
      let len8 = if len8 land 3 = 0 then len8 + 1 else len8 in
      let len = 8 * len8 and size = 8 * 6200 in
      let start = min ((bnd * seg_dots) - (8 * (before mod (len8 + 1)))) (size - len) in
      let lo = max 0 (start - 64) and hi = min size (start + len + 64) in
      let rng = Sim.Prng.create seed in
      (* From density 2 on, the run's second word is heated whole. *)
      let whole =
        if dens >= 2 && len >= 64 then List.init 32 (fun k -> start + 32 + k)
        else []
      in
      let scattered =
        List.init (4 * dens * dens) (fun _ -> lo + Sim.Prng.int rng (hi - lo))
      in
      let heated = (start + q) :: (whole @ scattered) in
      let parent = word_parent rng ~ones ~lo ~hi heated in
      race_word_kernels parent ~seed ~start ~len ~off:(8 * byte_off))

let word_kernel_cases =
  [
    (* What the kernels allocate is their chunk closure: 9 words to
       read a 4,832-dot run (one sector image), 8 to write it. *)
    Alcotest.test_case "mrb_run and mwb_run allocation on a sector run" `Quick
      (fun () ->
        let m =
          Pmedia.Medium.create (Pmedia.Medium.default_config ~rows:8 ~cols:4832)
        in
        let ctx = Pmedia.Bitops.make m in
        List.iter (fun i -> Pmedia.Medium.set m (4832 + i) Pmedia.Dot.Heated) [ 5; 900; 4000 ];
        let src = Bytes.init 604 (fun i -> Char.chr ((i * 37) land 0xFF))
        and dst = Bytes.create 604 in
        let words f =
          f ();
          let before = Gc.minor_words () in
          for _ = 1 to 100 do
            f ()
          done;
          (Gc.minor_words () -. before) /. 100.
        in
        let w =
          words (fun () -> Pmedia.Bitops.mwb_run ctx ~start:4832 ~len:4832 ~src ~src_pos:0)
        in
        let r =
          words (fun () -> Pmedia.Bitops.mrb_run ctx ~start:4832 ~len:4832 ~dst ~dst_pos:0)
        in
        Alcotest.(check bool) (Printf.sprintf "mwb_run %.1f words <= 8" w) true (w <= 8.);
        Alcotest.(check bool) (Printf.sprintf "mrb_run %.1f words <= 9" r) true (r <= 9.));
  ]

(* Heat where the read kernel stops and resumes: the kernel takes a
   chunk's words from the chunk's first dot (the run's start, or the
   segment boundary the run straddles), returns at the first word with a
   heated field, and OCaml draws that word's coin flips before calling
   it again from the next word.  Each word edge of either chunk gets no
   heat, its word's first dot, the previous word's last dot or both, so
   heated words come alone, in runs and between clean ones; the run's
   last pairs, past its last whole word, get heat in some cases too. *)
let word_boundary_twins =
  QCheck.Test.make
    ~name:"word kernels stop and resume at heated word edges across segments"
    ~count:300 ~long_factor:20
    QCheck.(
      quad
        (pair (int_range 0 1_000_000) (int_range 1 3))
        (pair (int_range 5 400) (int_range 0 400))
        (int_range 0 3) (int_range 0 7))
    (fun ((seed, bnd), (len8, before), ones, byte_off) ->
      let len = 8 * len8 and size = 8 * 6200 and bnd = bnd * seg_dots in
      let start = min (bnd - (8 * (before mod (len8 + 1)))) (size - len) in
      let lo = max 0 (start - 64) and hi = min size (start + len + 64) in
      let rng = Sim.Prng.create seed in
      let edges first = List.init ((len / 32) + 2) (fun k -> first + (32 * k)) in
      let heated =
        List.concat_map
          (fun e ->
            match Sim.Prng.int rng 4 with
            | 0 -> []
            | 1 -> [ e ]
            | 2 -> [ e - 1 ]
            | _ -> [ e - 1; e ])
          (edges start @ edges bnd)
        @ (if Sim.Prng.bool rng then [ start + len - 1 - Sim.Prng.int rng 24 ] else [])
      in
      let heated = List.filter (fun d -> d >= lo && d < hi) heated in
      let parent = word_parent rng ~ones ~lo ~hi heated in
      race_word_kernels parent ~seed ~start ~len ~off:(8 * byte_off))

(* {1 Electrical runs across segments}

   The native erb kernel is called once per segment chunk, so a run
   that straddles a segment boundary is two calls, which must hand the
   PRNG position over exactly and write every dot's bit at the run's
   own offset.  These twins race [erb_run] under every window against
   the per-dot loop and the oracle walk on CoW clones of a parent of
   {!word_config}'s four segments, over Manchester-burned areas (one
   heated dot per cell, some cells heated whole, the HH of a tampered
   cell) and blank ones, with odd starts, lengths and destination
   offsets and every cycle count of {!erb_cycles}. *)

(* Areas of 64-4,158 dots over [lo, hi), burned and blank in turn. *)
let erb_parent rng ~seed ~lo ~hi ~hh =
  let m = Pmedia.Medium.create { word_config with Pmedia.Medium.seed } in
  let magnetise i =
    Pmedia.Medium.set m i (Pmedia.Dot.Magnetised (Pmedia.Dot.of_bool (Sim.Prng.bool rng)))
  in
  let heat i = Pmedia.Medium.set m i Pmedia.Dot.Heated in
  let burned = ref (Sim.Prng.bool rng) and i = ref lo in
  while !i < hi do
    let stop = min hi (!i + 64 + (2 * Sim.Prng.int rng 2048)) in
    for cell = 0 to ((stop - !i) / 2) - 1 do
      let d = !i + (2 * cell) in
      if not !burned then begin
        magnetise d;
        magnetise (d + 1)
      end
      else if Sim.Prng.int rng 100 < hh then begin
        heat d;
        heat (d + 1)
      end
      else if Sim.Prng.bool rng then begin
        heat d;
        magnetise (d + 1)
      end
      else begin
        magnetise d;
        heat (d + 1)
      end
    done;
    burned := not !burned;
    i := stop
  done;
  m

(* (seed, boundary), (dots before it, half the dots after it), (cycles
   index, per cent of HH cells) and half the destination offset. *)
let erb_segment_arb =
  QCheck.(
    quad
      (pair (int_range 0 1_000_000) (int_range 1 3))
      (pair (int_range 0 1023) (int_range 1 1023))
      (pair (int_range 0 4) (int_range 0 20))
      (int_range 0 31))

let erb_segment_twins =
  QCheck.Test.make
    ~name:"erb_run == per-dot loop and oracle walk across segments"
    ~count:200 ~long_factor:20 erb_segment_arb
    (fun ((seed, bnd), (b, a), (cyc, hh), half_off) ->
      let size = 8 * 6200 and bnd = bnd * seg_dots in
      let start = bnd - ((2 * b) + 1) in
      let len = (2 * b) + 1 + (2 * min a ((size - bnd - 1) / 2)) in
      let off = (2 * half_off) + 1 and cycles = erb_cycles.(cyc) in
      let lo = max 0 (start - 64) and hi = min size (start + len + 64) in
      let rng = Sim.Prng.create seed in
      let parent = erb_parent rng ~seed ~lo ~hi ~hh in
      let image = packed_string parent in
      let twin ctx_of =
        let m = Pmedia.Medium.clone parent in
        (m, ctx_of m)
      in
      List.for_all
        (fun window ->
          let ((m1, k1) as t1) = twin (Pmedia.Bitops.Window.make window) in
          let ((_, k2) as t2) = twin Pmedia.Bitops.make in
          let ((_, k3) as t3) = twin Pmedia.Bitops.make in
          let d1 = noise_bytes seed ~off ~len in
          let d3 = Bytes.copy d1 in
          let d2 = erb_loop ~cycles k2 ~start ~len d1 ~off in
          Pmedia.Bitops.erb_run ~cycles k1 ~start ~len ~dst:d1 ~dst_pos:off;
          Erb_oracle.erb_run ~cycles k3 ~start ~len ~dst:d3 ~dst_pos:off;
          Bytes.equal d1 d2 && Bytes.equal d1 d3 && twins_agree t1 t2
          && twins_agree t1 t3
          && Pmedia.Medium.owned_segments m1 = 0)
        windows
      && String.equal (packed_string parent) image)

(* {1 CoW segments} *)

let cow_medium () =
  Pmedia.Medium.create (Pmedia.Medium.default_config ~rows:8 ~cols:4832)

let dump m =
  let n = Pmedia.Medium.packed_length m in
  let b = Bytes.create n in
  Pmedia.Medium.blit_packed m ~pos:0 ~dst:b ~dst_off:0 ~len:n;
  Bytes.to_string b

let dot_write_script =
  QCheck.(
    small_list
      (pair (int_range 0 1_000_000) (int_range 0 2)))

let apply_dot_writes m script =
  let size = Pmedia.Medium.size m in
  List.iter
    (fun (i, s) ->
      let state =
        match s with
        | 0 -> Pmedia.Dot.Magnetised Pmedia.Dot.Up
        | 1 -> Pmedia.Dot.Magnetised Pmedia.Dot.Down
        | _ -> Pmedia.Dot.Heated
      in
      Pmedia.Medium.set m (i mod size) state)
    script

let cow_matches_deep_copy =
  (* A CoW clone must be indistinguishable from a full byte copy, and
     its writes must never leak into the parent (or vice versa). *)
  QCheck.Test.make ~name:"clone == deep copy under random writes" ~count:50
    QCheck.(pair dot_write_script dot_write_script)
    (fun (pre, post) ->
      let parent = cow_medium () in
      apply_dot_writes parent pre;
      let clone = Pmedia.Medium.clone parent in
      let deep = cow_medium () in
      let image = dump parent in
      Pmedia.Medium.load_packed deep ~pos:0
        ~src:(Bytes.of_string image)
        ~src_off:0 ~len:(String.length image);
      apply_dot_writes clone post;
      apply_dot_writes deep post;
      dump clone = dump deep
      && dump parent = image
      && Pmedia.Medium.count_heated_run clone ~start:0
           ~len:(Pmedia.Medium.size clone)
         = Pmedia.Medium.count_heated_run deep ~start:0
             ~len:(Pmedia.Medium.size deep))

let cow_cases =
  [
    Alcotest.test_case "a fresh clone owns no segments" `Quick (fun () ->
        let parent = cow_medium () in
        Pmedia.Medium.set parent 0 Pmedia.Dot.Heated;
        let clone = Pmedia.Medium.clone parent in
        Alcotest.(check int) "no private segments" 0
          (Pmedia.Medium.owned_segments clone);
        Alcotest.(check int) "same geometry" (Pmedia.Medium.packed_length parent)
          (Pmedia.Medium.packed_length clone));
    Alcotest.test_case "a write materialises exactly its segment" `Quick
      (fun () ->
        let parent = cow_medium () in
        let clone = Pmedia.Medium.clone parent in
        let seg_dots = 4 * Pmedia.Medium.segment_bytes in
        Pmedia.Medium.set clone (seg_dots + 1) Pmedia.Dot.Heated;
        Alcotest.(check int) "one private segment" 1
          (Pmedia.Medium.owned_segments clone);
        Alcotest.(check int) "parent untouched" 0
          (Pmedia.Medium.owned_segments parent);
        Alcotest.(check bool) "parent still virgin" true
          (Pmedia.Medium.get parent (seg_dots + 1)
          = Pmedia.Dot.Magnetised Pmedia.Dot.Down));
    Alcotest.test_case "reads never materialise" `Quick (fun () ->
        let parent = cow_medium () in
        apply_dot_writes parent [ (5, 2); (9000, 0) ];
        let clone = Pmedia.Medium.clone parent in
        ignore (dump clone);
        for i = 0 to Pmedia.Medium.size clone - 1 do
          ignore (Pmedia.Medium.get clone i)
        done;
        ignore
          (Pmedia.Medium.count_heated_run clone ~start:0
             ~len:(Pmedia.Medium.size clone));
        Alcotest.(check int) "still zero owned" 0
          (Pmedia.Medium.owned_segments clone));
  ]

(* A range whose [pos + len] or [off + len] wraps past max_int is out
   of range too: the copy loops run unchecked once the guard passes. *)
let packed_bounds =
  Alcotest.test_case "packed blits past the end raise" `Quick (fun () ->
      let m = Pmedia.Medium.create (Pmedia.Medium.default_config ~rows:4 ~cols:4) in
      let b = Bytes.make 8 '\x00' in
      List.iter
        (fun (pos, off, len) ->
          Alcotest.check_raises "blit"
            (Invalid_argument "Medium.blit_packed: out of range") (fun () ->
              Pmedia.Medium.blit_packed m ~pos ~dst:b ~dst_off:off ~len);
          Alcotest.check_raises "load"
            (Invalid_argument "Medium.load_packed: out of range") (fun () ->
              Pmedia.Medium.load_packed m ~pos ~src:b ~src_off:off ~len))
        [ (1, 1, max_int); (max_int, 0, 1); (0, max_int, 1); (5, 0, 0); (0, 0, 5) ])

let () =
  Printf.printf "erb_run windows raced against the per-dot loop: %s\n%!"
    (String.concat ", " (List.map Pmedia.Bitops.Window.name windows));
  Alcotest.run "medium"
    [
      ("dot", dot_cases @ List.map qtest [ heated_absorbing; mwb_sets_direction ]);
      ( "matrix",
        medium_cases
        @ List.map qtest [ set_get_roundtrip; heated_count_tracks ]
        @ [ packed_bounds ] );
      ("bitops", bitops_cases @ [ erb_false_negative_rate ]);
      ( "run kernels",
        run_access_cases
        @ List.map qtest
            [ mrb_run_equiv; mrb_run_flips_equiv; mwb_run_equiv; erb_run_equiv ]
        @ [ erb_run_dense; inert_keeps_packed ]
        @ word_kernel_cases
        @ [ qtest word_kernel_twins; qtest erb_segment_twins;
            qtest word_boundary_twins ] );
      ("cow", cow_cases @ [ qtest cow_matches_deep_copy ]);
    ]
