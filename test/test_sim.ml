(* The simulation substrate: PRNG, statistics, heap, event kernel. *)

let qtest = QCheck_alcotest.to_alcotest

(* {1 PRNG} *)

let prng_cases =
  [
    Alcotest.test_case "same seed, same stream" `Quick (fun () ->
        let a = Sim.Prng.create 99 and b = Sim.Prng.create 99 in
        for _ = 1 to 100 do
          Alcotest.(check int64) "same" (Sim.Prng.bits64 a) (Sim.Prng.bits64 b)
        done);
    Alcotest.test_case "copy forks the stream" `Quick (fun () ->
        let a = Sim.Prng.create 7 in
        ignore (Sim.Prng.bits64 a);
        let b = Sim.Prng.copy a in
        Alcotest.(check int64) "same next" (Sim.Prng.bits64 a) (Sim.Prng.bits64 b));
    Alcotest.test_case "split diverges from parent" `Quick (fun () ->
        let a = Sim.Prng.create 7 in
        let b = Sim.Prng.split a in
        Alcotest.(check bool) "different" true
          (Sim.Prng.bits64 a <> Sim.Prng.bits64 b));
    Alcotest.test_case "uniform mean near 1/2" `Quick (fun () ->
        let rng = Sim.Prng.create 3 in
        let acc = ref 0. in
        for _ = 1 to 10000 do
          acc := !acc +. Sim.Prng.uniform rng
        done;
        Alcotest.(check bool) "0.48..0.52" true
          (!acc /. 10000. > 0.48 && !acc /. 10000. < 0.52));
    Alcotest.test_case "bernoulli respects p" `Quick (fun () ->
        let rng = Sim.Prng.create 4 in
        let hits = ref 0 in
        for _ = 1 to 10000 do
          if Sim.Prng.bernoulli rng 0.3 then incr hits
        done;
        Alcotest.(check bool) "±3%" true (!hits > 2700 && !hits < 3300));
    Alcotest.test_case "exponential mean" `Quick (fun () ->
        let rng = Sim.Prng.create 5 in
        let acc = ref 0. in
        for _ = 1 to 20000 do
          acc := !acc +. Sim.Prng.exponential rng 4.
        done;
        Alcotest.(check bool) "mean ≈ 4" true
          (!acc /. 20000. > 3.8 && !acc /. 20000. < 4.2));
    Alcotest.test_case "gaussian moments" `Quick (fun () ->
        let rng = Sim.Prng.create 6 in
        let xs = List.init 20000 (fun _ -> Sim.Prng.gaussian rng ~mu:10. ~sigma:2.) in
        let mean = List.fold_left ( +. ) 0. xs /. 20000. in
        let var =
          List.fold_left (fun a x -> a +. ((x -. mean) *. (x -. mean))) 0. xs
          /. 19999.
        in
        Alcotest.(check bool) "mean ≈ 10" true (Float.abs (mean -. 10.) < 0.1);
        Alcotest.(check bool) "sd ≈ 2" true (Float.abs (sqrt var -. 2.) < 0.1));
    Alcotest.test_case "shuffle permutes" `Quick (fun () ->
        let rng = Sim.Prng.create 8 in
        let a = Array.init 50 (fun i -> i) in
        Sim.Prng.shuffle rng a;
        let sorted = Array.copy a in
        Array.sort compare sorted;
        Alcotest.(check bool) "same multiset" true
          (sorted = Array.init 50 (fun i -> i));
        Alcotest.(check bool) "actually moved" true (a <> Array.init 50 (fun i -> i)));
  ]

let int_in_range =
  QCheck.Test.make ~name:"int n is always in [0, n)" ~count:300
    QCheck.(pair (int_range 1 1000000) small_nat)
    (fun (n, seed) ->
      let rng = Sim.Prng.create seed in
      let v = Sim.Prng.int rng n in
      v >= 0 && v < n)

(* Literal outputs recorded before the state moved off the boxed
   [int64]: every seeded experiment depends on this exact stream.
   [create 0] is the reference splitmix64 vector. *)
let stream_pins =
  let draws rng n = List.init n (fun _ -> Sim.Prng.bits64 rng) in
  let pin name expected rng =
    Alcotest.(check (list int64)) name expected (draws rng (List.length expected))
  in
  [
    Alcotest.test_case "outputs pinned: create, stream, split, copy" `Quick
      (fun () ->
        pin "create 0"
          [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL ]
          (Sim.Prng.create 0);
        pin "stream ~seed:42 7"
          [ 0x75a694080932a32fL; 0x369337cb7f52cb3aL; 0xd3c8e8adda98012aL ]
          (Sim.Prng.stream ~seed:42 7);
        let parent = Sim.Prng.create 7 in
        pin "split child of create 7"
          [ 0xb8b4c2977eabce45L; 0xa65305fd338ec8feL; 0x8ca3cbb6ca63129bL ]
          (Sim.Prng.split parent);
        pin "copy after the split" [ 0x044c3cd7f43c661cL; 0xe6984080bab12a02L ]
          (Sim.Prng.copy parent));
    Alcotest.test_case "bool and int draws allocate nothing" `Quick (fun () ->
        let rng = Sim.Prng.create 1 in
        let before = Gc.minor_words () in
        for i = 1 to 10_000 do
          ignore (Sim.Prng.bool rng);
          ignore (Sim.Prng.int rng i)
        done;
        Alcotest.(check (float 0.)) "minor words" 0. (Gc.minor_words () -. before));
  ]

let bernoulli_mask_bits =
  QCheck.Test.make ~name:"bernoulli_mask is one bernoulli per set bit"
    ~count:500
    QCheck.(
      triple int (int_range 0 ((1 lsl 62) - 1))
        (oneof
           [ oneofl [ 0.; 1e-12; 0.005; 0.3; 0.5; 0.999; 1. ];
             float_bound_inclusive 1. ]))
    (fun (seed, mask, p) ->
      let rng = Sim.Prng.create seed in
      let seq = Sim.Prng.copy rng in
      let hits = Sim.Prng.bernoulli_mask rng p mask in
      let expect = ref 0 in
      for k = 0 to 61 do
        if (mask lsr k) land 1 = 1 && Sim.Prng.bernoulli seq p then
          expect := !expect lor (1 lsl k)
      done;
      hits = !expect && Sim.Prng.bits64 rng = Sim.Prng.bits64 seq)

(* {1 Stats} *)

let stats_cases =
  [
    Alcotest.test_case "known sample moments" `Quick (fun () ->
        let st = Sim.Stats.create () in
        List.iter (Sim.Stats.add st) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
        Alcotest.(check (float 1e-9)) "mean" 5. (Sim.Stats.mean st);
        Alcotest.(check (float 1e-9)) "total" 40. (Sim.Stats.total st);
        Alcotest.(check (float 1e-9)) "min" 2. (Sim.Stats.percentile st 0.);
        Alcotest.(check (float 1e-9)) "max" 9. (Sim.Stats.percentile st 1.);
        Alcotest.(check (float 1e-9)) "median" 4. (Sim.Stats.percentile st 0.5);
        Alcotest.(check int) "count" 8 (Sim.Stats.count st));
    Alcotest.test_case "empty stats are all zero" `Quick (fun () ->
        let st = Sim.Stats.create () in
        Alcotest.(check (float 0.)) "mean" 0. (Sim.Stats.mean st);
        Alcotest.(check (float 0.)) "total" 0. (Sim.Stats.total st);
        Alcotest.(check (float 0.)) "p99" 0. (Sim.Stats.percentile st 0.99));
    Alcotest.test_case "merge equals combined stream" `Quick (fun () ->
        let a = Sim.Stats.create () and b = Sim.Stats.create () in
        let all = Sim.Stats.create () in
        List.iter
          (fun x ->
            Sim.Stats.add (if x < 5. then a else b) x;
            Sim.Stats.add all x)
          [ 1.; 2.; 3.; 6.; 7.; 8.; 9. ];
        let m = Sim.Stats.merge a b in
        Alcotest.(check (float 1e-9)) "mean" (Sim.Stats.mean all) (Sim.Stats.mean m);
        Alcotest.(check (float 1e-9)) "total" (Sim.Stats.total all) (Sim.Stats.total m);
        Alcotest.(check int) "count" (Sim.Stats.count all) (Sim.Stats.count m));
    Alcotest.test_case "SLO quantiles by nearest rank" `Quick (fun () ->
        (* 1..100: nearest-rank p is exactly the pth value. *)
        let st = Sim.Stats.create () in
        List.iter
          (fun i -> Sim.Stats.add st (float_of_int i))
          (List.init 100 (fun i -> i + 1));
        Alcotest.(check (float 1e-9)) "p50" 50. (Sim.Stats.p50 st);
        Alcotest.(check (float 1e-9)) "p95" 95. (Sim.Stats.p95 st);
        Alcotest.(check (float 1e-9)) "p99" 99. (Sim.Stats.p99 st);
        let q50, q95, q99 = Sim.Stats.quantiles st in
        Alcotest.(check (float 1e-9)) "quantiles p50" 50. q50;
        Alcotest.(check (float 1e-9)) "quantiles p95" 95. q95;
        Alcotest.(check (float 1e-9)) "quantiles p99" 99. q99);
    Alcotest.test_case "single sample is every percentile" `Quick (fun () ->
        let st = Sim.Stats.create () in
        Sim.Stats.add st 7.25;
        Alcotest.(check (float 0.)) "p50" 7.25 (Sim.Stats.p50 st);
        Alcotest.(check (float 0.)) "p99" 7.25 (Sim.Stats.p99 st));
    Alcotest.test_case "histogram bins and clamps" `Quick (fun () ->
        let h = Sim.Stats.Histogram.create ~lo:0. ~hi:10. ~bins:10 in
        List.iter (Sim.Stats.Histogram.add h) [ -1.; 0.5; 5.5; 9.9; 42. ];
        let c = Sim.Stats.Histogram.counts h in
        Alcotest.(check int) "below clamps to first" 2 c.(0);
        Alcotest.(check int) "mid" 1 c.(5);
        Alcotest.(check int) "above clamps to last" 2 c.(9);
        Alcotest.(check int) "total" 5 (Sim.Stats.Histogram.total h));
  ]

let percentile_bounds =
  QCheck.Test.make ~name:"percentiles lie within [min, max]" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_range (-100.) 100.)) (float_range 0.01 1.))
    (fun (xs, p) ->
      let st = Sim.Stats.create () in
      List.iter (Sim.Stats.add st) xs;
      let v = Sim.Stats.percentile st p in
      v >= List.fold_left Float.min infinity xs
      && v <= List.fold_left Float.max neg_infinity xs)

let quantiles_match_percentile =
  QCheck.Test.make ~name:"quantiles = (p50, p95, p99)" ~count:200
    QCheck.(list_of_size Gen.(1 -- 80) (float_range (-100.) 100.))
    (fun xs ->
      let st = Sim.Stats.create () in
      List.iter (Sim.Stats.add st) xs;
      let q50, q95, q99 = Sim.Stats.quantiles st in
      q50 = Sim.Stats.p50 st && q95 = Sim.Stats.p95 st
      && q99 = Sim.Stats.p99 st)

(* {1 Heap} *)

let heap_sorts =
  QCheck.Test.make ~name:"heap pops in key order" ~count:200
    QCheck.(small_list (float_range (-1000.) 1000.))
    (fun keys ->
      let h = Sim.Heap.create () in
      List.iteri (fun i k -> Sim.Heap.push h k i) keys;
      let rec drain acc =
        match Sim.Heap.pop h with
        | None -> List.rev acc
        | Some (k, _) -> drain (k :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare keys)

let heap_stable =
  (* Push (key, seq) pairs; among equal keys the pop order must be the
     push order — {!Sim.Des} relies on this for FIFO ties. *)
  QCheck.Test.make ~name:"equal keys pop in push order" ~count:300
    QCheck.(small_list (int_range 0 3))
    (fun keys ->
      let h = Sim.Heap.create () in
      List.iteri (fun i k -> Sim.Heap.push h (float_of_int k) (k, i)) keys;
      let rec drain acc =
        match Sim.Heap.pop h with
        | None -> List.rev acc
        | Some (_, v) -> drain (v :: acc)
      in
      let popped = drain [] in
      let stable =
        List.stable_sort
          (fun (a, _) (b, _) -> compare a b)
          (List.mapi (fun i k -> (k, i)) keys)
      in
      popped = stable)

let heap_cases =
  [
    Alcotest.test_case "peek does not remove" `Quick (fun () ->
        let h = Sim.Heap.create () in
        Sim.Heap.push h 2. "b";
        Sim.Heap.push h 1. "a";
        Alcotest.(check (pair (float 0.) string)) "peek" (1., "a")
          (Sim.Heap.min_key h, Sim.Heap.min_value h);
        Alcotest.(check int) "size" 2 (Sim.Heap.size h);
        Alcotest.(check (option (pair (float 0.) string))) "pop" (Some (1., "a")) (Sim.Heap.pop h);
        Alcotest.(check int) "size after" 1 (Sim.Heap.size h));
    Alcotest.test_case "min_key/min_value/drop_min match pop" `Quick (fun () ->
        let h = Sim.Heap.create () in
        List.iteri (fun i k -> Sim.Heap.push h k i) [ 3.; 1.; 2.; 1. ];
        Alcotest.(check (float 0.)) "min key" 1. (Sim.Heap.min_key h);
        Alcotest.(check int) "min value" 1 (Sim.Heap.min_value h);
        Sim.Heap.drop_min h;
        Alcotest.(check int) "fifo tie next" 3 (Sim.Heap.min_value h);
        Alcotest.check_raises "empty min" (Invalid_argument "Heap.min_key: empty heap")
          (fun () ->
            while not (Sim.Heap.is_empty h) do
              Sim.Heap.drop_min h
            done;
            ignore (Sim.Heap.min_key h)));
  ]

(* Key generator with deliberate collisions: a handful of quantised
   magnitudes so FIFO ties happen often. *)
let tie_key =
  QCheck.map (fun k -> float_of_int k /. 4.) (QCheck.int_range (-40) 40)

let heap_matches_model =
  (* A random push/pop script: every pop must return the head of the
     pending entries stably sorted by key, so ties pop in push order
     however pushes and pops interleave. *)
  QCheck.Test.make ~name:"heap pops like a stable-sorted list model"
    ~count:300
    QCheck.(list_of_size Gen.(int_range 0 200) (option tie_key))
    (fun script ->
      let h = Sim.Heap.create () in
      (* Pending entries; equal keys stay in push order. *)
      let model = ref [] in
      let model_pop () =
        match
          List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) !model
        with
        | [] -> None
        | kv :: rest ->
            model := rest;
            Some kv
      in
      let i = ref 0 in
      List.for_all
        (function
          | Some key ->
              incr i;
              Sim.Heap.push h key !i;
              model := !model @ [ (key, !i) ];
              true
          | None -> Sim.Heap.pop h = model_pop ())
        script
      &&
      let rec drains () =
        match model_pop () with
        | None -> Sim.Heap.is_empty h
        | Some kv -> Sim.Heap.pop h = Some kv && drains ()
      in
      drains ())

(* {1 DES kernel} *)

let des_cases =
  [
    Alcotest.test_case "events fire in time order" `Quick (fun () ->
        let des = Sim.Des.create () in
        let log = ref [] in
        Sim.Des.schedule des ~delay:3. (fun t -> log := (3, Sim.Des.now t) :: !log);
        Sim.Des.schedule des ~delay:1. (fun t -> log := (1, Sim.Des.now t) :: !log);
        Sim.Des.schedule des ~delay:2. (fun t -> log := (2, Sim.Des.now t) :: !log);
        Sim.Des.run des;
        Alcotest.(check (list (pair int (float 0.)))) "order"
          [ (1, 1.); (2, 2.); (3, 3.) ]
          (List.rev !log));
    Alcotest.test_case "handlers can schedule more events" `Quick (fun () ->
        let des = Sim.Des.create () in
        let count = ref 0 in
        let rec tick t =
          incr count;
          if !count < 5 then Sim.Des.schedule t ~delay:1. tick
        in
        Sim.Des.schedule des ~delay:1. tick;
        Sim.Des.run des;
        Alcotest.(check int) "5 ticks" 5 !count;
        Alcotest.(check (float 0.)) "clock at 5" 5. (Sim.Des.now des));
    Alcotest.test_case "run ~until leaves later events queued" `Quick (fun () ->
        let des = Sim.Des.create () in
        let fired = ref [] in
        List.iter
          (fun d -> Sim.Des.schedule des ~delay:d (fun _ -> fired := d :: !fired))
          [ 1.; 2.; 10. ];
        Sim.Des.run ~until:5. des;
        Alcotest.(check (list (float 0.))) "only early" [ 2.; 1. ] !fired;
        Alcotest.(check int) "one pending" 1 (Sim.Des.pending des);
        Alcotest.(check (float 0.)) "clock clamped" 5. (Sim.Des.now des));
    Alcotest.test_case "equal timestamps fire FIFO" `Quick (fun () ->
        let des = Sim.Des.create () in
        let log = ref [] in
        (* Interleave two timestamps; within each, scheduling order must
           be firing order. *)
        List.iter
          (fun (at, tag) ->
            Sim.Des.schedule_at des ~at (fun _ -> log := tag :: !log))
          [ (2., "b0"); (1., "a0"); (2., "b1"); (1., "a1"); (2., "b2") ];
        Sim.Des.run des;
        Alcotest.(check (list string)) "fifo ties"
          [ "a0"; "a1"; "b0"; "b1"; "b2" ]
          (List.rev !log));
    Alcotest.test_case "scheduling in the past is rejected" `Quick (fun () ->
        let des = Sim.Des.create () in
        Sim.Des.schedule des ~delay:2. (fun t ->
            Alcotest.check_raises "past"
              (Invalid_argument "Des.schedule_at: event in the past") (fun () ->
                Sim.Des.schedule_at t ~at:1. (fun _ -> ())));
        Sim.Des.run des);
    Alcotest.test_case "non-finite event times are rejected" `Quick (fun () ->
        (* NaN slips past every ordered comparison, so without a finite
           check it would fire out of order and poison the clock. *)
        let des = Sim.Des.create () in
        Sim.Des.schedule des ~delay:1. (fun _ -> ());
        let rejects what f =
          Alcotest.check_raises what
            (Invalid_argument "Des.schedule_at: non-finite time") f;
          Alcotest.(check int) (what ^ " leaves the queue") 1
            (Sim.Des.pending des)
        in
        rejects "nan delay" (fun () ->
            Sim.Des.schedule des ~delay:Float.nan (fun _ -> ()));
        rejects "at infinity" (fun () ->
            Sim.Des.schedule_at des ~at:Float.infinity (fun _ -> ()));
        rejects "at neg_infinity" (fun () ->
            Sim.Des.schedule_at des ~at:Float.neg_infinity (fun _ -> ())));
  ]

(* {1 Pool} *)

let pool_cases =
  [
    Alcotest.test_case "parallel_map preserves input order" `Quick (fun () ->
        let xs = List.init 100 (fun i -> i) in
        List.iter
          (fun jobs ->
            Alcotest.(check (list int))
              (Printf.sprintf "jobs=%d" jobs)
              (List.map (fun x -> x * x) xs)
              (Sim.Pool.parallel_map ~jobs (fun x -> x * x) xs))
          [ 1; 2; 4; 7 ]);
    Alcotest.test_case "uneven per-item work still lands in order" `Quick
      (fun () ->
        (* Early items are the slow ones, so a racing domain would
           finish late items first; slots must still come back sorted. *)
        let slow x =
          let rng = Sim.Prng.create x in
          let acc = ref 0 in
          for _ = 1 to (100 - x) * 200 do
            acc := !acc lxor Sim.Prng.int rng 1000
          done;
          ignore !acc;
          x
        in
        let xs = List.init 100 (fun i -> i) in
        Alcotest.(check (list int)) "identity map" xs
          (Sim.Pool.parallel_map ~jobs:4 slow xs));
    Alcotest.test_case "empty and singleton inputs" `Quick (fun () ->
        Alcotest.(check (list int)) "empty" []
          (Sim.Pool.parallel_map ~jobs:4 (fun x -> x) []);
        Alcotest.(check (list int)) "singleton" [ 9 ]
          (Sim.Pool.parallel_map ~jobs:4 (fun x -> x * 3) [ 3 ]));
    Alcotest.test_case "an exception in a worker propagates" `Quick (fun () ->
        List.iter
          (fun jobs ->
            Alcotest.check_raises
              (Printf.sprintf "failure surfaces (jobs=%d)" jobs)
              (Failure "item 13") (fun () ->
                ignore
                  (Sim.Pool.parallel_map ~jobs
                     (fun x ->
                       if x = 13 then failwith "item 13" else x)
                     (List.init 50 (fun i -> i)))))
          [ 1; 4 ]);
    Alcotest.test_case "jobs below 1 rejected" `Quick (fun () ->
        Alcotest.check_raises "zero"
          (Invalid_argument "Sim.Pool.parallel_map: jobs must be >= 1")
          (fun () -> ignore (Sim.Pool.parallel_map ~jobs:0 (fun x -> x) [ 1 ]));
        Alcotest.check_raises "set_jobs zero"
          (Invalid_argument "Sim.Pool.set_jobs: jobs must be >= 1") (fun () ->
            Sim.Pool.set_jobs 0));
    Alcotest.test_case "set_jobs overrides the default" `Quick (fun () ->
        Sim.Pool.set_jobs 3;
        Alcotest.(check int) "3" 3 (Sim.Pool.jobs ());
        Sim.Pool.set_jobs 1;
        Alcotest.(check int) "1" 1 (Sim.Pool.jobs ()));
  ]

(* {1 LRU} *)

let lru_cases =
  [
    Alcotest.test_case "find touches recency; add evicts the coldest" `Quick
      (fun () ->
        let l = Sim.Lru.create ~capacity:3 () in
        List.iter (fun k -> ignore (Sim.Lru.add l k (k * 10))) [ 1; 2; 3 ];
        Alcotest.(check (option int)) "hit" (Some 10) (Sim.Lru.find l 1);
        (* 2 is now the coldest: adding a fourth key evicts it. *)
        Alcotest.(check (list (pair int int)))
          "evicted" [ (2, 20) ] (Sim.Lru.add l 4 40);
        Alcotest.(check bool) "1 kept" true (Sim.Lru.mem l 1);
        Alcotest.(check int) "len" 3 (Sim.Lru.length l));
    Alcotest.test_case "pinned entries survive and soft-exceed capacity"
      `Quick (fun () ->
        (* Odd values are pinned. *)
        let l =
          Sim.Lru.create ~evictable:(fun _ v -> v mod 2 = 0) ~capacity:2 ()
        in
        ignore (Sim.Lru.add l 1 11);
        ignore (Sim.Lru.add l 2 21);
        Alcotest.(check (list (pair int int)))
          "nothing evictable" [] (Sim.Lru.add l 3 31);
        Alcotest.(check int) "soft-exceeded" 3 (Sim.Lru.length l);
        (* An evictable entry drains as soon as the walk reaches it —
           here the just-added one, since everything older is pinned. *)
        Alcotest.(check (list (pair int int)))
          "evictable entry sheds" [ (4, 40) ] (Sim.Lru.add l 4 40);
        (* Unpinning 2 lets the bound recover immediately. *)
        Alcotest.(check (list (pair int int)))
          "unpinned entry evicted" [ (2, 20) ] (Sim.Lru.add l 2 20);
        Alcotest.(check int) "back to capacity" 2 (Sim.Lru.length l));
    Alcotest.test_case "trim sheds excess once pins release" `Quick (fun () ->
        let pinned = Hashtbl.create 8 in
        let l =
          Sim.Lru.create ~evictable:(fun k _ -> not (Hashtbl.mem pinned k))
            ~capacity:2 ()
        in
        List.iter
          (fun k ->
            Hashtbl.replace pinned k ();
            ignore (Sim.Lru.add l k (k * 10)))
          [ 1; 2; 3; 4 ];
        Alcotest.(check int) "pins hold it over capacity" 4 (Sim.Lru.length l);
        Hashtbl.reset pinned;
        Alcotest.(check (list (pair int int)))
          "trim evicts coldest first" [ (1, 10); (2, 20) ]
          (Sim.Lru.trim l);
        Alcotest.(check int) "back within bound" 2 (Sim.Lru.length l));
    Alcotest.test_case "remove and clear" `Quick (fun () ->
        let l = Sim.Lru.create ~capacity:4 () in
        List.iter (fun k -> ignore (Sim.Lru.add l k k)) [ 1; 2; 3 ];
        Sim.Lru.remove l 2;
        Alcotest.(check bool) "gone" false (Sim.Lru.mem l 2);
        Alcotest.(check int) "len" 2 (Sim.Lru.length l);
        Sim.Lru.clear l;
        Alcotest.(check int) "empty" 0 (Sim.Lru.length l);
        (* The recency list restarts empty: only the new entries age. *)
        List.iter (fun k -> ignore (Sim.Lru.add l k k)) [ 5; 6; 7; 8 ];
        Alcotest.(check (list (pair int int)))
          "no stale list" [ (5, 5) ] (Sim.Lru.add l 9 9));
  ]

(* Model-based check: the intrusive-list implementation against a naive
   MRU-first assoc list with the same soft-capacity eviction rule.
   Values [v] with [v mod 3 = 0] are pinned.  After every operation the
   evicted bindings, the length, every binding and the hottest key must
   agree; at the end, [capacity] fresh unpinned keys must evict every
   unpinned entry in the model's cold-to-hot order. *)
let lru_matches_model =
  let model_pinned v = v mod 3 = 0 in
  (* Walk from the cold end evicting unpinned entries: the kept list,
     MRU first, and the evicted, coldest first. *)
  let model_shrink cap l =
    let rec go excess kept evicted = function
      | [] -> (kept, List.rev evicted)
      | (k, v) :: hotter ->
          if excess > 0 && not (model_pinned v) then
            go (excess - 1) kept ((k, v) :: evicted) hotter
          else go excess ((k, v) :: kept) evicted hotter
    in
    go (List.length l - cap) [] [] (List.rev l)
  in
  let apply_model cap l = function
    | `Add (k, v) ->
        let l = List.remove_assoc k l in
        model_shrink cap ((k, v) :: l)
    | `Find k -> (
        match List.assoc_opt k l with
        | None -> (l, [])
        | Some v -> ((k, v) :: List.remove_assoc k l, []))
    | `Remove k -> (List.remove_assoc k l, [])
  in
  let op_gen =
    QCheck.Gen.(
      oneof
        [
          map2 (fun k v -> `Add (k, v)) (int_range 0 9) (int_range 0 99);
          map (fun k -> `Find k) (int_range 0 9);
          map (fun k -> `Remove k) (int_range 0 9);
        ])
  in
  let print_op = function
    | `Add (k, v) -> Printf.sprintf "add %d %d" k v
    | `Find k -> Printf.sprintf "find %d" k
    | `Remove k -> Printf.sprintf "remove %d" k
  in
  QCheck.Test.make ~name:"lru matches the naive model (with pinning)"
    ~count:300
    QCheck.(
      pair (int_range 1 6)
        (make
           Gen.(list_size (1 -- 60) op_gen)
           ~print:(fun ops -> String.concat "; " (List.map print_op ops))))
    (fun (cap, ops) ->
      let l =
        Sim.Lru.create ~evictable:(fun _ v -> not (model_pinned v)) ~capacity:cap ()
      in
      let model = ref [] in
      List.for_all
        (fun op ->
          let evicted =
            match op with
            | `Add (k, v) -> Sim.Lru.add l k v
            | `Find k ->
                ignore (Sim.Lru.find l k);
                []
            | `Remove k ->
                Sim.Lru.remove l k;
                []
          in
          let m, m_evicted = apply_model cap !model op in
          model := m;
          evicted = m_evicted
          && Sim.Lru.length l = List.length m
          && List.for_all (fun k -> Sim.Lru.peek l k = List.assoc_opt k m) (List.init 10 Fun.id)
          && match m with [] -> true | (k, _) :: _ -> Sim.Lru.is_head l k)
        (ops @ List.init cap (fun i -> `Add (10 + i, 1))))

let pool_matches_list_map =
  QCheck.Test.make ~name:"parallel_map == List.map for any jobs" ~count:100
    QCheck.(pair (int_range 1 8) (small_list small_int))
    (fun (jobs, xs) ->
      Sim.Pool.parallel_map ~jobs (fun x -> (x * 7) - 1) xs
      = List.map (fun x -> (x * 7) - 1) xs)

(* {1 DES against a list model} *)

let des_matches_model =
  (* Handlers reschedule themselves a little later, so ties created at
     run time are checked too.  The model fires the pending event with
     the smallest (time, scheduling sequence) first. *)
  QCheck.Test.make ~name:"Des fires like a (time, sequence) list model"
    ~count:200
    QCheck.(
      list_of_size Gen.(int_range 0 80) (pair (int_range 0 20) (int_range 0 2)))
    (fun script ->
      let des = Sim.Des.create () in
      let log = ref [] in
      List.iteri
        (fun tag (at, respawn) ->
          Sim.Des.schedule_at des ~at:(float_of_int at /. 2.) (fun t ->
              log := (tag, Sim.Des.now t) :: !log;
              for k = 1 to respawn do
                Sim.Des.schedule t ~delay:(float_of_int k /. 4.) (fun t ->
                    log := (100 + tag, Sim.Des.now t) :: !log)
              done))
        script;
      Sim.Des.run des;
      let seq = ref 0 and pending = ref [] in
      let add time tag respawn =
        pending := (time, !seq, tag, respawn) :: !pending;
        incr seq
      in
      List.iteri
        (fun tag (at, respawn) -> add (float_of_int at /. 2.) tag respawn)
        script;
      let rec fire acc =
        match List.sort compare !pending with
        | [] -> List.rev acc
        | (time, _, tag, respawn) :: rest ->
            pending := rest;
            for k = 1 to respawn do
              add (time +. (float_of_int k /. 4.)) (100 + tag) 0
            done;
            fire ((tag, time) :: acc)
      in
      List.rev !log = fire [])

(* {1 Keyed PRNG streams} *)

let stream_cases =
  [
    Alcotest.test_case "stream is a pure function of (seed, index)" `Quick
      (fun () ->
        let a = Sim.Prng.stream ~seed:42 7 and b = Sim.Prng.stream ~seed:42 7 in
        for _ = 1 to 50 do
          Alcotest.(check int64) "same" (Sim.Prng.bits64 a) (Sim.Prng.bits64 b)
        done);
    Alcotest.test_case "neighbour streams decorrelate" `Quick (fun () ->
        (* Adjacent indices and adjacent seeds must not produce aligned
           output — the double-mix breaks the lattice. *)
        let pairs =
          [
            (Sim.Prng.stream ~seed:1 0, Sim.Prng.stream ~seed:1 1);
            (Sim.Prng.stream ~seed:1 0, Sim.Prng.stream ~seed:2 0);
            (Sim.Prng.stream ~seed:0 3, Sim.Prng.stream ~seed:3 0);
          ]
        in
        List.iter
          (fun (a, b) ->
            let agree = ref 0 in
            for _ = 1 to 64 do
              if Sim.Prng.bool a = Sim.Prng.bool b then incr agree
            done;
            Alcotest.(check bool) "near half" true (!agree > 16 && !agree < 48))
          pairs);
  ]

(* {1 Stats merging} *)

let stats_merge_cases =
  [
    Alcotest.test_case "merge_many matches re-adding every sample" `Quick
      (fun () ->
        let rng = Sim.Prng.create 21 in
        let parts = List.init 5 (fun _ -> Sim.Stats.create ()) in
        let whole = Sim.Stats.create () in
        List.iter
          (fun part ->
            for _ = 1 to 200 do
              let x = Sim.Prng.gaussian rng ~mu:10. ~sigma:3. in
              Sim.Stats.add part x;
              Sim.Stats.add whole x
            done)
          parts;
        let merged = Sim.Stats.merge_many parts in
        Alcotest.(check int) "count" (Sim.Stats.count whole) (Sim.Stats.count merged);
        Alcotest.(check (float 1e-9)) "mean" (Sim.Stats.mean whole) (Sim.Stats.mean merged);
        Alcotest.(check (float 1e-9)) "total" (Sim.Stats.total whole) (Sim.Stats.total merged);
        (* Reservoirs small enough to be lossless => identical quantiles. *)
        Alcotest.(check (float 0.)) "p99" (Sim.Stats.p99 whole) (Sim.Stats.p99 merged));
    Alcotest.test_case "merge_many of nothing is empty" `Quick (fun () ->
        let m = Sim.Stats.merge_many [] in
        Alcotest.(check int) "count" 0 (Sim.Stats.count m));
    Alcotest.test_case "merge_many skips empty reservoirs" `Quick (fun () ->
        (* Empty shards are the norm in sparse fleet cells (e.g. a site
           whose attack never landed records no latency samples). *)
        let full = Sim.Stats.create () in
        List.iter (Sim.Stats.add full) [ 3.; 1.; 2. ];
        let parts =
          [ Sim.Stats.create (); full; Sim.Stats.create (); Sim.Stats.create () ]
        in
        let m = Sim.Stats.merge_many parts in
        Alcotest.(check int) "count" 3 (Sim.Stats.count m);
        Alcotest.(check (float 0.)) "total" 6. (Sim.Stats.total m);
        Alcotest.(check (float 1e-9)) "mean" 2. (Sim.Stats.mean m);
        Alcotest.(check (float 0.)) "p99" 3. (Sim.Stats.p99 m);
        let all_empty =
          Sim.Stats.merge_many [ Sim.Stats.create (); Sim.Stats.create () ]
        in
        Alcotest.(check int) "all-empty count" 0 (Sim.Stats.count all_empty);
        Alcotest.(check (float 0.)) "all-empty p50" 0. (Sim.Stats.p50 all_empty));
    Alcotest.test_case "single-sample quantiles collapse to the sample" `Quick
      (fun () ->
        let one = Sim.Stats.create () in
        Sim.Stats.add one 42.5;
        let p50, p95, p99 = Sim.Stats.quantiles one in
        Alcotest.(check (float 0.)) "p50" 42.5 p50;
        Alcotest.(check (float 0.)) "p95" 42.5 p95;
        Alcotest.(check (float 0.)) "p99" 42.5 p99;
        let m = Sim.Stats.merge_many [ Sim.Stats.create (); one ] in
        Alcotest.(check (float 0.)) "merged p99" 42.5 (Sim.Stats.p99 m);
        Alcotest.(check (float 0.)) "merged mean" 42.5 (Sim.Stats.mean m));
  ]

(* merge_many must be insensitive to how shards are grouped: folding
   pairwise left, pairwise right, or flat over any split point gives the
   same moments and quantiles. *)
let stats_merge_associative =
  QCheck.Test.make ~name:"Stats.merge_many is associative over groupings"
    ~count:100
    QCheck.(pair (list_of_size Gen.(0 -- 40) (float_range (-50.) 50.)) (int_range 0 40))
    (fun (samples, cut) ->
      let cut = if samples = [] then 0 else cut mod (List.length samples + 1) in
      let fill xs =
        let s = Sim.Stats.create () in
        List.iter (Sim.Stats.add s) xs;
        s
      in
      let a = fill (List.filteri (fun i _ -> i < cut) samples) in
      let b = fill (List.filteri (fun i _ -> i >= cut) samples) in
      let flat = Sim.Stats.merge_many [ a; b ] in
      let left = Sim.Stats.merge_many [ Sim.Stats.merge_many [ a ]; b ]
      and right = Sim.Stats.merge_many [ a; Sim.Stats.merge_many [ b ] ] in
      List.for_all
        (fun m ->
          Sim.Stats.count m = Sim.Stats.count flat
          && Float.abs (Sim.Stats.mean m -. Sim.Stats.mean flat) < 1e-9
          && Sim.Stats.total m = Sim.Stats.total flat
          && Sim.Stats.quantiles m = Sim.Stats.quantiles flat)
        [ left; right ])

(* {1 Fleet fan-out} *)

(* The fan-out in its map shape: [List.concat] merges per-index
   singletons back into index order. *)
let fleet_jobs_invariant =
  QCheck.Test.make ~name:"Fleet.map byte-identical for any jobs" ~count:60
    QCheck.(pair (int_range 0 70) (int_range 1 8))
    (fun (n, jobs) ->
      let f ~rng i = [ (i, Sim.Prng.int rng 1000, Sim.Prng.uniform rng) ] in
      let run jobs = Sim.Fleet.map_merge ~jobs ~seed:5 n ~f ~merge:List.concat in
      let got = run jobs in
      got = run 1 && List.map (fun (i, _, _) -> i) got = List.init n Fun.id)

let fleet_cases =
  [
    Alcotest.test_case "shard plan is pure in n and covers it" `Quick
      (fun () ->
        List.iter
          (fun n ->
            let plan = Sim.Fleet.shards n in
            let covered =
              List.concat_map
                (fun { Sim.Fleet.first; count } ->
                  List.init count (fun k -> first + k))
                plan
            in
            Alcotest.(check (list int))
              (Printf.sprintf "n=%d" n)
              (List.init n Fun.id) covered;
            Alcotest.(check bool) "bounded" true
              (List.length plan <= Sim.Fleet.default_shards))
          [ 0; 1; 63; 64; 65; 1000 ]);
    Alcotest.test_case "map_merge equals merge of sequential parts" `Quick
      (fun () ->
        let f ~rng i = float_of_int i +. Sim.Prng.uniform rng in
        let merge xs = List.fold_left ( +. ) 0. xs in
        let direct =
          merge (List.init 100 (fun i -> f ~rng:(Sim.Prng.stream ~seed:9 i) i))
        in
        List.iter
          (fun jobs ->
            (* Shard-grouped float addition differs from flat addition in
               general, but must not differ across jobs. *)
            Alcotest.(check (float 0.))
              (Printf.sprintf "jobs=%d" jobs)
              (Sim.Fleet.map_merge ~jobs:1 ~seed:9 100 ~f ~merge)
              (Sim.Fleet.map_merge ~jobs ~seed:9 100 ~f ~merge);
            Alcotest.(check (float 1e-9))
              "close to flat sum" direct
              (Sim.Fleet.map_merge ~jobs ~seed:9 100 ~f ~merge))
          [ 2; 3; 8 ]);
    Alcotest.test_case "stats merge across shards is deterministic" `Quick
      (fun () ->
        let f ~rng _ =
          let st = Sim.Stats.create () in
          for _ = 1 to 20 do
            Sim.Stats.add st (Sim.Prng.exponential rng 2.0)
          done;
          st
        in
        let merge = Sim.Stats.merge_many in
        let quantiles jobs =
          Sim.Stats.quantiles (Sim.Fleet.map_merge ~jobs ~seed:3 200 ~f ~merge)
        in
        let q1 = quantiles 1 in
        List.iter
          (fun jobs ->
            let a, b, c = q1 and x, y, z = quantiles jobs in
            Alcotest.(check (float 0.)) "p50" a x;
            Alcotest.(check (float 0.)) "p95" b y;
            Alcotest.(check (float 0.)) "p99" c z)
          [ 2; 5; 8 ]);
  ]

let () =
  Alcotest.run "sim"
    [
      ( "prng",
        prng_cases @ stream_cases @ [ qtest int_in_range ] @ stream_pins
        @ [ qtest bernoulli_mask_bits ] );
      ("stats",
       stats_cases @ stats_merge_cases
       @ [
           qtest percentile_bounds;
           qtest quantiles_match_percentile;
           qtest stats_merge_associative;
         ]);
      ("heap",
       heap_cases
       @ [ qtest heap_sorts; qtest heap_stable; qtest heap_matches_model ]);
      ("des", des_cases @ [ qtest des_matches_model ]);
      ("lru", lru_cases @ [ qtest lru_matches_model ]);
      ("pool", pool_cases @ [ qtest pool_matches_list_map ]);
      ("fleet", fleet_cases @ [ qtest fleet_jobs_invariant ]);
    ]
