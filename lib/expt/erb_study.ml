type miss_row = { cycles : int; measured_miss : float; theory_miss : float }

let miss_sweep ?(trials = 20000) () =
  (* Each cell gets its own freshly seeded medium (rather than all cells
     sharing one RNG stream), so cells are independent and the sweep
     parallelises with bit-identical output in any execution order. *)
  Sim.Pool.parallel_map
    (fun cycles ->
      let medium =
        Pmedia.Medium.create (Pmedia.Medium.default_config ~rows:16 ~cols:16)
      in
      let ctx = Pmedia.Bitops.make medium in
      Pmedia.Bitops.ewb ctx 0;
      let missed = ref 0 in
      for _ = 1 to trials do
        if not (Pmedia.Bitops.erb ~cycles ctx 0) then incr missed
      done;
      {
        cycles;
        measured_miss = float_of_int !missed /. float_of_int trials;
        theory_miss = 0.25 ** float_of_int cycles;
      })
    [ 1; 2; 3; 4; 6; 8 ]

type area_row = {
  strategy : string;
  false_blank_areas : int;
  areas : int;
  mean_bitops : float;
}

(* One burned hash area read with a fixed uniform cycle count, judged
   blank-free or not, with the primitive ops it took. *)
let naive_read pdev ~start ~cycles =
  let before =
    Pmedia.Bitops.primitive_ops
      (Pmedia.Bitops.counters (Probe.Pdevice.bitops pdev))
  in
  let heated = Bytes.create (Sero.Layout.wo_area_dots / 8) in
  Probe.Pdevice.erb_run ~cycles pdev ~start ~len:Sero.Layout.wo_area_dots
    ~dst:heated;
  let decoded =
    Codec.Manchester.decode heated ~n_bytes:Sero.Layout.wo_area_bytes
  in
  let after =
    Pmedia.Bitops.primitive_ops
      (Pmedia.Bitops.counters (Probe.Pdevice.bitops pdev))
  in
  (decoded.Codec.Manchester.n_blank > 0, after - before)

(* The device's adaptive strategy, measured through read_hash_block. *)
let adaptive_read dev ~line =
  let pdev = Sero.Device.pdevice dev in
  let before =
    Pmedia.Bitops.primitive_ops (Pmedia.Bitops.counters (Probe.Pdevice.bitops pdev))
  in
  let outcome = Sero.Device.read_hash_block dev ~line in
  let after =
    Pmedia.Bitops.primitive_ops (Pmedia.Bitops.counters (Probe.Pdevice.bitops pdev))
  in
  let false_alarm =
    match outcome with
    | `Burned _ -> false
    | `Not_heated | `Torn _ | `Tampered _ -> true
  in
  (false_alarm, after - before)

let area_comparison ?(areas = 40) () =
  (* A device with [areas] burned lines. *)
  let n_blocks = 8 * (areas + 1) in
  let dev =
    Sero.Device.create (Sero.Device.default_config ~n_blocks ~line_exp:3 ())
  in
  let lay = Sero.Device.layout dev in
  for line = 0 to areas - 1 do
    List.iter
      (fun pba ->
        match Sero.Device.write_block dev ~pba "erb study" with
        | Ok () -> ()
        | Error _ -> ())
      (Sero.Layout.data_blocks_of_line lay line);
    match Sero.Device.heat_line dev ~line () with
    | Ok _ -> ()
    | Error e ->
        failwith (Format.asprintf "erb study: %a" Sero.Device.pp_heat_error e)
  done;
  let pdev = Sero.Device.pdevice dev in
  let run strategy f =
    let alarms = ref 0 and ops = ref 0 in
    for line = 0 to areas - 1 do
      let alarm, cost = f line in
      if alarm then incr alarms;
      ops := !ops + cost
    done;
    {
      strategy;
      false_blank_areas = !alarms;
      areas;
      mean_bitops = float_of_int !ops /. float_of_int areas;
    }
  in
  [
    run "naive, 1 cycle (the paper's sequence)" (fun line ->
        naive_read pdev ~start:(Sero.Layout.wo_first_dot lay ~line) ~cycles:1);
    run "naive, 8 cycles" (fun line ->
        naive_read pdev ~start:(Sero.Layout.wo_first_dot lay ~line) ~cycles:8);
    run "adaptive (8 + 24 on blanks)" (fun line -> adaptive_read dev ~line);
  ]

let print ppf =
  Format.fprintf ppf
    "E16 — erb protocol reliability (reproduction finding, not in the paper)@.";
  Format.fprintf ppf "%s@." (String.make 78 '-');
  Format.fprintf ppf "per-dot miss rate of a heated dot:@.";
  Format.fprintf ppf "  %-8s %-12s %-12s@." "cycles" "measured" "theory 4^-k";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-8d %-12.5f %-12.5f@." r.cycles r.measured_miss
        r.theory_miss)
    (miss_sweep ());
  Format.fprintf ppf
    "reading %d legitimately burned 4096-dot hash areas:@." 40;
  Format.fprintf ppf "  %-40s %-14s %-14s@." "strategy" "false alarms"
    "bitops/area";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-40s %6d /%4d %14.0f@." r.strategy
        r.false_blank_areas r.areas r.mean_bitops)
    (area_comparison ());
  Format.fprintf ppf
    "the paper's single-round sequence false-alarms on essentially every \
     burned area;@.the device's adaptive read eliminates false alarms at \
     ~1.3x the 8-cycle cost.@."
