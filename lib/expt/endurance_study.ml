(* E22 — the endurance lifecycle: does health-led retirement save data?

   Two devices with identical geometry (both reserve the same spare
   region, so the usable address space matches block for block) live
   through the same ramping wear schedule; only [health_enabled]
   differs.  Wear is persistent magnetic damage: each epoch flips a
   growing number of dots on a fixed set of {e physical} weak lines,
   chosen by a seeded PRNG so both arms are hit at the same dot
   addresses.  The lifecycle arm watches its RS correction margins and
   evacuates weakening lines onto spares; the baseline arm rides the
   RS budget until sectors die. *)

type arm_result = {
  lost : int;  (** Records unreadable at the end of the run. *)
  migrated : int;
  audit_ok : int;
      (** Migrated heated lines that still verify [Intact] at their new
          home. *)
  audit_total : int;
  reattest_failures : int;
  state : Sero.Device.device_state;
}

type row = { trial : int; records : int; off : arm_result; on_ : arm_result }

let spare_lines = 4
let n_weak = 3
let epochs = 8

(* Per data block, per epoch step: epoch e adds [flips_step * e] flips
   to every sector of a weak line.  Calibrated against the retirement
   threshold below: margins cross 0.7 around epoch 3 (cumulative ~12
   corrected symbols per sector), while the RS budget dies around
   epoch 5 — the lifecycle gets a two-epoch window to act. *)
let flips_step = 2
let retire_margin = 0.7

let make_dev ~health_on =
  let base = Sero.Device.default_config ~n_blocks:128 ~line_exp:3 () in
  Sero.Device.create
    {
      base with
      Sero.Device.endurance =
        {
          Sero.Device.health_enabled = health_on;
          spare_lines;
          ewma_alpha = 0.4;
          retire_margin;
        };
    }

(* Flip [per_block] random magnetised dots in every data block of a
   {e physical} line (the write-once area is left alone: wear here
   models decaying data retention, not hash vandalism).  Damage is
   dealt per block so each sector's corrected-symbol count tracks the
   cumulative dose — the signal the ledger actually smooths. *)
let damage_line lay medium rng ~phys per_block =
  let bpl = Sero.Layout.blocks_per_line lay in
  for blk = 1 to bpl - 1 do
    let pba = (phys * bpl) + blk in
    for _ = 1 to per_block do
      let dot =
        Sero.Layout.block_first_dot lay pba
        + Sim.Prng.int rng Sero.Layout.block_dots
      in
      match Pmedia.Medium.get medium dot with
      | Pmedia.Dot.Magnetised Pmedia.Dot.Up ->
          Pmedia.Medium.set medium dot (Pmedia.Dot.Magnetised Pmedia.Dot.Down)
      | Pmedia.Dot.Magnetised Pmedia.Dot.Down ->
          Pmedia.Medium.set medium dot (Pmedia.Dot.Magnetised Pmedia.Dot.Up)
      | Pmedia.Dot.Heated -> ()
    done
  done

(* The fixed weak set of a trial: distinct physical lines in the usable
   region, the same for both arms. *)
let weak_lines ~trial ~usable =
  let rng = Sim.Prng.create (1009 * (trial + 1)) in
  let rec pick acc =
    if List.length acc >= n_weak then List.rev acc
    else
      let l = Sim.Prng.int rng usable in
      if List.mem l acc then pick acc else pick (l :: acc)
  in
  pick []

let run_arm ~trial ~health_on =
  let dev = make_dev ~health_on in
  let lay = Sero.Device.layout dev in
  let medium = Probe.Pdevice.medium (Sero.Device.pdevice dev) in
  let usable = Sero.Layout.usable_lines lay in
  let data_pbas =
    List.concat_map
      (fun line -> Sero.Layout.data_blocks_of_line lay line)
      (List.init usable Fun.id)
  in
  List.iteri
    (fun i pba ->
      match
        Sero.Device.write_block dev ~pba (Printf.sprintf "endure r%04d" i)
      with
      | Ok () -> ()
      | Error _ -> ())
    data_pbas;
  (* Heat every even line: those records are read-only and attested, so
     without migration their loss is permanent and with migration the
     evidence chain must survive the move. *)
  for line = 0 to usable - 1 do
    if line mod 2 = 0 then
      match Sero.Device.heat_line dev ~line ~timestamp:(float_of_int line) () with
      | Ok _ | Error _ -> ()
  done;
  let weak = weak_lines ~trial ~usable in
  let lost = ref 0 in
  for epoch = 1 to epochs do
    (* Ramping wear, seeded by (trial, epoch) only, so the off and on
       arms replay identical damage at identical dot addresses. *)
    let rng = Sim.Prng.create ((7919 * (trial + 1)) + (131 * epoch)) in
    List.iter
      (fun phys -> damage_line lay medium rng ~phys (flips_step * epoch))
      weak;
    (* The read sweep is the workload: it is also what feeds the health
       ledger its corrected-symbol samples. *)
    lost := 0;
    List.iter
      (fun pba ->
        match Sero.Device.read_block dev ~pba with
        | Ok _ -> ()
        | Error _ -> incr lost)
      data_pbas;
    ignore
      (Sero.Device.maintenance dev ~timestamp:(1000. +. float_of_int epoch) ())
  done;
  (* Final account: what is still readable, and does every migrated
     heated line still verify at its new home? *)
  lost := 0;
  List.iter
    (fun pba ->
      match Sero.Device.read_block dev ~pba with
      | Ok _ -> ()
      | Error _ -> incr lost)
    data_pbas;
  let migrations = Sero.Device.migrations dev in
  let heated_migs =
    List.filter (fun m -> m.Sero.Device.m_heated) migrations
  in
  let audit_ok =
    List.length
      (List.filter
         (fun m ->
           Sero.Device.verify_line dev ~line:m.Sero.Device.m_line
           = Sero.Tamper.Intact)
         heated_migs)
  in
  let s = Sero.Device.stats dev in
  ( {
      lost = !lost;
      migrated = List.length migrations;
      audit_ok;
      audit_total = List.length heated_migs;
      reattest_failures = s.Sero.Device.reattest_failures;
      state = Sero.Device.device_state dev;
    },
    List.length data_pbas )

let run_trial trial =
  let off, records = run_arm ~trial ~health_on:false in
  let on_, _ = run_arm ~trial ~health_on:true in
  { trial; records; off; on_ }

let sweep ?(trials = 4) () =
  (* Each trial is a pure function of its index, so the fan-out is
     byte-identical for any worker count. *)
  Sim.Pool.parallel_map run_trial (List.init trials Fun.id)

type headline = {
  lost_off : float;
  lost_on : float;
  saved_pct : float;
  audit_pct : float;
}

let headline () =
  let rows = sweep ~trials:2 () in
  let sum f = float_of_int (List.fold_left (fun a r -> a + f r) 0 rows) in
  let lost_off = sum (fun r -> r.off.lost) in
  let lost_on = sum (fun r -> r.on_.lost) in
  let audit_total = sum (fun r -> r.on_.audit_total) in
  let audit_ok = sum (fun r -> r.on_.audit_ok) in
  {
    lost_off;
    lost_on;
    saved_pct =
      (if lost_off <= 0. then 0.
       else 100. *. (lost_off -. lost_on) /. lost_off);
    audit_pct =
      (if audit_total <= 0. then 100. else 100. *. audit_ok /. audit_total);
  }

let pp_state ppf = Sero.Device.pp_device_state ppf

let print ppf =
  Format.fprintf ppf "E22 — media endurance lifecycle@.";
  Format.fprintf ppf "%s@." (String.make 72 '-');
  Format.fprintf ppf
    "%d weak lines per device, %d epochs of ramping dot decay (+%d \
     flips/sector@.per epoch step), lifecycle off vs on under identical \
     damage:@."
    n_weak epochs flips_step;
  Format.fprintf ppf "  %-6s %-8s %-14s %-26s %-10s@." "trial" "records"
    "lost off/on" "migrated (audit ok/total)" "state on";
  let rows = sweep () in
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-6d %-8d %3d / %-8d %d (%d/%d, %d refused)%10s%a@."
        r.trial r.records r.off.lost r.on_.lost r.on_.migrated r.on_.audit_ok
        r.on_.audit_total r.on_.reattest_failures " " pp_state r.on_.state)
    rows;
  let tot f = List.fold_left (fun a r -> a + f r) 0 rows in
  let lost_off = tot (fun r -> r.off.lost)
  and lost_on = tot (fun r -> r.on_.lost)
  and audit_ok = tot (fun r -> r.on_.audit_ok)
  and audit_total = tot (fun r -> r.on_.audit_total) in
  Format.fprintf ppf
    "finding: the ledger retires weak lines while their sectors are still@.\
     correctable, so records survive (%d lost with the lifecycle on vs %d@.\
     without) and every migrated heated line re-verifies at its new home@.\
     (%d/%d) — the burned hash moves with the data, not with the medium.@."
    lost_on lost_off audit_ok audit_total
