type config = {
  n_tips : int;
  spare_tips : int;
  costs : Timing.costs;
  erb_cycles : int;
}

let default_config =
  {
    n_tips = 256;
    spare_tips = 0;
    costs = Timing.default_costs;
    erb_cycles = 8;
  }

type t = {
  medium : Pmedia.Medium.t;
  bitops : Pmedia.Bitops.ctx;
  tips : Tips.t;
  actuator : Actuator.t;
  timing : Timing.t;
  config : config;
  mutable fault : Fault.Injector.t option;
}

let create ?(config = default_config) medium =
  if config.erb_cycles <= 0 then
    invalid_arg "Pdevice.create: erb_cycles must be positive";
  let timing = Timing.create ~costs:config.costs () in
  let tips = Tips.create ~spares:config.spare_tips ~n_tips:config.n_tips medium in
  let bitops = Pmedia.Bitops.make medium in
  let actuator =
    Actuator.create timing
      ~pitch:(Pmedia.Medium.config medium).Pmedia.Medium.geometry.pitch
      ~field_cols:(Tips.field_cols tips)
  in
  { medium; bitops; tips; actuator; timing; config; fault = None }

(* CoW device snapshot: the medium clones copy-on-write, everything
   else (ledgers, tips, sled position, op counters) deep-copies so the
   two devices evolve fully independently afterwards.  A live fault
   injector on the parent is simply not inherited — its PRNG position
   and ledger belong to the parent's history, so the clone starts
   fault-free and callers re-arm it with a fresh plan if they want
   faults on the copy. *)
let clone t =
  let medium = Pmedia.Medium.clone t.medium in
  let bitops = Pmedia.Bitops.clone t.bitops medium in
  let timing = Timing.copy t.timing in
  {
    medium;
    bitops;
    tips = Tips.copy t.tips;
    actuator = Actuator.copy t.actuator timing;
    timing;
    config = t.config;
    fault = None;
  }

let medium t = t.medium
let tips t = t.tips
let bitops t = t.bitops
let size t = Pmedia.Medium.size t.medium
let elapsed t = Timing.elapsed t.timing
let energy t = Timing.energy t.timing
let reset_ledger t = Timing.reset t.timing
let fault t = t.fault

let install_fault t inj =
  t.fault <- Some inj;
  Pmedia.Bitops.set_fault t.bitops (Some inj)

let clear_fault t =
  t.fault <- None;
  Pmedia.Bitops.set_fault t.bitops None

let check_run t start len =
  if start < 0 || len < 0 || start + len > size t then
    invalid_arg "Pdevice: run out of range"

(* How the ledger is charged per scan-offset step of a run. *)
type charge = Cbits of { read : int; written : int } | Cewb of int

let charge_one t = function
  | Cbits { read; written } -> Timing.charge_bits t.timing ~read ~written
  | Cewb n -> Timing.charge_ewb t.timing n

let charge_many t c ~times =
  match c with
  | Cbits { read; written } ->
      Timing.charge_bits_times t.timing ~read ~written ~times
  | Cewb n -> Timing.charge_ewb_times t.timing n ~times

let healthy t =
  Tips.remapped_count t.tips = 0 && Tips.all_serving_healthy t.tips

(* No injector, or one that cannot act on the run other than by the
   flips of a [read] run, which its kernel replays: the charge bounds
   its ticks ([read + written] per dot, one per pulse) and its pulses. *)
let unfaulted ?read t ~start ~len charge =
  match t.fault with
  | None -> true
  | Some inj -> (
      match charge with
      | Cbits { read = reads; written } ->
          Fault.Injector.inert ?read inj ~first_dot:start ~n_dots:len
            ~ops:((reads + written) * len)
      | Cewb n ->
          Fault.Injector.inert inj ~first_dot:start ~n_dots:len ~ops:(n * len)
            ~pulses:(n * len))

(* Lean dispatch: with no broken or remapped tip and no injector that
   can act on the run, none of those states can change mid-run (no tip
   death comes due, no cut fires between rows), so the per-offset
   checks hoist out, the seek and charge loops batch (the charge
   replays the per-offset float additions in the same order from
   unboxed locals — see {!Timing.charge_bits_times} — so the ledger is
   bit-identical to the per-offset loop without its boxing), and the
   kernel takes the whole run in one call, visiting
   dots in address order exactly as the scalar path would.  Charges the
   whole run and returns [true] when the dispatch is lean (or the run
   empty); returns [false] having charged nothing otherwise. *)
let sweep_lean ?read t ~start ~len charge =
  len = 0
  || healthy t
     && unfaulted ?read t ~start ~len charge
     && begin
          let n = Tips.n_tips t.tips in
          let first_off = start / n and last_off = (start + len - 1) / n in
          Actuator.scan_run t.actuator ~first:first_off ~last:last_off;
          charge_many t charge ~times:(last_off - first_off + 1);
          true
        end

(* The per-row dispatch, charging [charge] once per scan-offset step.
   When every logical tip is served by a healthy unit the whole row
   goes through [bulk] in one call (tip index is [dot - off * n], no
   per-dot [Tips.locate]); a row with any broken serving tip falls back
   to per-dot [f dot tip], which keeps the dead-tip noise semantics.
   Timing is charged per offset, so the ledger matches the lean
   sweep's exactly. *)
let run_rows t ~start ~len charge ~bulk f =
  let n = Tips.n_tips t.tips in
  let first_off = start / n and last_off = (start + len - 1) / n in
  for off = first_off to last_off do
    Actuator.seek t.actuator off;
    charge_one t charge;
    (* Scheduled tip deaths land at scan-row boundaries. *)
    (match t.fault with
    | None -> ()
    | Some inj ->
        List.iter (Tips.fail_tip t.tips) (Fault.Injector.newly_dead_tips inj));
    (* A remapped field is served by a spare parked off-pitch on the
       same sled: each scan row pays one extra settle to line it up. *)
    if Tips.remapped_count t.tips > 0 then
      Timing.charge_time t.timing (Timing.costs t.timing).Timing.seek_settle;
    let row_base = off * n in
    let lo = max start row_base
    and hi = min (start + len - 1) (row_base + n - 1) in
    if Tips.all_serving_healthy t.tips then bulk ~lo ~hi
    else
      for dot = lo to hi do
        f dot (dot - row_base)
      done
  done

let run_offsets t ~start ~len charge ~bulk f =
  if sweep_lean t ~start ~len charge then bulk ~lo:start ~hi:(start + len - 1)
  else run_rows t ~start ~len charge ~bulk f

(* Keyed on no injector at all, not an inert one: RAS retry placement
   after a coalesced span depends on it. *)
let one_pass t ~start ~len =
  t.fault = None && healthy t
  && Pmedia.Bitops.mrb_run_fast t.bitops ~start ~len

let random_bit t = Sim.Prng.bool (Pmedia.Medium.rng t.medium)

let check_bytes name buf len =
  if 8 * Bytes.length buf < len then invalid_arg (name ^ ": buffer too short")

(* Reads, writes and electrical reads test the lean dispatch before
   building the per-row closures, so a whole-run call allocates none of
   them. *)
let read_run t ~start ~len ~dst =
  check_run t start len;
  check_bytes "Pdevice.read_run" dst len;
  let charge = Cbits { read = 1; written = 0 } in
  if sweep_lean ~read:true t ~start ~len charge then
    Pmedia.Bitops.mrb_run t.bitops ~start ~len ~dst ~dst_pos:0
  else
    run_rows t ~start ~len charge
      ~bulk:(fun ~lo ~hi ->
        Pmedia.Bitops.mrb_run t.bitops ~start:lo ~len:(hi - lo + 1) ~dst
          ~dst_pos:(lo - start))
      (fun dot tip ->
        Pmedia.Bitops.set_bit dst (dot - start)
          (if Tips.tip_failed t.tips tip then random_bit t
           else Pmedia.Dot.to_bool (Pmedia.Bitops.mrb t.bitops dot)))

let write_run t ~start ~len ~src =
  check_run t start len;
  check_bytes "Pdevice.write_run" src len;
  let charge = Cbits { read = 0; written = 1 } in
  if sweep_lean t ~start ~len charge then
    Pmedia.Bitops.mwb_run t.bitops ~start ~len ~src ~src_pos:0
  else
    run_rows t ~start ~len charge
      ~bulk:(fun ~lo ~hi ->
        Pmedia.Bitops.mwb_run t.bitops ~start:lo ~len:(hi - lo + 1) ~src
          ~src_pos:(lo - start))
      (fun dot tip ->
        if not (Tips.tip_failed t.tips tip) then
          Pmedia.Bitops.mwb t.bitops dot
            (Pmedia.Dot.of_bool (Pmedia.Bitops.get_bit src (dot - start))))

let heat_run t ~start pattern =
  let len = Array.length pattern in
  check_run t start len;
  run_offsets t ~start ~len (Cewb 1)
    ~bulk:(fun ~lo ~hi ->
      for dot = lo to hi do
        if pattern.(dot - start) then Pmedia.Bitops.ewb t.bitops dot
      done)
    (fun dot tip ->
      if pattern.(dot - start) && not (Tips.tip_failed t.tips tip) then
        Pmedia.Bitops.ewb t.bitops dot)

let erb_run ?cycles t ~start ~len ~dst =
  let cycles = Option.value cycles ~default:t.config.erb_cycles in
  if cycles <= 0 then invalid_arg "Pdevice.erb_run: cycles must be positive";
  check_run t start len;
  check_bytes "Pdevice.erb_run" dst len;
  (* Each cycle is read, write, read, write, read = 3 reads + 2 writes
     of the whole tip row. *)
  let charge = Cbits { read = 3 * cycles; written = 2 * cycles } in
  if sweep_lean t ~start ~len charge then
    Pmedia.Bitops.erb_run ~cycles t.bitops ~start ~len ~dst ~dst_pos:0
  else
    run_rows t ~start ~len charge
      ~bulk:(fun ~lo ~hi ->
        Pmedia.Bitops.erb_run ~cycles t.bitops ~start:lo ~len:(hi - lo + 1)
          ~dst ~dst_pos:(lo - start))
      (fun dot tip ->
        (* A dead tip cannot run the protocol; its verification reads
           are noise, which reports as heated. *)
        Pmedia.Bitops.set_bit dst (dot - start)
          (Tips.tip_failed t.tips tip
          || Pmedia.Bitops.erb ~cycles t.bitops dot))
