type t = {
  latency : Sim.Stats.t;
  read_latency : Sim.Stats.t;
  mutable completed : int;
  mutable failed : int;
  mutable rejected_depth : int;
  mutable rejected_rate : int;
}

let create () =
  {
    latency = Sim.Stats.create ();
    read_latency = Sim.Stats.create ();
    completed = 0;
    failed = 0;
    rejected_depth = 0;
    rejected_rate = 0;
  }

let note_completion t ~read ~ok ~latency =
  t.completed <- t.completed + 1;
  if not ok then t.failed <- t.failed + 1;
  Sim.Stats.add t.latency latency;
  if read then Sim.Stats.add t.read_latency latency

let note_rejection t = function
  | `Depth -> t.rejected_depth <- t.rejected_depth + 1
  | `Rate -> t.rejected_rate <- t.rejected_rate + 1

let failed t = t.failed
let rejected t = t.rejected_depth + t.rejected_rate

let rejection_pct t =
  let offered = t.completed + rejected t in
  if offered = 0 then 0. else 100. *. float_of_int (rejected t) /. float_of_int offered

type report = {
  rep_completed : int;
  rep_failed : int;
  rep_rejected_depth : int;
  rep_rejected_rate : int;
  rep_rejection_pct : float;
  rep_p50_ms : float;
  rep_p95_ms : float;
  rep_p99_ms : float;
  rep_read_p50_ms : float;
  rep_read_p95_ms : float;
  rep_read_p99_ms : float;
  rep_energy_j : float;
  rep_service_s : float;
}

let report ?(energy = 0.) ?(service = 0.) t =
  let p50, p95, p99 = Sim.Stats.quantiles t.latency in
  let r50, r95, r99 = Sim.Stats.quantiles t.read_latency in
  {
    rep_completed = t.completed;
    rep_failed = t.failed;
    rep_rejected_depth = t.rejected_depth;
    rep_rejected_rate = t.rejected_rate;
    rep_rejection_pct = rejection_pct t;
    rep_p50_ms = 1e3 *. p50;
    rep_p95_ms = 1e3 *. p95;
    rep_p99_ms = 1e3 *. p99;
    rep_read_p50_ms = 1e3 *. r50;
    rep_read_p95_ms = 1e3 *. r95;
    rep_read_p99_ms = 1e3 *. r99;
    rep_energy_j = energy;
    rep_service_s = service;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "done=%d failed=%d rej=%d+%d (%.1f%%) p50=%.2fms p95=%.2fms p99=%.2fms \
     read p99=%.2fms energy=%.3gJ svc=%.4gs"
    r.rep_completed r.rep_failed r.rep_rejected_depth r.rep_rejected_rate
    r.rep_rejection_pct r.rep_p50_ms r.rep_p95_ms r.rep_p99_ms
    r.rep_read_p99_ms r.rep_energy_j r.rep_service_s
