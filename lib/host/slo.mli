(** Per-tenant SLO ledger: completion latency percentiles
    ({!Sim.Stats.quantiles} — p50/p95/p99), failure and rejection
    counters.  All times come off the DES clock; the server owns one
    ledger per tenant and folds in the queue's per-tenant energy and
    service charges when reporting. *)

type t

val create : unit -> t

val note_completion : t -> read:bool -> ok:bool -> latency:float -> unit
(** Record a completed command ([latency] in simulated seconds;
    [read] additionally feeds the read-only percentile track; [ok]
    false counts an execution-phase failure). *)

val note_rejection : t -> [ `Depth | `Rate ] -> unit
(** Record an admission-control rejection. *)

val failed : t -> int
val rejected : t -> int

type report = {
  rep_completed : int;
  rep_failed : int;
  rep_rejected_depth : int;
  rep_rejected_rate : int;
  rep_rejection_pct : float;
      (** Rejections as a percentage of offered (completed + rejected). *)
  rep_p50_ms : float;
  rep_p95_ms : float;
  rep_p99_ms : float;
  rep_read_p50_ms : float;
  rep_read_p95_ms : float;
  rep_read_p99_ms : float;
  rep_energy_j : float;  (** Sled energy charged to the tenant. *)
  rep_service_s : float;  (** Sled-busy seconds charged to the tenant. *)
}

val report : ?energy:float -> ?service:float -> t -> report
val pp_report : Format.formatter -> report -> unit
