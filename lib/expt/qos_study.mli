(** E25 — multi-tenant QoS: tenant count × arbiter policy under
    closed-loop Zipf traffic through the host front-end
    ({!Host.Server} over {!Sero.Queue}).

    Tenant 1 is the {e light} tenant (one client stream); every other
    tenant is {e heavy} (8 streams at the same think time — 8× the
    offered load).  The sweep contrasts {!Host.Arbiter.Fair_share}
    against {!Host.Arbiter.Arrival_order} on the light tenant's read
    p99, plus a solo baseline and a rate-limited overload cell whose
    rejection counters exercise admission control deterministically.
    Cells are self-seeded and fan out over {!Sim.Pool.parallel_map} —
    output is byte-identical for any [SERO_JOBS]. *)

type row = {
  cell : string;  (** ["solo"], ["wfs x2"], ["fifo x8"], ["overload"]. *)
  policy : string;
  n_tenants : int;
  tenant : int;
  streams : int;  (** Closed-loop client streams of this tenant. *)
  completed : int;
  rejected : int;
  read_p50_ms : float;
  read_p95_ms : float;
  read_p99_ms : float;
  p99_ms : float;  (** All-command p99 (reads + writes). *)
  energy_j : float;
  service_s : float;  (** Sled-busy seconds charged to the tenant. *)
}

type headline = {
  solo_p99_ms : float;  (** Light tenant alone. *)
  fifo_p99_ms : float;  (** Light tenant vs one heavy, arrival order. *)
  wfs_p99_ms : float;  (** Light tenant vs one heavy, fair share. *)
  fifo_ratio : float;
  wfs_ratio : float;  (** Acceptance: within 2× of solo. *)
  overload_rejected : int;
  overload_rejection_pct : float;
}

val headline : unit -> headline
val print : Format.formatter -> unit
