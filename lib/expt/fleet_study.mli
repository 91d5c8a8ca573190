(** E26 — fleet-scale simulation substrate: CoW device cloning
    ({!Sero.Device.clone}), keyed per-device PRNG streams
    ({!Sim.Prng.stream}) and deterministic fan-out ({!Sim.Fleet}),
    each device on its own {!Sim.Des} clock.

    Two cells:
    {ul
    {- {e fleet curve}: 64 → 4096 devices, each a CoW clone of a golden
       image running open-loop reads/writes/verifies plus background
       scrub on its own DES clock, parked afterwards; latency quantiles
       merge with {!Sim.Stats.merge_many} in shard order.}
    {- {e clones}: OCaml-heap words retained per idle parked clone
       (acceptance: ≤ 64 KiB) and private CoW segments (0 until
       written).}}

    Output is byte-identical for any [SERO_JOBS]. *)

val default_ops : int
(** Open-loop operations per device (6). *)

type fleet = {
  f_devices : int;
  f_ops : int;  (** Operations completed across the fleet. *)
  f_events : int;  (** DES events fired across the fleet. *)
  f_tampers : int;  (** Tamper verdicts (0 expected). *)
  f_fails : int;  (** Failed reads/writes/verifies (0 expected). *)
  f_scrub_rewrites : int;
  f_cow_segments : int;  (** Privately materialised medium segments. *)
  f_lat : Sim.Stats.t;  (** Per-operation device latency, ms. *)
}

val run_fleet : ?seed:int -> ?ops:int -> int -> fleet
(** [run_fleet n] simulates [n] cloned devices, fanned out over
    {!Sim.Fleet.map_merge}.  Pure in [(seed, ops, n)]. *)

type clone_cell = {
  c_clones : int;
  c_heap_kib : float;  (** OCaml heap per idle clone; acceptance ≤ 64. *)
  c_segments : float;  (** Private segments per idle clone (0.). *)
}

type headline = {
  h_devices : int;  (** Largest fleet in the curve. *)
  h_ops : int;
  h_tampers : int;
  h_fails : int;
  h_lat_p99_ms : float;
  h_clone_heap_kib : float;
  h_clone_segments : float;
  h_cow_kib_per_device : float;
}

val headline : unit -> headline
(** Both cells at bench scale (512 devices). *)

val print : Format.formatter -> unit
