(** E20 — request queueing: latency and throughput of the asynchronous
    pipeline under queue depth × scheduling policy × background scrub.

    A closed-loop Zipf workload ([depth] clients, each thinking briefly
    between requests) drives {!Sero.Queue} while a background scrubber
    submits line sweeps at a configurable rate.  Per cell the
    experiment reports foreground latency percentiles, throughput, mean
    sled service time, the queue-depth histogram, and how much
    background work got in — the numbers E19 could only estimate from
    travel costs. *)

type row = {
  policy : string;
  depth : int;  (** Closed-loop clients. *)
  scrub_hz : float;  (** Requested background line sweeps per second; 0 = off. *)
  ops : int;  (** Foreground requests completed. *)
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;  (** Foreground latency percentiles (milliseconds). *)
  mean_service_ms : float;  (** Mean sled occupancy per request group. *)
  iops : float;  (** Foreground completions per simulated second. *)
  bg_lines : int;  (** Scrub line sweeps completed. *)
  depth_counts : int array;  (** Queue-depth histogram (bin width 4). *)
}

val run_cell :
  ?ops:int -> policy:Probe.Sched.policy -> depth:int -> scrub_period:float option ->
  unit -> row
(** One self-seeded cell (own device, DES clock, queue and PRNG —
    deterministic in isolation, so the sweep can fan out). *)

val print : Format.formatter -> unit
