(** E21 — buffer cache frontier: cache size x read-ahead depth x Zipf
    skew over the request pipeline.

    Each cell runs a closed-loop client against a freshly built, seeded
    device: point reads (and a write-behind fraction) drawn Zipf-skewed
    over the data blocks, plus occasional sequential scans — the
    streaming-read pattern read-ahead exists for — served through
    {!Sero.Bcache} over {!Sero.Queue}, per-op latency measured on the
    DES clock.  Cache size 0 is the bare pipeline baseline.  Cells fan out over {!Sim.Pool}; every
    cell builds its own device and PRNG, so output is byte-identical
    for any [-j]. *)

type row = {
  cache_lines : int;  (** Cache capacity in heat lines (0 = no cache). *)
  read_ahead : int;
  theta : float;
  ops : int;
  hit_pct : float;
  ra_hits : int;  (** Hits whose block arrived by prefetch. *)
  read_mean_ms : float;
  read_p95_ms : float;
  write_mean_ms : float;
  flush_spans : int;  (** Coalesced write-behind groups flushed. *)
}

type headline = {
  nocache_read_ms : float;
  cached_read_ms : float;
  speedup : float;
  headline_hit_pct : float;
}

val headline : unit -> headline
(** The acceptance-criterion cell pair: Zipf 0.99, 4-line cache with
    read-ahead 8, against the bare pipeline at the same skew. *)

val print : Format.formatter -> unit
