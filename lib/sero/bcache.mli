(** Block buffer cache: sized LRU over the {!Queue} request pipeline,
    with sequential read-ahead and write-behind.  This is the one
    synchronous block stack above the queue: a cache of capacity [0] is
    the uncached stack, sending every operation straight to the queue
    through {!Queue.await}.

    PR 3 made service order realistic; this layer makes {e repeat}
    service unnecessary.  Read hits complete on the DES clock with zero
    sled service; misses fetch through the queue at the caller's
    priority and trigger sequential read-ahead submitted as
    Background-class reads of the following PBAs, so prefetch rides the
    pipeline's existing coalescing into {!Device.read_blocks} spans.
    Writes are buffered dirty (HAMR-style media price writes far above
    reads, so batching them is the device-accurate optimisation) and
    flushed as coalesced {!Queue.submit_write_span} groups on pressure
    (dirty high-water), {!sync}, or {!heat_line}.

    {2 Coherence: the cache can never mask the medium}

    The SERO device is a tamper-evidence machine, so a stale cached
    block is not just a performance bug — it could hide exactly the
    mutation a verdict must expose.  Three rules keep the cache
    honest:

    - {b Heat is irreversible.}  {!heat_line} first flushes the line's
      dirty blocks (the burn hashes what is on the medium), then
      invalidates the whole line after the burn: the frozen contents
      and the Manchester-encoded hash must be re-read from the dots.
    - {b The medium wins.}  A {!Device.add_mutation_listener} hook
      drops cached copies — clean or dirty — whenever anything writes
      under the cache: scrub rewrites, torn-burn completions, raw
      attacker writes, wipes.  Buffered writes superseded this way are
      lost, exactly as if the out-of-band mutation had happened after
      an uncached write.
    - {b Faults bypass.}  A {!Device.on_fault_install} barrier flushes
      and empties the cache {e before} an injector arms, and every
      operation passes straight through while {!Device.fault_installed}
      holds — a fault plan perturbs the same medium, in the same op
      order, that an uncached device would present.  A capacity-0
      cache always passes through, registers neither hook, and so
      never sits on the device's listener lists.

    The twin-device qcheck in [test_sero] holds a cached device, a
    capacity-0 one and a bare {!Queue.await} twin to bit-identical
    results — every read, every {!heat_line}, every {!verify_line}
    verdict — under random op/fault/heat interleavings including
    scrub, torn-burn recovery and a device gone read-only. *)

type t

val create :
  ?capacity:int -> ?read_ahead:int -> ?dirty_high:int -> Queue.t -> t
(** A cache over [q]'s device.  [capacity] (default 64) is the block
    count bound — a soft bound: dirty blocks are pinned until flushed
    and can briefly push past it.  [0] caches nothing: every operation
    is one {!Queue.await} (counted in [bypasses]).  [read_ahead]
    (default 8) is the prefetch depth after a miss; [0] disables.
    [dirty_high] (default [max 1 (capacity / 2)]) is the write-behind
    high-water mark: a write that pushes the dirty count past it
    triggers a flush.
    @raise Invalid_argument if [capacity < 0] or [read_ahead < 0]. *)

val device : t -> Device.t

(** {1 Block I/O}

    Each call blocks, pumping the queue's DES until its own request
    completes; on a capacity-0 cache the results equal the {!Device}
    calls'.  [prio] (default [Foreground]) is the class used for miss
    fetches and pressure flushes, and [tenant] (default [0]) tags the
    queued requests they submit — including the read-ahead a miss
    triggers, so prefetch work is charged to the tenant that caused
    it. *)

val read_block :
  ?prio:Queue.prio ->
  ?tenant:int ->
  t ->
  pba:int ->
  (string, Device.read_error) result

val write_block :
  ?prio:Queue.prio ->
  ?tenant:int ->
  t ->
  pba:int ->
  string ->
  (unit, Device.write_error) result
(** Buffers the payload dirty and returns; the medium is written at the
    next flush.  Read-only-device, reserved-hash-block and heated-line
    refusals are checked here, in {!Device.write_block}'s order and
    against live device state, so the error surface matches an
    uncached write. *)

val heat_line :
  ?tenant:int ->
  t ->
  line:int ->
  ?timestamp:float ->
  unit ->
  (Hash.Sha256.t, Device.heat_error) result
(** Flush the line's dirty blocks, heat through the queue, then
    invalidate the line. *)

val verify_line : t -> line:int -> Tamper.verdict
(** Flush the line's dirty blocks first (the verdict must judge the
    medium the caller believes is durable), then {!Device.verify_line}. *)

val flush : ?prio:Queue.prio -> ?tenant:int -> t -> unit
(** Write every dirty block out as coalesced spans; returns at once
    when nothing is dirty.  Does not drain outstanding read-ahead. *)

val sync : t -> unit
(** {!flush} then {!Queue.drain} — on return the medium is up to date
    and the pipeline idle. *)

(** {1 Measurement} *)

type stats = {
  hits : int;
  misses : int;
  read_aheads : int;  (** Prefetch reads submitted. *)
  read_ahead_hits : int;  (** Hits whose block arrived by prefetch. *)
  evictions : int;
  flushes : int;  (** Flush passes (pressure, sync, heat, line). *)
  flushed_blocks : int;
  flushed_spans : int;  (** Coalesced write groups those blocks used. *)
  write_absorbed : int;  (** Overwrites of a still-dirty block. *)
  invalidations : int;  (** Blocks dropped by invalidation hooks. *)
  bypasses : int;  (** Operations passed through under a fault plan. *)
}

val stats : t -> stats

val hit_rate : t -> float
(** Hits over lookups ([nan] before the first lookup, so always on a
    capacity-0 cache). *)

val pp_stats : Format.formatter -> t -> unit
