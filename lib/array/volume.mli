(** A sharded SERO volume: N member devices behind one {!Amap}.

    Each member is a full per-device stack — its own {!Sero.Device}
    (with RAS and endurance lifecycle), its own DES clock and
    {!Sero.Queue} request pipeline, and its own {!Sero.Bcache} block
    stack over that queue (capacity 0 when uncached) — so a volume is a
    fleet in miniature, not one device with N platters.
    The volume adds what no single device can give:

    - {b Replication}: every write fans out to all serving replicas of
      the line's mirror group; every read walks the group's
      deterministic read order and falls through device errors, so a
      lost, read-only, quarantined or locally-corrupt member degrades
      service instead of ending it.
    - {b A trust boundary}: the per-device {!Trust} ledger (fed by
      {!Quorum}) decides which replicas are asked first and which are
      dropped from quorums entirely.
    - {b Scripted multi-device failure}: installed
      {!Fault.Plan.timed_event}s fire whole-device loss and replica
      tamper at volume-operation boundaries — every disaster is
      replayable.

    Determinism: members are independent DES worlds, so any fan-out
    over distinct mirror groups commutes; {!Quorum.verify_volume}
    exploits this with {!Sim.Pool}. *)

type member_state =
  | Active
  | Lost  (** Whole-device loss: the member stops answering. *)
  | Quarantined_member
      (** Dropped by the trust ledger or retired as a rebuilt-over
          carcass; kept attached as evidence, never served. *)

type config = {
  slots : int;
  replication : int;
  spares : int;
  member_blocks : int;  (** Blocks per member device. *)
  line_exp : int;
  seed : int;  (** Base seed; member [i] gets [seed + i]. *)
  endurance : Sero.Device.endurance;
  policy : Probe.Sched.policy;  (** Member queue scheduling. *)
  read_retry_limit : int;  (** Member queue read retries. *)
  retry_backoff : float;  (** Member queue retry backoff, seconds. *)
  cache_capacity : int option;
      (** Per-member bcache capacity; [None] = uncached (capacity 0). *)
}

val default_config :
  ?slots:int ->
  ?replication:int ->
  ?spares:int ->
  ?member_blocks:int ->
  ?line_exp:int ->
  ?seed:int ->
  ?endurance:Sero.Device.endurance ->
  ?cache_capacity:int option ->
  unit ->
  config
(** 4 slots mirrored in pairs, 1 spare, 128-block members in lines of
    8, seed 42, active endurance, elevator scheduling, 2 read retries
    0.1 ms apart, per-member 32-block caches.  {!create} gives every
    member active RAS. *)

type t

val create : config -> t
(** Fresh volume: [slots + spares] new devices, all Active, spares
    pooled, assembled by {!of_devices}.
    @raise Invalid_argument on bad geometry (see {!Amap}). *)

val of_devices :
  config ->
  devices:Sero.Device.t array ->
  slot_dev:int array ->
  spare_pool:int list ->
  states:member_state array ->
  t
(** Re-assemble a volume around existing devices (array image load,
    crash-remount tests).  Fresh queues/caches are built per member;
    trust starts clean — restore it via {!trust} + {!Trust.restore}.
    @raise Invalid_argument on inconsistent geometry or indices, or if
    a device serves two slots, is pooled twice, or is both pooled and
    serving. *)

(** {1 Introspection} *)

val cfg : t -> config
val map : t -> Amap.t
val trust : t -> Trust.t
val n_devices : t -> int
val device : t -> dev:int -> Sero.Device.t
val queue : t -> dev:int -> Sero.Queue.t

val cache : t -> dev:int -> Sero.Bcache.t
(** The member's block stack: every read, write, heat and verify the
    volume, {!Quorum} and {!Rebuild} issue to a member goes through it,
    without ticking the volume op counter.  Capacity 0 when the volume
    is uncached.  @raise Invalid_argument if [dev] is out of range. *)

val dev_of_slot : t -> slot:int -> int
val slot_of_dev : t -> dev:int -> int option
val spare_pool : t -> int list
val member_states : t -> member_state array
(** A copy; indexed by device. *)

val serving_slots : t -> line:int -> int list
(** The line's replicas that are Active, in trust-then-rotation read
    order (Trusted before Suspect; Quarantined excluded). *)

type volume_state = Optimal | Degraded | Critical

val volume_state : t -> volume_state
(** [Optimal]: every slot Active.  [Critical]: some mirror group has
    {e no} Active member (that stripe of lines is offline).
    [Degraded]: anything between. *)

val pp_volume_state : Format.formatter -> volume_state -> unit
val pp_member_state : Format.formatter -> member_state -> unit

(** {1 Member state transitions} *)

val fail_slot : t -> slot:int -> unit
(** Whole-device loss of the member serving [slot]. *)

val quarantine_dev : t -> dev:int -> unit
(** Drop a device from service (trust crossing, operator, rebuild).
    Also marks its trust entry Quarantined. *)

(** {1 Block and line IO}

    All addresses are volume addresses ({!Amap}).  Every call ticks the
    volume operation counter, which is the clock for installed
    array events. *)

type replica_fault =
  | Device_error of Sero.Device.read_error
  | Failed_verify
      (** The replica flunked read-time verification (see
          {!read_block}); its data was never served. *)

type read_error =
  | Volume_blank  (** No serving replica holds a frame. *)
  | Volume_offline  (** The line's mirror group has no serving member. *)
  | Replica_errors of (int * replica_fault) list
      (** Every serving replica failed; per-slot detail in read order. *)

type write_error =
  | No_writable_replica
      (** No serving member of the group accepts writes (lost,
          quarantined or endurance read-only). *)
  | Rejected of Sero.Device.write_error
      (** Semantic refusal (heated line, reserved block) — mirrors
          agree, the write is wrong. *)

type heat_error =
  | Heat_offline
  | Replica_heat_errors of (int * Sero.Device.heat_error) list
  | Heat_diverged of (int * Hash.Sha256.t) list
      (** Replicas burned unequal hashes: their data diverged before
          the heat.  The burns are already on the media — the quorum
          will adjudicate. *)

val read_block :
  ?tenant:int ->
  t ->
  vba:int ->
  (string, read_error) result
(** Walks the line's serving replicas in read order and returns the
    first that answers.  {b Verify-on-first-read}: before a replica of
    a heated line first serves data, the member verifies the whole
    line against its burned hash; a failing replica is skipped
    ([Failed_verify]) so tampered bytes are never served — even if the
    honest mirrors (and their audit evidence) are lost later.
    Verdicts are cached per (device, line) and invalidated by medium
    mutations, so the check costs one line verify per epoch, not per
    read.  Rejection here does not charge trust — convictions are the
    {!Quorum}'s job. *)

val write_block :
  ?tenant:int ->
  t ->
  vba:int ->
  string ->
  (unit, write_error) result

val heat_line :
  ?tenant:int ->
  t ->
  line:int ->
  ?timestamp:float ->
  unit ->
  (Hash.Sha256.t, heat_error) result
(** Heat the line on every serving replica with one shared timestamp
    (default: the first serving member's clock), so the burned areas
    are byte-comparable.  [Already_heated] on a subset (e.g. after a
    crash between replicas) is not an error if the re-read hashes
    agree with the fresh burns. *)

val flush : t -> unit
(** {!Sero.Bcache.sync} every member: buffered writes reach the medium
    and every member queue drains. *)

(** {1 Fault plans} *)

val install_plan : t -> Fault.Plan.timed_event list -> unit
(** Schedule the events, in [at_op] order (stable), against the volume
    op counter, replacing any still pending.  Events with [at_op <= ops]
    already passed fire on the next operation.
    @raise Invalid_argument on a negative [at_op], a loss of a slot
    outside the volume, or a tamper of a line or replica ordinal
    outside it. *)

val ops : t -> int
(** Volume operations since creation (the array-event clock). *)

(** {1 Statistics} *)

type stats = {
  v_state : volume_state;
  devices : int;
  active_members : int;
  spares_left : int;
  logical_lines : int;
  data_blocks : int;
  heated_lines : int;
  reads : int;
  writes : int;
  heats : int;
  degraded_reads : int;  (** Reads served by a non-preferred replica. *)
  read_rejects : int;
      (** Replica read attempts refused by read-time verification. *)
  rebuilds : int;
}

val stats : t -> stats
val note_rebuilt : t -> unit
val pp_stats : Format.formatter -> stats -> unit

(** {1 Rebuild bookkeeping} *)

val swap_in_spare : t -> slot:int -> spare:int -> unit
(** Commit point of a rebuild: [slot] is now served by device [spare]
    (removed from the pool); the old device keeps its state as a
    carcass.  Resets the spare's trust entry. *)
