(** The assembled probe-storage device (µSPAM, Figure 4): patterned
    medium + tip array + shared actuator + time/energy ledger.

    Operations work on {e runs} of logical dot addresses.  A run is
    striped across the tips ({!Tips}), so each scan-offset step moves
    all tips one dot and transfers [n_tips] bits in one bit time; the
    ledger is charged per offset step, not per bit — tip parallelism is
    what makes the device competitive with a disk (Section 3 expects
    hard-disk-class WMRM performance).

    Failed tips surface exactly the way the paper's addressing
    discussion worries about: their dots read as noise, fail the erb
    verification, and are indistinguishable from heated dots at this
    level — disambiguation happens in the SERO layer via framing and
    known hash locations. *)

type t

type config = {
  n_tips : int;
  spare_tips : int;
      (** Physical tips reserved for {!Tips.remap_tip}; they serve no
          dots until a failed tip's field is remapped onto one. *)
  costs : Timing.costs;
  erb_cycles : int;
      (** Invert/verify rounds per electrical bit read (see
          {!Pmedia.Bitops.erb}); the default 8 pushes the probability of
          mistaking a heated dot for unheated below 2e-5. *)
}

val default_config : config
(** 256 tips, no spares, default costs, 8 erb cycles.  Electrical
    writes use the medium geometry's default thermal profile
    ({!Pmedia.Bitops.make}). *)

val create : ?config:config -> Pmedia.Medium.t -> t
(** @raise Invalid_argument if [erb_cycles] is not positive, or (from
    {!Tips.create}) [n_tips] is not. *)

val clone : t -> t
(** Copy-on-write device snapshot: the medium is {!Pmedia.Medium.clone}d
    (unmutated segments shared), the tip array, ledgers, sled state and
    op counters are deep-copied, and the clone's PRNG continues from the
    parent's current state independently.  A live fault injector on the
    parent is {e never} inherited — its PRNG position and event ledger
    belong to the parent's history — so the clone starts fault-free;
    install a fresh injector on the clone to re-arm faults. *)

val medium : t -> Pmedia.Medium.t
val tips : t -> Tips.t
val bitops : t -> Pmedia.Bitops.ctx

val size : t -> int
(** Logical dot addresses, = medium size. *)

(** {2 Runs}

    One call per medium operation.  Bits travel packed MSB-first, the
    sector image order: dot [start + k] is bit [7 - (k mod 8)] of byte
    [k / 8].  Every call completes, charging one scan-offset step per
    scan row the run touches: a lean dispatch (no injector that can act
    on the run — see {!Fault.Injector.inert}; a {!read_run} may carry
    read flips, which its kernel replays — and no broken or remapped
    tip) sweeps the whole run through one kernel call;
    anything else walks it row by row, per dot under a broken tip.
    Both leave identical ledgers, counters, PRNG draws and injector op
    counts. *)

val read_run : t -> start:int -> len:int -> dst:Bytes.t -> unit
(** Magnetic read into bits [0, len) of [dst]; [true] = up = logical
    1.  Heated or failed-tip dots yield random values, as the physics
    dictates.
    @raise Invalid_argument if [dst] holds fewer than [len] bits. *)

val one_pass : t -> start:int -> len:int -> bool
(** Whether {!read_run} over the run is served by one packed kernel
    pass with no injector installed: the lean dispatch, and
    {!Pmedia.Bitops.mrb_run_fast} over the run (8-dot-aligned, no read
    noise, defect-free).  An inert injector does not qualify — callers
    use this to decide when RAS retries run — though its reads take the
    same kernels.  Decided before any charge or draw. *)

val write_run : t -> start:int -> len:int -> src:Bytes.t -> unit
(** Magnetic write of bits [0, len) of [src] over consecutive dots.
    @raise Invalid_argument if [src] holds fewer than [len] bits. *)

val heat_run : t -> start:int -> bool array -> unit
(** Electrical write: heats dot [start + i] wherever the pattern is
    [true].  Dots under failed tips receive no pulse. *)

val erb_run : ?cycles:int -> t -> start:int -> len:int -> dst:Bytes.t -> unit
(** Electrical read into bits [0, len) of [dst], packed as in
    {!read_run}: a set bit means the dot was detected heated.  [cycles]
    overrides the config's [erb_cycles].  One cycle misses a heated dot
    with probability 1/4 (the two verification reads of the paper's
    sequence both agree by luck), so callers that must not miss
    escalate the cycle count on suspicious dots.
    @raise Invalid_argument, before any seek or charge, if
    [cycles] is not positive, the run is out of range or [dst] holds
    fewer than [len] bits. *)

val elapsed : t -> float
val energy : t -> float
val reset_ledger : t -> unit

(** {1 Fault injection} *)

val install_fault : t -> Fault.Injector.t -> unit
(** Route every bit operation through the injector (see
    {!Pmedia.Bitops.set_fault}).  Scheduled tip deaths are drained at
    scan-row boundaries and marked in {!tips}; once any field is
    remapped to a spare, every scan row pays one extra settle time. *)

val clear_fault : t -> unit
val fault : t -> Fault.Injector.t option
