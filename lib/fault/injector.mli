(** The runtime half of fault injection: a {!Plan.t} plus the mutable
    state needed to make per-operation decisions and remember every
    event in a replayable ledger.

    Determinism contract: decisions use a private PRNG seeded only from
    the plan, never the medium's own stream, so installing an injector
    does not perturb the simulation's existing randomness.  Identical
    plans driven by identical operation traces produce bit-identical
    ledgers ({!ledger_to_string}) and op counts ({!ops}).  That holds
    whether an operation was ticked one by one or credited in bulk by
    {!advance} after {!inert} cleared the run: a fast kernel charges
    exactly the ticks its per-dot twin would have made, so op numbers,
    cut points and tip-death boundaries land where they would have.

    The hook points live in [Pmedia.Bitops] ({!tick}/{!flip_read}/
    {!stuck}/{!tick_ewb}/{!weak_pulse}) and [Probe.Pdevice]
    ({!newly_dead_tips}); user code normally only builds a plan and
    installs it with [Sero.Device.install_fault]. *)

exception Power_cut
(** Raised at an operation boundary when the plan's cut triggers.  The
    interrupted operation has {e not} touched the medium; everything
    before it has.  The cut disarms itself after firing, so the caller
    can treat the catch as the reboot and keep using the device. *)

type t

val create : Plan.t -> t
val plan : t -> Plan.t

val ops : t -> int
(** Primitive operations ticked so far. *)

val cut_fired : t -> bool

(** {1 Hook points} *)

val tick : t -> unit
(** Count one primitive operation; fires {!Power_cut} at the boundary
    configured by [power_cut_after_ops]. *)

val tick_ewb : t -> unit
(** Count one ewb pulse; fires {!Power_cut} at the boundary configured
    by [power_cut_after_ewb].  Call before the pulse takes effect. *)

val inert :
  ?pulses:int -> ?read:bool -> t -> first_dot:int -> n_dots:int -> ops:int -> bool
(** Whether the injector provably cannot act on a run of dots
    [first_dot, first_dot + n_dots) that ticks at most [ops] more times
    and pulses at most [pulses] (default 0) ewbs: no read there can
    stick or flip ({!Plan.flip_free}), no armed power cut falls within
    those ticks or pulses, and no pending tip death comes due within the
    ticks.  A [read] run (default [false]) is a pure magnetic read whose
    kernel replays the flips with {!flip_mask}, so it only needs
    [stuck_rate = 0] there.  A kernel may then skip the per-op hooks and
    {!advance} by the ticks it made.  Weak pulses are not covered: ewbs
    keep their per-dot hooks. *)

val advance : t -> int -> unit
(** [advance t n] credits [n] primitive operations at once, as [n]
    {!tick}s that fire nothing would.  Callers establish that with
    {!inert} first. *)

val flip_read : t -> dot:int -> bool
(** Decide (and log) whether this magnetic read flips, at the plan's
    effective probability for [dot] ({!Plan.region_ber}): targeted
    regions raise the rate locally, the baseline applies elsewhere:
    {!flip_mask} of the one dot at the current op. *)

val flip_mask : t -> ber:float -> op:int -> dot:int -> int -> int
(** [flip_mask t ~ber ~op ~dot mask] decides the flips of reads of dots
    [dot + k] for the set bits [k] of [mask] ([< 2^62]), lowest first,
    at probability [ber]: one draw from the injector's stream each when
    [0 < ber < 1] and none otherwise ([ber >= 1] flips them all), as
    {!Sim.Prng.bernoulli_mask}.  Each flip is logged as a read of op
    [op + k]; the mask of flipped dots is returned.  A packed read
    kernel calls it over a run's magnetised dots in address order, with
    the op numbers their own ticks would have had. *)

val stuck : t -> dot:int -> bool
(** Whether [dot] is stuck at Down — a pure function of the plan seed
    and the dot address, logged on every read that hits it. *)

val weak_pulse : t -> dot:int -> bool
(** Decide (and log) whether this ewb pulse is underpowered. *)

val newly_dead_tips : t -> int list
(** Tips whose scheduled death has passed and has not been reported yet;
    each is reported (and logged) exactly once. *)

(** {1 The ledger} *)

val ledger_to_string : t -> string
(** One event per line — the replayable record.  Two runs with the same
    plan and the same operation trace compare byte-equal. *)
