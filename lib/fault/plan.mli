(** A declarative, seeded fault plan.

    A plan describes {e what can go wrong} during a run: transient
    magnetic-read bit flips, dots stuck at Down, probe tips dying after
    a given operation count, underpowered ewb pulses that fail to heat
    their dot (the mechanism behind {e torn} burns), and a power cut at
    an operation boundary.  The plan itself is pure data; {!Injector}
    turns it into per-operation decisions driven by a splitmix64 stream
    ({!Sim.Prng}) so that the same plan always produces the same fault
    sequence for the same operation trace. *)

type tip_death = {
  tip : int;  (** Logical tip index. *)
  after_ops : int;  (** The tip dies once this many primitive ops ran. *)
}

type region = {
  first_dot : int;  (** First dot of the elevated-BER window. *)
  n_dots : int;  (** Window length in dots. *)
  ber : float;  (** Per-mrb flip probability inside the window. *)
}
(** A contiguous dot range whose raw read-BER differs from the plan's
    baseline — the declarative form of a localized wear ramp or thermal
    hot spot (Evans-style thermally-induced errors land on specific
    tracks, not uniformly).  An adversary-driven plan layers these over
    the injector so that targeted noise is replayable data, not code. *)

type t = {
  seed : int;  (** Root of the injector's private PRNG stream. *)
  read_ber : float;  (** Per-mrb probability of flipping the result. *)
  targeted : region list;
      (** Dot ranges with their own flip probability; the first matching
          region (with [ber > 0]) overrides [read_ber] for dots inside
          it.  Decisions still consume exactly one PRNG draw whenever
          the effective probability is positive, so adding a region does
          not shift the fault stream seen by dots outside it beyond the
          draws the region itself makes. *)
  stuck_rate : float;
      (** Fraction of dots stuck at Down; membership is a pure function
          of [(seed, dot)], so it is stable across runs and independent
          of operation order. *)
  tip_deaths : tip_death list;
  weak_ewb_p : float;
      (** Per-ewb probability that the pulse is underpowered and fails
          to heat the dot — torn burns when it strikes mid-heat. *)
  power_cut_after_ops : int option;
      (** Cut power at the boundary after this many primitive ops. *)
  power_cut_after_ewb : int option;
      (** Cut power after this many ewb pulses — lands the cut inside a
          specific burn with cell precision. *)
}

val make :
  ?seed:int ->
  ?read_ber:float ->
  ?targeted:region list ->
  ?stuck_rate:float ->
  ?tip_deaths:tip_death list ->
  ?weak_ewb_p:float ->
  ?power_cut_after_ops:int ->
  ?power_cut_after_ewb:int ->
  unit ->
  t
(** All faults default to off; [seed] defaults to 0.
    @raise Invalid_argument on negative counts or probabilities outside
    [0, 1]. *)

val pp : Format.formatter -> t -> unit

val region_ber : t -> dot:int -> float
(** Effective flip probability for [dot]: the first matching targeted
    region's [ber] when one covers the dot, else [read_ber]. *)

val region_end : t -> dot:int -> stop:int -> int
(** The end of the stretch from [dot] over which {!region_ber} keeps its
    value at [dot]: the nearest targeted-region boundary past [dot], or
    [stop] if none comes first. *)

val flip_free : t -> first_dot:int -> n_dots:int -> bool
(** Whether no read of a dot in [first_dot, first_dot + n_dots) can be
    altered: [read_ber] and [stuck_rate] are zero and no region of
    nonzero [ber] overlaps the range.  Such reads draw nothing from the
    injector's stream. *)

(** {1 Array events}

    A scripted multi-device failure: {e array-level} events — whole-device
    loss and targeted replica tamper — at volume operation boundaries,
    so a disaster is a list of data that replays exactly
    ([Sarray.Volume.install_plan] validates and arms it). *)

type array_event =
  | Member_loss of { member : int }
      (** The device serving array slot [member] stops answering —
          whole-device loss. *)
  | Replica_tamper of { member : int; line : int }
      (** An attacker magnetically rewrites one replica of volume line
          [line] (the first data block), leaving its burned hash
          testifying against the alteration.  [member] is the replica
          ordinal within the line's mirror group (0-based), not an
          absolute slot — every line has a [member]-th replica whatever
          group it lives in. *)

type timed_event = { at_op : int; event : array_event }
(** [event] fires at the boundary after [at_op] volume operations. *)
