(** Fleet-scale insider-attack campaigns against a bounded audit
    budget.

    An insider with a {e budget} — a number of attack operations, a
    wall-clock window on the DES, and a fraction of the fleet it has
    compromised — adaptively schedules attacks across a fleet of
    {!Sero.Device.clone}s, while the defender spends a bounded audit
    budget: a scrub sweep policy ({!Sero.Scrub.policy}), optional deep
    data verification, and background-class [Audit_line] traffic
    submitted through the host front-end, where it contends with the
    foreground under the arbiter.  The campaign measures what the paper
    can only argue qualitatively: the {e detection-latency versus audit
    cost} frontier of tamper-evident storage at fleet scale.

    Every campaign is a pure function of [(seed, sites, attack,
    adversary, defender)]: sites fan out via {!Sim.Fleet.map_merge}
    with keyed per-site PRNG streams, so the merged result is
    byte-identical for any [SERO_JOBS]. *)

(** {1 Attack classes} *)

type attack =
  | Selective_tamper
      (** Rewrite data blocks of cold heated lines — record lines the
          foreground rarely touches, so only audit spend can notice. *)
  | Scrubber_race
      (** Observe the scrub planner's sweep position
          ({!Sero.Scrub.planner_position}) and tamper the heated line
          the sweep will reach {e last} — racing a full rotation ahead
          of the cursor. *)
  | Carcass_replay
      (** Replay raw frames from an evacuated, quarantined carcass
          (the endurance-migration log's old home) over a live heated
          line: stale-but-authentic bytes substituted for current
          data. *)
  | Spare_exhaustion
      (** Ride a localized wear ramp: targeted read-BER regions
          ({!Fault.Plan.region}) over decoy lines collapse their health
          margins, the maintenance scheduler burns spare lines
          evacuating them, and the final tamper lands on a device
          drained of spares. *)
  | Mirror_split
      (** Against a mirrored {!Sarray.Volume}: rewrite {e every}
          replica of a line's data so no cross-replica divergence
          exists — only a sampled {!Sarray.Quorum.attest_line}
          attestation (each replica self-convicts) can notice. *)

val all_attacks : attack list
val attack_name : attack -> string

val attack_of_string : string -> attack option
(** Inverse of {!attack_name}. *)

(** {1 Budgets} *)

type adversary = {
  ops_budget : int;  (** Attack operations per compromised site. *)
  window : float;  (** Simulated seconds the campaign may span. *)
  compromised : float;  (** Fraction of the fleet the insider owns. *)
}

type defender = {
  scrub_policy : Sero.Scrub.policy;
  scrub_period : float;  (** Seconds between scrub-line submissions. *)
  deep_verify : bool;  (** Scrub re-verifies heated lines' data. *)
  audit_period : float;
      (** Seconds between [Audit_line] frames ([infinity] = none). *)
  array_sample : int;  (** Quorum attestations per array audit window. *)
}

val default_adversary : adversary
(** 6 ops in a 2 s window, the whole fleet compromised. *)

val reference_defender : defender
(** The budget the acceptance bar holds: sampled scrub planner with
    deep verify plus round-robin line audits — every attack class is
    detected within the campaign horizon. *)

val scrub_only_defender : defender
(** Deep-verifying scrub sweeps but no audit traffic: detection rides
    the sweep rotation alone. *)

val starved_defender : defender
(** Sequential shallow scrub, no audit spend: data-only tampers on
    burned lines go unseen — the nonzero undetected-loss end of the
    frontier. *)

(** {1 Results} *)

type result = {
  r_sites : int;
  r_compromised : int;  (** Sites the insider actually owned. *)
  r_attack_ops : int;  (** Attack operations actually spent. *)
  r_landed : int;  (** Distinct lines tampered, fleet-wide. *)
  r_detected : int;
  r_undetected : int;  (** Landed tampers never detected by horizon. *)
  r_det_latency_ms : Sim.Stats.t;
      (** Land-to-detection latency of detected tampers, ms. *)
  r_races : int;  (** Scrubber-race tampers landed. *)
  r_race_wins : int;
      (** Races the insider won: undetected, or detected only after
          3/4 of a full sweep rotation. *)
  r_spares_burned : int;  (** Spare lines drained fleet-wide. *)
  r_audit_frames : int;  (** [Audit_line] frames submitted. *)
  r_audit_rejected : int;  (** Audit frames bounced by admission. *)
  r_scrub_sweeps : int;  (** Scrub lines swept (incl. retired skips). *)
  r_fg_completed : int;  (** Foreground responses delivered. *)
}

val audit_spend : result -> int
(** The defender's spend in audit currency: [Audit_line] frames plus
    scrub sweep submissions. *)

val merge : result list -> result
(** Integer sums plus {!Sim.Stats.merge_many} — the [map_merge]
    reducer. *)

val run :
  ?seed:int ->
  ?sites:int ->
  attack:attack ->
  adversary:adversary ->
  defender:defender ->
  unit ->
  result
(** Run one campaign cell: [sites] independent sites (default 8, seed
    0xE27 mixed with the attack class), each a CoW clone of a golden
    device — or a fresh mirrored volume for [Mirror_split] — fanned out
    deterministically via {!Sim.Fleet.map_merge}. *)

val pp_result : Format.formatter -> result -> unit
