(** E23 — the sharded array at fleet scale: durability, detection
    latency and audit cost under replica tamper and whole-device loss.

    A grid of (array size × replication factor) × (tamper count ×
    loss count) cells.  Each cell builds a fresh volume, fills and
    heats it, scripts its disaster as replayable
    {!Fault.Plan.timed_event}s, then measures:

    - {b durability}: records whose bytes are wrong or missing {e
      without} the quorum flagging the line — the undetected-loss
      count the acceptance criterion requires to be zero whenever
      replication ≥ 2;
    - {b detection latency}: audited lines (in audit order) before the
      first tampered or diverging replica is charged;
    - {b audit cost}: electrical hash reads + data verifies spent by a
      full volume attestation;
    - {b rebuild}: the failed/outvoted member is rebuilt onto the
      spare and every re-burned line must reproduce the pre-failure
      burned hash.

    Cells are pure functions of their parameters and fan out on
    {!Sim.Pool}; output is byte-identical for any [SERO_JOBS]/[-j]. *)

type cell = {
  slots : int;
  replication : int;
  tampers : int;  (** Tampered replicas (distinct heated lines). *)
  losses : int;  (** Whole-device member losses. *)
}

type row = {
  c : cell;
  records : int;
  heated_lines : int;
  undetected_loss : int;
  unreadable_records : int;  (** Reads that failed outright (flagged). *)
  detected_replicas : int;  (** Convictions + divergences charged. *)
  detection_latency : int;
      (** Lines audited before the first charge; [-1] when the cell
          injects nothing to detect. *)
  audit_hash_reads : int;
  audit_data_verifies : int;
  degraded_reads : int;
  rebuild_hash_ok : bool;
      (** Every line re-burned on the spare reproduces the pre-failure
          hash and no re-attestation failed. *)
  post_rebuild_attested : int;
      (** Heated lines attested by a full verify after the rebuild. *)
}

type headline = {
  h_undetected : float;  (** Total undetected record loss (must be 0). *)
  h_detected : float;  (** Total replicas charged across the grid. *)
  h_rebuild_pct : float;  (** Cells whose rebuild reproduced hashes. *)
  h_attested_pct : float;  (** Post-rebuild heated lines attested. *)
  h_audit_per_line : float;  (** Audit ops per logical line. *)
}

val headline : unit -> headline
val print : Format.formatter -> unit
