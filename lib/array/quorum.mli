(** Cross-device attestation quorum.

    A single device's {!Sero.Device.verify_line} answers "does this
    replica's data match this replica's burned hash?" — self-reported
    testimony.  The quorum compares the {e burned hashes themselves}
    across a mirror group (replicas share local geometry, so honest
    burns are byte-identical): a replica whose burn diverges from the
    majority is outvoted and charged in the {!Trust} ledger, however
    internally consistent its own story is.

    Voting rules:
    - A replica whose own verdict is [Tampered]/[Partially_burned] is
      {e convicted} by its own medium (write-once burns cannot be
      re-burned to cover new data) — it is charged a conviction and
      excluded from the electorate rather than letting a self-evident
      forgery dilute the vote.
    - The remaining clean burned replicas vote by hash; strict
      majority wins, diverging voters are charged.
    - A tie (possible once losses shrink the electorate) is surfaced
      as [Tie_unattested] — never silently resolved.
    - Unreadable hash blocks are charged as such but don't vote. *)

type line_attestation =
  | Attested of { hash : Hash.Sha256.t; voters : int list; against : int list }
      (** Majority hash; [voters]/[against] are slot lists. *)
  | Tie_unattested of (int * Hash.Sha256.t) list
      (** Clean burns split with no strict majority. *)
  | All_convicted of int list
      (** Every serving replica is self-evidently tampered/torn. *)
  | Line_not_heated
      (** No serving replica has a burn (and none is tampered). *)
  | Line_offline  (** The mirror group has no serving member. *)

type verdict_counts = {
  attested : int;
  unattested : int;  (** Ties + all-convicted. *)
  not_heated : int;
  offline : int;
  outvoted_replicas : int;  (** Divergence charges applied. *)
  convicted_replicas : int;  (** Conviction charges applied. *)
}

type report = {
  lines : (int * line_attestation) list;  (** Ascending volume line. *)
  counts : verdict_counts;
  hash_reads : int;  (** Electrical hash-block reads spent. *)
  data_verifies : int;  (** Full data verifies spent. *)
}

type charge = { c_dev : int; c_charge : Trust.charge }

val attest_line_raw :
  Volume.t -> line:int -> line_attestation * charge list * int * int
(** Compute a line's attestation {e without} touching the trust ledger;
    returns the pending charges and the (hash_reads, data_verifies)
    cost.  Pure with respect to volume state, so calls over distinct
    mirror groups commute — the parallel-verify primitive. *)

val attest_line : Volume.t -> line:int -> line_attestation
(** {!attest_line_raw} + apply charges to the trust ledger (crossing
    the quarantine threshold quarantines the device in the volume). *)

val verify_volume : ?jobs:int -> Volume.t -> report
(** Attest every logical line.  [jobs] (default 1) fans mirror groups
    out via {!Sim.Pool.parallel_map}; charges are applied sequentially
    in ascending line order afterwards, so the report and the ledger
    are byte-identical for any [jobs]. *)

val source_meta :
  Volume.t ->
  line:int ->
  exclude_slot:int ->
  [ `Majority of Sero.Device.burned_meta * int list
    (** Winning burned meta + the agreeing source slots. *)
  | `Unattested of int list  (** Clean sources tied / all convicted. *)
  | `Not_heated of int list  (** Readable sources, none burned. *)
  | `No_source ]
(** The mini-quorum a rebuild runs over a line's surviving replicas
    (excluding the slot being rebuilt).  Same voting rules as
    {!attest_line_raw}; no trust charges. *)

val pp_report : Format.formatter -> report -> unit
