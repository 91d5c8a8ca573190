(** E18 — fault injection and the RAS layer: what recovery buys.

    Three questions, all under {e identical} fault plans (same seed →
    same injected event ledger) so RAS-off and RAS-on cells differ only
    in the recovery machinery:

    + {b Unrecoverable sectors and throughput} vs. transient read BER
      and dead probe tips.  E17 showed one dead tip defeats per-sector
      RS; here the spare-tip remap brings those sectors back, bounded
      read retry rides out marginal BER, and the timing ledger shows
      what the remap detour costs.
    + {b Torn burns}: a power cut mid-[heat_line] leaves a half-burned
      write-once area.  It must classify as recoverable-torn (not
      heated, not bad), verify as [Partially_burned] until completed,
      and reach [Intact] after the idempotent completion.
    + {b Power-cut rate}: lines torn per run vs. what a scrub pass
      recovers with RAS on, against the evidence left behind with RAS
      off.

    Determinism is part of the experiment: every cell is run twice and
    the two injection ledgers are compared byte-for-byte. *)

type row = {
  ber : float;
  dead_tips : int;
  ras_on : bool;
  sectors : int;
  unrecoverable : int;
  retries : int;
  repulses : int;
  remapped : int;
  throughput_mbs : float;  (** Payload MB/s over the read sweep. *)
  deterministic : bool;  (** Two runs produced identical ledgers. *)
}

val run_cell :
  ?n_blocks:int ->
  ?sectors:int ->
  ber:float ->
  dead_tips:int ->
  ras_on:bool ->
  plan_seed:int ->
  unit ->
  row

val sweep : unit -> row list
(** The full grid — raw BER 0, 1e-4, 2e-3 and 5e-3 by 0, 1 and 2 dead
    tips — each cell with RAS off then on, same plan seed per pair. *)

type torn_demo = {
  cut_after_cells : int;  (** ewb pulses delivered before the cut. *)
  verdict_before : Sero.Tamper.verdict;
  classified : Sero.Device.block_class;
  completion_ok : bool;
  verdict_after : Sero.Tamper.verdict;
}

type powercut_row = {
  lines_cut : int;
  tampered_without_ras : int;  (** Torn lines left as evidence. *)
  recovered_with_scrub : int;  (** Torn burns a scrub pass completed. *)
}

val powercut_series : ?cuts:int list -> unit -> powercut_row list

val print : Format.formatter -> unit
