(** E16 — reliability of the paper's erb protocol (a finding of this
    reproduction, not an experiment in the paper).

    The 5-step erb sequence declares a dot unheated when both of its
    verification reads succeed.  On a heated dot each magnetic read is
    random, so one round {e misses} with probability (1/2)² = 1/4, and
    k independent rounds with probability 4^-k.  Reading a burned
    4096-dot hash area (2048 heated dots) naively therefore produces
    phantom blank cells — spurious tamper verdicts on honest data.

    The study measures the per-dot miss rate against theory, the
    per-area false-alarm rate vs. cycle count, and the cost of the
    device's adaptive read (cheap first pass + hard re-probe of blank
    cells) against a uniformly hard read. *)

type miss_row = {
  cycles : int;
  measured_miss : float;  (** Monte-Carlo P(heated dot read as U). *)
  theory_miss : float;  (** 4^-cycles. *)
}

val miss_sweep : ?trials:int -> unit -> miss_row list
(** Cycle counts 1, 2, 3, 4, 6 and 8, [trials] (default 20000) reads of
    one heated dot each. *)

type area_row = {
  strategy : string;
  false_blank_areas : int;  (** Burned areas showing phantom blanks, out of [areas]. *)
  areas : int;
  mean_bitops : float;  (** Primitive ops per area read. *)
}

val area_comparison : ?areas:int -> unit -> area_row list
(** Naive 1-cycle, naive 8-cycle, and the adaptive (8 + 24 escalation)
    read over freshly burned hash areas. *)

val print : Format.formatter -> unit
