(** Streaming measurement counters used by the experiment harness: a
    count, a total and a running mean, plus an exact reservoir of all
    samples for percentiles (experiments are small enough to keep them). *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val total : t -> float
val mean : t -> float
(** 0 when empty. *)

val percentile : t -> float -> float
(** [percentile t 0.99] — nearest-rank on the recorded samples.
    0 when empty. *)

val p50 : t -> float
val p95 : t -> float
val p99 : t -> float
(** The SLO quantiles ({!percentile} at 0.50 / 0.95 / 0.99) — the
    ledgers and experiment tables all report the same three, so they
    get names. *)

val quantiles : t -> float * float * float
(** [(p50, p95, p99)] from {e one} sort of the sample reservoir —
    cheaper than three {!percentile} calls on large samples.  The sort
    is memoised until the next {!add}, so repeated quantile reports on
    the same counter (the SLO ledgers, the fleet summaries) sort at
    most once per batch. *)

val merge : t -> t -> t
(** Combined statistics of two counters. *)

val merge_many : t list -> t
(** Deterministic fleet-wide merge: counts, totals and means combine
    pairwise (Chan et al.) in list order and sample reservoirs merge
    sorted-to-sorted, so the result is a pure function of the shard
    sequence — byte-identical for any worker count — and its quantile
    cache is already warm. *)

(** Simple fixed-width histogram for utilisation plots. *)
module Histogram : sig
  type h

  val create : lo:float -> hi:float -> bins:int -> h
  val add : h -> float -> unit
  val counts : h -> int array
  val bin_label : h -> int -> float
  (** Midpoint of bin [i]. *)

  val total : h -> int
end
