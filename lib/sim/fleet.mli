(** Deterministic fleet fan-out over {!Pool}.

    Shards a population of [n] independent simulations (devices, cells)
    into contiguous index ranges whose count is a pure function of [n]
    — never of the worker count — and gives simulation [i] the keyed
    PRNG {!Prng.stream}[ ~seed i].  Each shard reduces its results in
    index order and the shard summaries reduce in shard order, so fleet
    output is byte-identical for any [-j]. *)

type shard = { first : int; count : int }

val default_shards : int
(** Target shard count (64): enough slack for dynamic load balance at
    any plausible core count, few enough that per-shard state stays
    cheap. *)

val shards : int -> shard list
(** [shards n] splits [0..n-1] into at most {!default_shards}
    contiguous ranges of near-equal size, in index order.  Pure in [n] —
    the same plan whatever runs it.
    @raise Invalid_argument if [n < 0]. *)

val map_merge :
  ?jobs:int ->
  seed:int ->
  int ->
  f:(rng:Prng.t -> int -> 'a) ->
  merge:('a list -> 'a) ->
  'a
(** [map_merge ~seed n ~f ~merge] computes [f ~rng:(Prng.stream ~seed i) i]
    for every [i] in [0..n-1], shard-parallel; [f] must not touch state
    shared across indices.  Each shard reduces its results with [merge]
    before returning and the shard summaries reduce once more in shard
    order — the fleet-statistics shape ({!Stats.merge_many} is the
    canonical [merge]).  The merge {e grouping} is fixed by the shard
    plan, which is pure in [n], so the result is byte-identical for any
    [jobs] even when [merge] is only approximately associative
    (floating-point moment combination). *)
