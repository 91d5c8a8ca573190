(* Deterministic fleet fan-out.

   The fleet campaigns simulate thousands of devices per design point.
   Device [i]'s behaviour must be a pure function of [(seed, i)] — never
   of the worker count — so shards are contiguous index ranges whose
   {e number} depends only on [n]: shard results merge in shard order,
   worker scheduling only changes which domain computes a shard, and the
   merged output is byte-identical for any [-j]. *)

type shard = { first : int; count : int }

let default_shards = 64

let shards n =
  if n < 0 then invalid_arg "Fleet.shards: negative count";
  let k = min default_shards (max 1 n) in
  if n = 0 then []
  else
    (* Same split for any worker count: shard s gets the ceiling share
       of the remainder, so sizes differ by at most one. *)
    List.init k (fun s ->
        let first = s * n / k and next = (s + 1) * n / k in
        { first; count = next - first })

let map_merge ?jobs ~seed n ~f ~merge =
  let per_shard =
    Pool.parallel_map ?jobs
      (fun { first; count } ->
        List.init count (fun k ->
            let i = first + k in
            f ~rng:(Prng.stream ~seed i) i)
        |> merge)
      (shards n)
  in
  merge per_shard
