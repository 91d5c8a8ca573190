type t = {
  mutable n : int;
  mutable mean : float;
  mutable total : float;
  mutable samples : float list; (* kept for percentiles; reversed order *)
  mutable sorted : float array option; (* memoised sort of [samples] *)
}

let create () = { n = 0; mean = 0.; total = 0.; samples = []; sorted = None }

let add t x =
  t.n <- t.n + 1;
  t.total <- t.total +. x;
  t.mean <- t.mean +. ((x -. t.mean) /. float_of_int t.n);
  t.samples <- x :: t.samples;
  t.sorted <- None

let count t = t.n
let total t = t.total
let mean t = if t.n = 0 then 0. else t.mean

(* The sorted reservoir, computed at most once per batch of adds: the
   SLO ledgers call p50/p95/p99 on the same counter per report, and the
   fleet reports ask again after merging — re-sorting each time was the
   dominant report cost. *)
let sorted_samples t =
  match t.sorted with
  | Some a -> a
  | None ->
      let a = Array.of_list t.samples in
      Array.sort compare a;
      t.sorted <- Some a;
      a

(* Nearest-rank quantile over a sorted sample array. *)
let rank_of sorted n p =
  let rank = int_of_float (ceil (p *. float_of_int n)) - 1 in
  sorted.(max 0 (min (n - 1) rank))

let percentile t p =
  if t.n = 0 then 0. else rank_of (sorted_samples t) t.n p

let p50 t = percentile t 0.50
let p95 t = percentile t 0.95
let p99 t = percentile t 0.99

let quantiles t =
  if t.n = 0 then (0., 0., 0.)
  else begin
    let a = sorted_samples t in
    (rank_of a t.n 0.50, rank_of a t.n 0.95, rank_of a t.n 0.99)
  end

(* Merge two sorted arrays, preserving order. *)
let merge_sorted a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then b
  else if nb = 0 then a
  else begin
    let out = Array.make (na + nb) 0. in
    let i = ref 0 and j = ref 0 in
    for k = 0 to na + nb - 1 do
      if !i < na && (!j >= nb || a.(!i) <= b.(!j)) then begin
        out.(k) <- a.(!i);
        incr i
      end
      else begin
        out.(k) <- b.(!j);
        incr j
      end
    done;
    out
  end

(* Chan et al.'s pairwise combination: exact counts, and the mean
   without replaying the sample streams. *)
let combine_means (na, ma) (nb, mb) =
  if nb = 0 then (na, ma)
  else if na = 0 then (nb, mb)
  else begin
    let fa = float_of_int na and fb = float_of_int nb in
    (na + nb, ma +. ((mb -. ma) *. fb /. (fa +. fb)))
  end

(* Deterministic fleet-wide merge: per-shard counters fold left in list
   order, so the result is a pure function of the shard sequence — the
   same bytes for any [-j].  Sample reservoirs merge sorted-to-sorted
   (each shard sorts once, reusing its memoised cache) and the merged
   counter is born with its own cache warm, so a quantile report on the
   merge costs no further sort. *)
let merge_many ts =
  let n, mean =
    List.fold_left (fun acc t -> combine_means acc (t.n, t.mean)) (0, 0.) ts
  in
  let sorted =
    List.fold_left (fun acc t -> merge_sorted acc (sorted_samples t)) [||] ts
  in
  {
    n;
    mean;
    total = List.fold_left (fun acc t -> acc +. t.total) 0. ts;
    samples = Array.fold_left (fun acc x -> x :: acc) [] sorted;
    sorted = Some sorted;
  }

let merge a b = merge_many [ a; b ]

module Histogram = struct
  type h = { lo : float; hi : float; bins : int array }

  let create ~lo ~hi ~bins =
    if bins <= 0 || hi <= lo then invalid_arg "Histogram.create";
    { lo; hi; bins = Array.make bins 0 }

  let add h x =
    let n = Array.length h.bins in
    let i =
      int_of_float (float_of_int n *. (x -. h.lo) /. (h.hi -. h.lo))
    in
    let i = max 0 (min (n - 1) i) in
    h.bins.(i) <- h.bins.(i) + 1

  let counts h = Array.copy h.bins

  let bin_label h i =
    let n = float_of_int (Array.length h.bins) in
    h.lo +. ((float_of_int i +. 0.5) *. (h.hi -. h.lo) /. n)

  let total h = Array.fold_left ( + ) 0 h.bins
end
