type t = {
  n_tips : int;
  n_spares : int;
  n_dots : int;
  field_size : int;
  field_cols : int;
  failed : bool array; (* length n_tips + n_spares; raw health *)
  remap : int array; (* length n_tips; spare unit serving the tip, or -1 *)
  mutable next_spare : int;
  mutable serving_broken : int; (* logical tips whose serving unit is broken *)
  mutable n_remapped : int;
}

let create ?(spares = 0) ~n_tips medium =
  let n = Pmedia.Medium.size medium in
  if n_tips <= 0 then invalid_arg "Tips.create: n_tips must be positive";
  if spares < 0 then invalid_arg "Tips.create: spares must be non-negative";
  (* Rounding rule: fields are ceil(n / n_tips) dots; when n_tips does
     not divide the medium size, the trailing scan row is partial and
     tips with index >= n mod n_tips simply have one dot fewer.  locate
     and dot_of still range-check against the true dot count. *)
  let field_size = (n + n_tips - 1) / n_tips in
  (* Tip fields tile the medium column-wise: each tip's field is a
     vertical stripe [cols / n_tips] dots wide (when that divides) or a
     row-major slice otherwise; only the width matters for seek cost. *)
  let cols = Pmedia.Medium.cols medium in
  let field_cols = if cols mod n_tips = 0 then cols / n_tips else cols in
  let field_cols = max 1 (min field_cols field_size) in
  {
    n_tips;
    n_spares = spares;
    n_dots = n;
    field_size;
    field_cols;
    failed = Array.make (n_tips + spares) false;
    remap = Array.make n_tips (-1);
    next_spare = 0;
    serving_broken = 0;
    n_remapped = 0;
  }

let copy t = { t with failed = Array.copy t.failed; remap = Array.copy t.remap }

let n_tips t = t.n_tips
let spares t = t.n_spares
let field_size t = t.field_size
let field_cols t = t.field_cols

let locate t dot =
  if dot < 0 || dot >= t.n_dots then
    invalid_arg "Tips.locate: dot address out of range";
  (dot mod t.n_tips, dot / t.n_tips)

let dot_of t ~tip ~offset =
  if tip < 0 || tip >= t.n_tips || offset < 0 || offset >= t.field_size then
    invalid_arg "Tips.dot_of: out of range";
  let dot = (offset * t.n_tips) + tip in
  if dot >= t.n_dots then invalid_arg "Tips.dot_of: out of range";
  dot

(* The physical unit currently serving a logical tip. *)
let serving t i = if i < t.n_tips && t.remap.(i) >= 0 then t.remap.(i) else i

(* Health transitions (fail, remap) are rare; recounting keeps the
   cached summaries trivially consistent with the arrays. *)
let recount t =
  let broken = ref 0 in
  for i = 0 to t.n_tips - 1 do
    if t.failed.(serving t i) then incr broken
  done;
  t.serving_broken <- !broken;
  let remapped = ref 0 in
  Array.iter (fun s -> if s >= 0 then incr remapped) t.remap;
  t.n_remapped <- !remapped

let fail_tip t i =
  t.failed.(i) <- true;
  recount t

let tip_failed t i = t.failed.(serving t i)
let all_serving_healthy t = t.serving_broken = 0
let remapped_count t = t.n_remapped

let remap_tip t i =
  if i < 0 || i >= t.n_tips then invalid_arg "Tips.remap_tip: bad tip";
  if not (tip_failed t i) then false
  else begin
    (* Scan forward for the next healthy, unassigned spare. *)
    let rec pick () =
      if t.next_spare >= t.n_spares then false
      else begin
        let unit = t.n_tips + t.next_spare in
        t.next_spare <- t.next_spare + 1;
        if t.failed.(unit) then pick ()
        else begin
          t.remap.(i) <- unit;
          recount t;
          true
        end
      end
    in
    pick ()
  end
