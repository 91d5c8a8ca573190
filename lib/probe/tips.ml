type t = {
  n_tips : int;
  n_spares : int;
  n_dots : int;
  field_size : int;
  field_cols : int;
  failed : bool array; (* length n_tips + n_spares; raw health *)
  remap : int array; (* length n_tips; spare unit serving the tip, or -1 *)
  uses : int array; (* length n_tips + n_spares *)
  mutable next_spare : int;
  mutable serving_broken : int; (* logical tips whose serving unit is broken *)
  mutable n_remapped : int;
  mutable full_uses : int; (* banked whole-row wear, one per logical tip *)
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
    uses = Array.make (n_tips + spares) 0;
    next_spare = 0;
    serving_broken = 0;
    n_remapped = 0;
    full_uses = 0;
  }

let copy t =
  {
    t with
    failed = Array.copy t.failed;
    remap = Array.copy t.remap;
    uses = Array.copy t.uses;
  }

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

(* Whole-row wear (the hot case: every scan row of a bulk run touches
   every logical tip once) is banked in a single counter and
   materialised into [uses] only when the serving map is about to
   change or a count is read. *)
let flush_full_uses t =
  if t.full_uses > 0 then begin
    for i = 0 to t.n_tips - 1 do
      let u = serving t i in
      t.uses.(u) <- t.uses.(u) + t.full_uses
    done;
    t.full_uses <- 0
  end

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
  flush_full_uses t;
  t.failed.(i) <- true;
  recount t

let tip_broken t i = t.failed.(i)
let tip_failed t i = t.failed.(serving t i)
let all_serving_healthy t = t.serving_broken = 0

let failed_count t =
  let n = ref 0 in
  for i = 0 to t.n_tips - 1 do
    if t.failed.(i) then incr n
  done;
  !n

let remapped_count t = t.n_remapped

let spares_free t =
  let free = ref 0 in
  for s = t.next_spare to t.n_spares - 1 do
    if not t.failed.(t.n_tips + s) then incr free
  done;
  !free

let remap_tip t i =
  if i < 0 || i >= t.n_tips then invalid_arg "Tips.remap_tip: bad tip";
  flush_full_uses t;
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

let record_use t ~tip =
  let u = serving t tip in
  t.uses.(u) <- t.uses.(u) + 1

let record_use_range t ~lo ~hi =
  if lo < 0 || hi >= t.n_tips then
    invalid_arg "Tips.record_use_range: tip range out of range";
  if t.n_remapped = 0 then begin
    if lo = 0 && hi = t.n_tips - 1 then t.full_uses <- t.full_uses + 1
    else
      for i = lo to hi do
        t.uses.(i) <- t.uses.(i) + 1
      done
  end
  else
    for i = lo to hi do
      let u = serving t i in
      t.uses.(u) <- t.uses.(u) + 1
    done

(* [count] whole rows of wear at once — only valid when no tip is
   remapped (the caller's lean-path guard), where a full row is exactly
   one banked increment.  Bit-identical to [count] record_use_range
   calls with lo=0, hi=n_tips-1. *)
let record_full_rows t ~count =
  if count > 0 then begin
    assert (t.n_remapped = 0);
    t.full_uses <- t.full_uses + count
  end

let uses t ~tip =
  flush_full_uses t;
  t.uses.(tip)
