type t = {
  timing : Timing.t;
  pitch : float;
  field_cols : int;
  mutable position : int;
}

let create timing ~pitch ~field_cols =
  if field_cols <= 0 then invalid_arg "Actuator.create: field_cols";
  { timing; pitch; field_cols; position = 0 }

(* Same geometry and kinematic state, charging into [timing] (the
   clone's private ledger). *)
let copy t timing = { t with timing }

let xy_of_offset t off =
  let row = off / t.field_cols and i = off mod t.field_cols in
  let col = if row land 1 = 0 then i else t.field_cols - 1 - i in
  (col, row)

let seek t offset =
  if offset < 0 then invalid_arg "Actuator.seek: negative offset";
  (* Staying put, or the next dot in the serpentine path (a continuous
     scan step, reached within the bit time the caller charges), is
     free; anything else is a seek. *)
  if offset <> t.position && offset <> t.position + 1 then begin
    let x0, y0 = xy_of_offset t t.position and x1, y1 = xy_of_offset t offset in
    let dx = float_of_int (x1 - x0) *. t.pitch
    and dy = float_of_int (y1 - y0) *. t.pitch in
    Timing.charge_seek t.timing ~distance:(sqrt ((dx *. dx) +. (dy *. dy)))
  end;
  t.position <- offset

(* The scan steps after the first seek are free, so the run ends where
   a per-offset seek loop would, at the same charge. *)
let scan_run t ~first ~last =
  seek t first;
  t.position <- last
