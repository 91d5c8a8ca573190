(* Kept for perfbench's machine fingerprint alone; see des.mli. *)
type sched = Binary_heap | Timing_wheel

let default_sched () = Binary_heap

type t = { mutable clock : float; queue : (t -> unit) Heap.t }

let create () = { clock = 0.; queue = Heap.create () }
let now t = t.clock

let schedule_at t ~at f =
  (* Every comparison with NaN is false, so the past check below would
     wave it through and the heap would fire it out of order. *)
  if not (Float.is_finite at) then
    invalid_arg "Des.schedule_at: non-finite time";
  if at < t.clock then invalid_arg "Des.schedule_at: event in the past";
  (* The heap is stable, so equal-timestamp events fire in the order
     they were scheduled — no extra sequencing needed here. *)
  Heap.push t.queue at f

let schedule t ~delay f =
  if delay < 0. then invalid_arg "Des.schedule: negative delay";
  schedule_at t ~at:(t.clock +. delay) f

(* Fire the next event without allocating an option pair. *)
let fire_min t =
  let q = t.queue in
  let at = Heap.min_key q and f = Heap.min_value q in
  Heap.drop_min q;
  t.clock <- at;
  f t

let step t =
  if Heap.is_empty t.queue then false
  else begin
    fire_min t;
    true
  end

let run ?until t =
  match until with
  | None -> while not (Heap.is_empty t.queue) do fire_min t done
  | Some limit ->
      let continue = ref true in
      while !continue do
        if Heap.is_empty t.queue then continue := false
        else if Heap.min_key t.queue > limit then begin
          t.clock <- limit;
          continue := false
        end
        else fire_min t
      done

let pending t = Heap.size t.queue
