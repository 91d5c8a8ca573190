exception Power_cut

type event =
  | Read_flip of { op : int; dot : int }
  | Stuck_read of { op : int; dot : int }
  | Tip_death of { op : int; tip : int }
  | Weak_pulse of { op : int; dot : int }
  | Cut of { op : int }

type t = {
  plan : Plan.t;
  rng : Sim.Prng.t;
  mutable ops : int;
  mutable ewbs : int;
  mutable cut_fired : bool;
  mutable pending_deaths : Plan.tip_death list;
  mutable events_rev : event list;
}

let create (plan : Plan.t) =
  {
    plan;
    rng = Sim.Prng.create plan.Plan.seed;
    ops = 0;
    ewbs = 0;
    cut_fired = false;
    pending_deaths = plan.Plan.tip_deaths;
    events_rev = [];
  }

let plan t = t.plan
let ops t = t.ops
let cut_fired t = t.cut_fired

let record t ev = t.events_rev <- ev :: t.events_rev

let fire_cut t =
  t.cut_fired <- true;
  record t (Cut { op = t.ops });
  raise Power_cut

let tick t =
  (match t.plan.Plan.power_cut_after_ops with
  | Some n when (not t.cut_fired) && t.ops >= n -> fire_cut t
  | _ -> ());
  t.ops <- t.ops + 1

let tick_ewb t =
  (match t.plan.Plan.power_cut_after_ewb with
  | Some n when (not t.cut_fired) && t.ewbs >= n -> fire_cut t
  | _ -> ());
  t.ewbs <- t.ewbs + 1

(* A cut at [n] fires on the tick that finds the counter at [n], so
   [count] more ticks from [base] reach it only when [n < base + count].
   Unfired, the counter never stands past [n]. *)
let cut_clear cut ~base ~count =
  match cut with None -> true | Some n -> n >= base + count

let rec deaths_clear ~until = function
  | [] -> true
  | d :: rest -> d.Plan.after_ops >= until && deaths_clear ~until rest

let inert ?(pulses = 0) ?(read = false) t ~first_dot ~n_dots ~ops =
  let p = t.plan in
  (if read then p.Plan.stuck_rate = 0.
   else Plan.flip_free p ~first_dot ~n_dots)
  && (t.cut_fired
     || cut_clear p.Plan.power_cut_after_ops ~base:t.ops ~count:ops
        && cut_clear p.Plan.power_cut_after_ewb ~base:t.ewbs ~count:pulses)
  && deaths_clear ~until:(t.ops + ops) t.pending_deaths

let advance t n = t.ops <- t.ops + n

let flip_mask t ~ber ~op ~dot mask =
  let fired = Sim.Prng.bernoulli_mask t.rng ber mask in
  if fired <> 0 then
    for k = 0 to 61 do
      if (fired lsr k) land 1 = 1 then
        record t (Read_flip { op = op + k; dot = dot + k })
    done;
  fired

let flip_read t ~dot =
  flip_mask t ~ber:(Plan.region_ber t.plan ~dot) ~op:t.ops ~dot 1 = 1

(* Stuck membership hashes the dot address into its own single-use
   stream: order-independent, so the stuck set is a property of the
   plan, not of which reads happened first. *)
let stuck t ~dot =
  let rate = t.plan.Plan.stuck_rate in
  rate > 0.
  && Sim.Prng.bernoulli
       (Sim.Prng.create (t.plan.Plan.seed lxor ((dot + 1) * 0x2545F491)))
       rate
  &&
  (record t (Stuck_read { op = t.ops; dot });
   true)

let weak_pulse t ~dot =
  t.plan.Plan.weak_ewb_p > 0.
  && Sim.Prng.bernoulli t.rng t.plan.Plan.weak_ewb_p
  &&
  (record t (Weak_pulse { op = t.ops; dot });
   true)

let newly_dead_tips t =
  match t.pending_deaths with
  | [] -> []
  | pending ->
      let dead, alive =
        List.partition (fun d -> t.ops >= d.Plan.after_ops) pending
      in
      t.pending_deaths <- alive;
      List.map
        (fun d ->
          record t (Tip_death { op = t.ops; tip = d.Plan.tip });
          d.Plan.tip)
        dead


let pp_event ppf = function
  | Read_flip { op; dot } -> Format.fprintf ppf "op=%d read-flip dot=%d" op dot
  | Stuck_read { op; dot } -> Format.fprintf ppf "op=%d stuck-read dot=%d" op dot
  | Tip_death { op; tip } -> Format.fprintf ppf "op=%d tip-death tip=%d" op tip
  | Weak_pulse { op; dot } -> Format.fprintf ppf "op=%d weak-pulse dot=%d" op dot
  | Cut { op } -> Format.fprintf ppf "op=%d power-cut" op

let ledger_to_string t =
  let buf = Buffer.create 256 in
  List.iter
    (fun ev ->
      Buffer.add_string buf (Format.asprintf "%a" pp_event ev);
      Buffer.add_char buf '\n')
    (List.rev t.events_rev);
  Buffer.contents buf
