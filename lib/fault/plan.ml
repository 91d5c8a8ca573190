type tip_death = { tip : int; after_ops : int }
type region = { first_dot : int; n_dots : int; ber : float }

type t = {
  seed : int;
  read_ber : float;
  targeted : region list;
  stuck_rate : float;
  tip_deaths : tip_death list;
  weak_ewb_p : float;
  power_cut_after_ops : int option;
  power_cut_after_ewb : int option;
}

let none =
  {
    seed = 0;
    read_ber = 0.;
    targeted = [];
    stuck_rate = 0.;
    tip_deaths = [];
    weak_ewb_p = 0.;
    power_cut_after_ops = None;
    power_cut_after_ewb = None;
  }

let check_p name p =
  if p < 0. || p > 1. then
    invalid_arg (Printf.sprintf "Fault.Plan.make: %s must be in [0, 1]" name)

let make ?(seed = 0) ?(read_ber = 0.) ?(targeted = []) ?(stuck_rate = 0.)
    ?(tip_deaths = []) ?(weak_ewb_p = 0.) ?power_cut_after_ops
    ?power_cut_after_ewb () =
  check_p "read_ber" read_ber;
  check_p "stuck_rate" stuck_rate;
  check_p "weak_ewb_p" weak_ewb_p;
  List.iter
    (fun r ->
      check_p "targeted ber" r.ber;
      if r.first_dot < 0 || r.n_dots < 0 then
        invalid_arg "Fault.Plan.make: targeted regions must be non-negative")
    targeted;
  List.iter
    (fun d ->
      if d.tip < 0 || d.after_ops < 0 then
        invalid_arg "Fault.Plan.make: tip_deaths entries must be non-negative")
    tip_deaths;
  Option.iter
    (fun n ->
      if n < 0 then invalid_arg "Fault.Plan.make: power_cut_after_ops < 0")
    power_cut_after_ops;
  Option.iter
    (fun n ->
      if n < 0 then invalid_arg "Fault.Plan.make: power_cut_after_ewb < 0")
    power_cut_after_ewb;
  {
    seed;
    read_ber;
    targeted;
    stuck_rate;
    tip_deaths;
    weak_ewb_p;
    power_cut_after_ops;
    power_cut_after_ewb;
  }

(* Top-level recursions, so a per-read lookup builds no closure. *)
let rec ber_in dot default = function
  | [] -> default
  | r :: rest ->
      if r.ber > 0. && dot >= r.first_dot && dot < r.first_dot + r.n_dots then
        r.ber
      else ber_in dot default rest

let region_ber t ~dot = ber_in dot t.read_ber t.targeted

let rec next_edge dot stop = function
  | [] -> stop
  | r :: rest ->
      let stop = if r.first_dot > dot && r.first_dot < stop then r.first_dot else stop in
      let e = r.first_dot + r.n_dots in
      next_edge dot (if e > dot && e < stop then e else stop) rest

let region_end t ~dot ~stop = next_edge dot stop t.targeted

let rec noisy_overlap ~first_dot ~n_dots = function
  | [] -> false
  | r :: rest ->
      (r.ber > 0.
      && r.first_dot < first_dot + n_dots
      && first_dot < r.first_dot + r.n_dots)
      || noisy_overlap ~first_dot ~n_dots rest

let flip_free t ~first_dot ~n_dots =
  t.read_ber = 0. && t.stuck_rate = 0.
  && not (noisy_overlap ~first_dot ~n_dots t.targeted)

let quiet t =
  t.read_ber = 0.
  && List.for_all (fun r -> r.ber = 0. || r.n_dots = 0) t.targeted
  && t.stuck_rate = 0. && t.tip_deaths = []
  && t.weak_ewb_p = 0.
  && t.power_cut_after_ops = None
  && t.power_cut_after_ewb = None

let pp ppf t =
  Format.fprintf ppf
    "plan{seed=%d ber=%g targeted=[%a] stuck=%g deaths=[%a] weak-ewb=%g \
     cut-ops=%s cut-ewb=%s}"
    t.seed t.read_ber
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
       (fun ppf r ->
         Format.fprintf ppf "%d+%d@%g" r.first_dot r.n_dots r.ber))
    t.targeted t.stuck_rate
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
       (fun ppf d -> Format.fprintf ppf "tip %d@%d" d.tip d.after_ops))
    t.tip_deaths t.weak_ewb_p
    (match t.power_cut_after_ops with
    | None -> "-"
    | Some n -> string_of_int n)
    (match t.power_cut_after_ewb with
    | None -> "-"
    | Some n -> string_of_int n)

(* ------------------------------------------------------------------ *)
(* Array plans                                                         *)

type array_event =
  | Member_loss of { member : int }
  | Replica_tamper of { member : int; line : int }

type timed_event = { at_op : int; event : array_event }

type array_plan = {
  array_seed : int;
  member_plans : (int * t) list;
  events : timed_event list;
}

let array_make ?(seed = 0) ?(member_plans = []) ?(events = []) () =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (m, _) ->
      if m < 0 then invalid_arg "Fault.Plan.array_make: negative member index";
      if Hashtbl.mem seen m then
        invalid_arg
          (Printf.sprintf "Fault.Plan.array_make: duplicate member %d" m);
      Hashtbl.add seen m ())
    member_plans;
  List.iter
    (fun { at_op; event } ->
      if at_op < 0 then invalid_arg "Fault.Plan.array_make: at_op < 0";
      match event with
      | Member_loss { member } ->
          if member < 0 then
            invalid_arg "Fault.Plan.array_make: negative member index"
      | Replica_tamper { member; line } ->
          if member < 0 || line < 0 then
            invalid_arg "Fault.Plan.array_make: negative member index or line")
    events;
  let events = List.stable_sort (fun a b -> compare a.at_op b.at_op) events in
  { array_seed = seed; member_plans; events }

let member_seed p ~member =
  (* One splitmix64 draw keyed on (array_seed, member): member streams
     are mutually independent and stable no matter which members the
     plan happens to list explicitly. *)
  let r = Sim.Prng.create (p.array_seed lxor ((member + 1) * 0x9E3779B9)) in
  Int64.to_int (Int64.shift_right_logical (Sim.Prng.bits64 r) 2)

let member_plan p ~member =
  let base =
    match List.assoc_opt member p.member_plans with
    | Some pl -> pl
    | None -> none
  in
  if base.seed = 0 then { base with seed = member_seed p ~member } else base

let pp_array_event ppf = function
  | Member_loss { member } -> Format.fprintf ppf "member-loss %d" member
  | Replica_tamper { member; line } ->
      Format.fprintf ppf "replica-tamper replica %d line %d" member line

let pp_array ppf p =
  Format.fprintf ppf "array-plan{seed=%d members=[%a] events=[%a]}"
    p.array_seed
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
       (fun ppf (m, pl) -> Format.fprintf ppf "%d:%a" m pp pl))
    p.member_plans
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
       (fun ppf e -> Format.fprintf ppf "@%d %a" e.at_op pp_array_event e.event))
    p.events
