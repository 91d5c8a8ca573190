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
(* Array events                                                        *)

type array_event =
  | Member_loss of { member : int }
  | Replica_tamper of { member : int; line : int }

type timed_event = { at_op : int; event : array_event }
