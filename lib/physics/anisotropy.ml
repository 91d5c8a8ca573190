type axis = Perpendicular | In_plane | Tilted

let equal_axis a b =
  match (a, b) with
  | Perpendicular, Perpendicular | In_plane, In_plane | Tilted, Tilted -> true
  | (Perpendicular | In_plane | Tilted), _ -> false

let arrhenius_fraction ~ea ~nu ~temp_c ~duration =
  if duration <= 0. then 0.
  else begin
    let t_k = Constants.celsius_to_kelvin temp_c in
    if t_k <= 0. then 0.
    else
      let rate = nu *. exp (-.ea /. (Constants.boltzmann *. t_k)) in
      1. -. exp (-.rate *. duration)
  end

let mixing_fraction (m : Constants.material) ~temp_c ~duration =
  arrhenius_fraction ~ea:m.mix_activation_energy ~nu:m.mix_attempt_rate
    ~temp_c ~duration

let crystallised_fraction (m : Constants.material) ~temp_c ~duration =
  arrhenius_fraction ~ea:m.cryst_activation_energy ~nu:m.cryst_attempt_rate
    ~temp_c ~duration

let k_as_grown (m : Constants.material) = m.k_interface

let k_after_anneal (m : Constants.material) ~temp_c =
  let mix = mixing_fraction m ~temp_c ~duration:m.anneal_duration in
  m.k_interface *. (1. -. mix)

let easy_axis_after_anneal (m : Constants.material) ~temp_c =
  let k = k_after_anneal m ~temp_c in
  if k > 0.5 *. m.k_interface then Perpendicular
  else
    let c = crystallised_fraction m ~temp_c ~duration:m.anneal_duration in
    if c > 0.5 then Tilted else In_plane

let destruction_threshold_c (m : Constants.material) =
  (* Bisection on the monotone K(T) for the half-anisotropy point. *)
  let target = 0.5 *. m.k_interface in
  let lo = ref 0. and hi = ref 2000. in
  while !hi -. !lo > 1. do
    let mid = (!lo +. !hi) /. 2. in
    if k_after_anneal m ~temp_c:mid > target then lo := mid else hi := mid
  done;
  !hi

let figure7_sweep m ~temps_c =
  List.map (fun t -> (t, k_after_anneal m ~temp_c:t /. 1e3)) temps_c
