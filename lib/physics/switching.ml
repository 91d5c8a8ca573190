let anisotropy_field (m : Constants.material) ~k =
  2. *. k /. (Constants.mu0 *. m.ms)

let switching_field m ~k ~psi =
  let hk = anisotropy_field m ~k in
  let psi = Float.abs psi in
  let c = Float.abs (cos psi) ** (2. /. 3.)
  and s = Float.abs (sin psi) ** (2. /. 3.) in
  hk /. ((c +. s) ** 1.5)

let write_succeeds m ~k ~field ~psi =
  if k <= 0. then false else field > switching_field m ~k ~psi

let stability_factor m g ~k ~temp_c =
  ignore m;
  let v = Constants.dot_volume g in
  let t = Constants.celsius_to_kelvin temp_c in
  k *. v /. (Constants.boltzmann *. t)

let retains m g ~k ~temp_c = stability_factor m g ~k ~temp_c > 40.
