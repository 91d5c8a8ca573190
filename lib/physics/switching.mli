(** Stoner–Wohlfarth single-domain switching — governs whether the
    combined tip + external coil field (Section 6, Figure 6) can write a
    dot, and whether stored bits survive thermally (retention).

    A single-domain dot with uniaxial anisotropy [K] switches when the
    applied field exceeds the astroid threshold

    {v H_sw(psi) = H_K / (cos^{2/3} psi + sin^{2/3} psi)^{3/2} v}

    with [H_K = 2 K / (mu0 Ms)] and [psi] the angle between the field
    and the easy axis.  A heated dot has lost its perpendicular [K], so
    a perpendicular write field addresses only the (vanished) in-plane
    projection — the write no longer stores a perpendicular bit. *)

val anisotropy_field : Constants.material -> k:float -> float
(** [H_K = 2 k / (mu0 Ms)] in A/m, for the (possibly degraded)
    anisotropy value [k]. *)

val switching_field : Constants.material -> k:float -> psi:float -> float
(** Astroid switching threshold at field angle [psi] (radians from the
    easy axis), A/m. *)

val write_succeeds :
  Constants.material -> k:float -> field:float -> psi:float -> bool
(** Does an applied field of magnitude [field] at angle [psi] switch the
    dot? *)

val retains : Constants.material -> Constants.dot_geometry -> k:float -> temp_c:float -> bool
(** Whether the thermal stability ratio [K V / k_B T] exceeds 40, so a
    bit retains for years.  The paper's medium at 80 kJ/m³ and 100 nm
    dots is very comfortably stable. *)
