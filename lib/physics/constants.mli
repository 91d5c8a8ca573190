(** Physical constants and the Co/Pt multilayer material description.

    The systems layers never hard-code material numbers; everything is
    drawn from a {!material} record so that the paper's own future-work
    item — "develop materials that change magnetic properties by
    interface mixing at lower temperatures" (Section 9) — is a parameter
    sweep, not a code change. *)

val boltzmann : float
(** k_B in J/K. *)

val mu0 : float
(** Vacuum permeability in T·m/A. *)

val cu_k_alpha : float
(** Cu Kα X-ray wavelength in metres (0.15406 nm) — the standard
    laboratory diffractometer source assumed for Figures 8 and 9. *)

val celsius_to_kelvin : float -> float
val kelvin_to_celsius : float -> float

type material = {
  label : string;
  k_interface : float;
      (** As-grown effective perpendicular anisotropy, J/m³.  The paper
          measures 80 kJ/m³ for its Co/Pt stack (Section 7). *)
  ms : float;  (** Saturation magnetisation, A/m. *)
  bilayer_period : float;
      (** Co+Pt bilayer period, m.  The paper's low-angle XRD peak near
          8° corresponds to ≈1.1 nm (each layer ≈0.6 nm). *)
  n_bilayers : int;  (** "tens of layers" — number of repeats. *)
  mix_activation_energy : float;
      (** Arrhenius activation energy of interface mixing, J. *)
  mix_attempt_rate : float;  (** Arrhenius prefactor, 1/s. *)
  cryst_activation_energy : float;
      (** Activation energy of fct CoPt crystallite growth, J. *)
  cryst_attempt_rate : float;  (** Prefactor for crystallisation, 1/s. *)
  anneal_duration : float;
      (** Reference anneal time used for the Figure 7 protocol, s. *)
}

val co_pt : material
(** The paper's Co/Pt stack, calibrated so that the Figure 7 anchor
    points hold: K ≈ 80 kJ/m³ maintained up to 500 °C annealing and a
    dramatic drop above 600 °C. *)

val co_pt_low_temp : material
(** A hypothetical engineered stack that mixes around 300 °C — the
    Section 9 future-work material (cf. the Co/Pt mixing observed at
    300 °C by Spoerl and Weller, Section 2 "Materials aspects").  Used
    by the neighbour-damage ablation (E13). *)

type dot_geometry = {
  diameter : float;  (** Dot diameter, m. *)
  thickness : float;  (** Total stack thickness, m. *)
  pitch : float;  (** Centre-to-centre dot spacing, m. *)
}

val dot_200nm : dot_geometry
(** The demonstrated 200 nm-pitch medium (Figure 5 left). *)

val dot_100nm : dot_geometry
(** The projected 100 nm pitch (50 nm dots, 50 nm spacing) giving
    10 Gbit/cm². *)

val dot_volume : dot_geometry -> float
(** Magnetic volume of one dot, m³ (cylinder). *)

val areal_density_bits_per_cm2 : dot_geometry -> float
(** One bit per dot: 1/pitch² scaled to cm². *)
