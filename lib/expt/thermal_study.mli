(** E13 — neighbour thermal damage (Section 7's reliability concern).

    Sweeps (a) the write-pulse peak temperature needed per material,
    (b) neighbour damage probability vs substrate heat-sinking quality
    (lateral decay length) and dot pitch, and (c) the benefit of
    Manchester spreading: expected collateral per burned hash area
    compared against a dense (unspread) encoding of the same bits. *)

type damage_row = {
  material : string;
  pitch_nm : float;
  decay_over_pitch : float;  (** Lateral decay length / pitch. *)
  peak_c : float;
  neighbour_c : float;
  target_destroyed : bool;
  neighbour_damage_p : float;
}

val damage_sweep : unit -> damage_row list

type spreading_row = {
  encoding : string;
  heated_dots : int;
  max_run : int;  (** Longest run of adjacent heated dots. *)
  worst_dot_risk : float;
      (** Max over surviving dots of the combined destruction
          probability from every pulse within the thermal decay length —
          clustered heat superposes, so long runs create hot spots. *)
  expected_collateral : float;
      (** Expected surviving dots destroyed across the hash area, under
          the same superposition. *)
}

val spreading : unit -> spreading_row list
(** Both encodings under a poorly heat-sunk profile, which makes the
    effect visible; the default profile keeps both near zero, which is
    itself the paper's point about substrate design. *)

val print : Format.formatter -> unit
