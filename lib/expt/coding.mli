(** E14 — write-once coding efficiency (Section 8, "Efficiency").

    Compares the space cost of the Manchester cell code against the
    Rivest–Shamir WOM code for metadata generations, and tabulates the
    wasted-space fraction of the hash block across line sizes. *)

type code_row = {
  code : string;
  bits_per_cell : float;
  generations : int;  (** Rewrites supported per cell group. *)
  tamper_evident : bool;
}

val print : Format.formatter -> unit
