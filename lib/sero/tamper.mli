(** Tamper-evidence verdicts produced by the verify and scan operations. *)

type evidence =
  | Hash_mismatch
      (** The recomputed hash of the line's data blocks differs from the
          burned hash — data or addresses were altered after heating. *)
  | Invalid_cells of int
      (** [HH] cells in the write-once area: someone heated dots of an
          already-burned hash (Section 5.1, "ewb hash"). *)
  | Partially_burned
      (** The write-once area mixes valid and blank cells: a heat
          operation was interrupted or the area was selectively burned. *)
  | Data_unreadable of int list
      (** Data blocks whose sector frames no longer decode (e.g. an
          electrical write into the data area destroyed dots —
          Section 5.1, "ewb inode/data" appears as a read error). *)
  | Address_mismatch of int list
      (** Frames decode but carry a different PBA than where they were
          found — a copied/relocated block (Section 5.2: "a copy can
          always be distinguished from an original"). *)
  | Meta_corrupt
      (** The burned area decodes cleanly but its metadata does not
          parse — it was not produced by a legitimate heat operation. *)

type verdict =
  | Intact  (** Burned hash present, clean, and matching. *)
  | Not_heated  (** Write-once area fully blank: an ordinary WMRM line. *)
  | Tampered of evidence list  (** Non-empty list of findings. *)

val equal_verdict : verdict -> verdict -> bool
val pp_verdict : Format.formatter -> verdict -> unit
val is_tampered : verdict -> bool
