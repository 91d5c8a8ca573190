(** Executable version of the Section 5 security analysis.

    Each attack is run against a freshly built environment: a SERO
    device with a mounted LFS holding one {e heated} target file (the
    record the attacker "regrets") plus ordinary unheated files.  The
    attack mutates the system through the honest API or the raw device
    surface, and the oracle then decides the outcome by doing exactly
    what an auditor would: verify the file, and if it is gone, scan the
    medium. *)

type attack =
  | Mwb_hash  (** Magnetically rewrite the burned hash area (§5.1 bullet 1). *)
  | Mwb_data  (** Magnetically rewrite a heated data block (§5.1 bullet 2). *)
  | Ewb_hash  (** Heat extra dots of the burned hash (§5.1 bullet 3). *)
  | Ewb_data  (** Heat dots inside a heated data block (§5.1 bullet 4a). *)
  | Splice
      (** Forge an interior hash + inode to split the file (§5.1 bullet
          4b).  Parameterised by the device's location discipline via
          {!run_splice}. *)
  | Rm_via_fs  (** rm through the file system (§5.2). *)
  | Rm_raw_directory  (** Scrub the directory entry on the raw device. *)
  | Ln_via_fs  (** Hard-link games on the heated file (§5.2). *)
  | Copy_mask  (** Copy the file elsewhere and present the copy (§5.2). *)
  | Clear_directory  (** Destroy the whole directory tree (§5.2). *)
  | Bulk_erase  (** Degauss the medium (§5.2). *)
  | Overwrite_unheated
      (** Control: attack a file that was never heated — the paper
          explicitly scopes these out as "trivial to attack". *)

val all : attack list
val label : attack -> string
val paper_ref : attack -> string
(** The paper passage this attack executes. *)

type outcome =
  | Refused of string  (** The honest API would not even perform it. *)
  | Ineffective of string
      (** Physics absorbed the attack; data intact, verify clean. *)
  | Detected of string  (** The attack landed but left evidence. *)
  | Undetected of string  (** The attack landed and no evidence remains. *)

val pp_outcome : Format.formatter -> outcome -> unit

val expected : attack -> [ `Refused | `Ineffective | `Detected | `Undetected ]
(** The verdict the paper's analysis predicts. *)

val run : attack -> outcome
(** Build a fresh environment, execute the attack, judge it. *)

val run_splice : strict:bool -> unit -> outcome
(** The splice attack against a device with ([strict = true]) or
    without the known-physical-address discipline — the E10 ablation:
    strict detects, non-strict is fooled. *)

val matrix : ?seed:int -> unit -> (attack * outcome) list
(** Run every attack in {!all} on its own fresh environment. *)

val matrix_matches_paper : (attack * outcome) list -> bool
(** Does every outcome fall in the class the paper predicts? *)
