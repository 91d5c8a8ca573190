(** Self-securing storage on SERO (Section 8, "Tamper-evident storage
    as a building block", after Strunk et al.).

    Self-securing storage trusts the storage system more than the host:
    the device keeps its own log of every command it is given, so a
    compromised host cannot silently rewrite history.  The classic
    design's weakness is that a powerful intruder can attack the log
    itself; the paper's observation is that on a SERO device "the logs
    can be heated".

    This wrapper interposes on a {!Lfs.Fs} file system: every mutating
    command is journalled (with SHA-256 digests of the data before and
    after) into an append-only epoch log, and every [epoch_len] commands
    the epoch file is heated — from then on that window of history is
    physically immutable.  {!verify_history} replays the journal and
    checks both the burned lines and the digest chain. *)

type t

val wrap : ?epoch_len:int -> Lfs.Fs.t -> (t, string) result
(** Interpose on a mounted file system; journal files live under
    [/.selfsec].  [epoch_len] (default 32) commands per sealed epoch. *)

(** {1 Audited operations} — same contracts as the {!Lfs.Fs} calls they
    wrap, plus journalling. *)

val create : t -> ?heat_group:int -> string -> (unit, string) result
val write_file : t -> string -> offset:int -> string -> (unit, string) result
val unlink : t -> string -> (unit, string) result

val seal_epoch : t -> (unit, string) result
(** Close and heat the current epoch early (e.g. on shutdown or on an
    intrusion alarm). *)

(** {1 The audit trail} *)

type entry = {
  seq : int;
  at : float;
  op : string;  (** "create" | "write" | "unlink". *)
  path : string;
  offset : int;
  before_digest : Hash.Sha256.t;  (** Digest of the overwritten range. *)
  after_digest : Hash.Sha256.t;
}

val history : t -> (entry list, string) result
(** The full journalled history, sealed epochs first. *)

type audit = {
  entries : int;
  sealed_epochs : int;
  open_entries : int;  (** Entries still in the unsealed epoch. *)
  chain_intact : bool;
      (** Every entry's sequence number and digest chain parses and is
          strictly increasing. *)
  tampered_epochs : (int * Sero.Tamper.verdict) list;
      (** Sealed epochs whose lines no longer verify. *)
}

val verify_history : t -> (audit, string) result
