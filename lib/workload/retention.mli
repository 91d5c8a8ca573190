(** Compliance-retention workload (Section 8, "Deletion"): records
    arrive tagged with a retention class (expiry date); the paper
    advocates segregating data by expiry so whole devices can be
    decommissioned when their data expires.

    The generator produces a stream of records; {!run} appends them to
    one append-only file per class, heating a class file whenever it
    reaches the audit size, and reports how much WMRM capacity each
    class consumed — the input to the decommissioning argument. *)

type record = { klass : int; payload : string }

type config = {
  classes : int;  (** Distinct retention classes (e.g. 1y/3y/7y). *)
  records : int;
  record_bytes : int;
  audit_every : int;  (** Heat a class file after this many records. *)
  seed : int;
}

val default_config : config

type class_result = {
  class_id : int;
  records_stored : int;
  heated_lines : int;
  verdict_ok : bool;
}

type run_result = {
  per_class : class_result list;
  fs_stats : Lfs.Fs.stats;
}

val run : device:Sero.Device.config -> config -> run_result
