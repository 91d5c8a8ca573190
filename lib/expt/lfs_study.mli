(** E9 — the Section 4.1 file-system study: does heat-affinity
    clustering keep performance high and the segment population bimodal
    as the device accumulates read-only lines?

    The DB-snapshot workload ({!Workload.Dbwork}) runs twice — once
    with per-group log heads (the paper's clustering policy) and once
    with a single log head (the ablation) — across a sweep of snapshot
    counts, i.e. of the final heated fraction. *)

type row = {
  clustering : bool;
  in_place : bool;  (** Heat strategy: in place ([Never_relocate]) vs auto. *)
  snapshots : int;
  heated_fraction : float;  (** Heated segments / data segments. *)
  partially_heated : int;
      (** Segments with some-but-not-all lines heated — the paper's
          bimodality failure mode. *)
  collateral_frozen : int;  (** Live foreign blocks frozen by in-place heats. *)
  updates_blocked : int;  (** Live updates refused against frozen pages. *)
  relocated_blocks : int;  (** Copies needed to line-align before heating. *)
  cleaner_copies : int;
  fs_block_writes : int;
  write_amplification : float;  (** Device block writes per user block. *)
  wall_s : float;  (** Simulated device time. *)
  utilisation : float list;  (** Live fraction of each closed segment. *)
}

val run_point :
  ?strategy:Lfs.Heat.strategy -> clustering:bool -> snapshots:int -> unit -> row

val print : Format.formatter -> unit
