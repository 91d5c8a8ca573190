(** The snapshot scenario of the introduction, run across all
    technologies: a live store takes periodic audit snapshots that must
    become immutable, while random reads and writes continue.

    For each technology the scenario measures what the paper argues
    qualitatively: plain disks and software WORM give performance but no
    real evidence; optical WORM gives evidence but neither WMRM use nor
    speed; cartridge flags and fuses freeze far more than was asked
    (collateral); SERO freezes exactly the snapshot, keeps serving
    random IO, and detects rewrites. *)

type scenario = {
  device_blocks : int;
  live_writes : int;  (** Random 512-byte updates over the live area. *)
  live_reads : int;
  snapshots : int;
  snapshot_blocks : int;  (** Size of each snapshot. *)
}

val default_scenario : scenario
(** 100k blocks, 2000 writes + 2000 reads, 8 snapshots of 64 blocks. *)

type outcome = {
  tech : Tech.tech;
  total_s : float;  (** Simulated time for the whole scenario. *)
  snapshot_latency_s : float;  (** Mean time to freeze one snapshot. *)
  frozen_blocks : int;  (** Actually frozen, including collateral. *)
  collateral_blocks : int;  (** Frozen beyond the requested snapshots. *)
  writable_left : int;  (** WMRM blocks still usable afterwards. *)
  snapshots_frozen : int;  (** Snapshots that could be frozen at all. *)
  attack : Tech.attack_result;
}

val run_all : scenario -> outcome list
val pp_outcome : Format.formatter -> outcome -> unit
