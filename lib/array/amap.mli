(** Volume address map: mirrored striping of heat lines over array
    slots.

    The array is RAID-10-shaped: [slots] devices are partitioned into
    [groups = slots / replication] mirror groups of [replication]
    devices each; logical (volume) line [v] lives in group
    [v mod groups] at local line [v / groups] on {e every} device of
    that group.

    Placing all replicas of a line at the {e same} local line is what
    makes cross-device attestation possible at all: a SERO burned hash
    covers the line's data blocks {e and their physical addresses}, so
    replicas burn byte-identical hashes only if their local geometry
    agrees.  A rotating (RAID-5 style) placement would make every
    replica's hash legitimately different and reduce the quorum to
    comparing recomputed data hashes — exactly the self-reported
    evidence the quorum must not trust. *)

type t = {
  slots : int;  (** Data-bearing array slots (excludes spares). *)
  replication : int;  (** Replicas per logical line; divides [slots]. *)
  member_lines : int;  (** Usable lines on each member device. *)
  blocks_per_line : int;  (** 2{^line_exp}; slot 0 of a line = hash block. *)
}

val create :
  slots:int -> replication:int -> member_lines:int -> blocks_per_line:int -> t
(** @raise Invalid_argument unless [1 <= replication <= slots],
    [replication] divides [slots], and the geometry is positive. *)

val groups : t -> int
(** Mirror groups, [slots / replication]. *)

val logical_lines : t -> int
(** Volume capacity in lines: [groups * member_lines]. *)

val data_blocks_per_line : t -> int
(** [blocks_per_line - 1] (the hash block is not addressable). *)

val n_blocks : t -> int
(** Volume capacity in data blocks. *)

(** {1 Line placement} *)

val group_of_line : t -> int -> int
val local_line : t -> int -> int
(** Local line index of a volume line on each of its replicas. *)

val slots_of_line : t -> int -> int list
(** The [replication] slots holding a volume line's replicas, in
    ascending slot order. *)

val preferred_slot : t -> int -> int
(** The replica a healthy read tries first — rotates with the local
    line so mirror members share the read load. *)

val read_order : t -> int -> int list
(** [slots_of_line] rotated so {!preferred_slot} comes first. *)

val line_of_local : t -> slot:int -> local:int -> int
(** Inverse placement: the volume line stored at [local] on [slot]. *)

(** {1 Block addressing}

    A volume block address ([vba]) ranges over data blocks only; the
    per-line hash blocks are owned by the attestation machinery and
    never surfaced. *)

val line_of_vba : t -> int -> int
val offset_of_vba : t -> int -> int
(** Data offset within the line, in [0, data_blocks_per_line). *)

val vba_of : t -> line:int -> offset:int -> int

val member_pba : t -> vba:int -> int
(** The physical block address of [vba] on {e each} of its replicas
    (identical across the mirror group by construction). *)

