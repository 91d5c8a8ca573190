(** Mutable file-system state and the log allocator.

    The LFS views the SERO device as a sequence of {e segments} of
    [segment_lines] consecutive heat lines (Section 4.1: segments must
    be line-aligned so that heating converts whole segments and the
    cleaner can skip them).  Within a segment, only the lines' data
    blocks are usable; slot 0 holds the segment summary.

    The allocator embodies the paper's clustering policy: with
    [clustering = true] every heat group gets its own open segment, so
    blocks that will be heated together end up physically together and
    the heated/live block populations stay {e bimodal}; with
    [clustering = false] (the ablation) all writes share one log head. *)

exception Out_of_space
exception Fs_error of string

exception Read_only_device
(** The device's endurance state machine has gone read-only (spares
    exhausted over a critically weak line): every write is refused so
    the data that is still readable stays readable.  Surfaced as a
    typed error so callers can distinguish graceful degradation from a
    bug. *)

type policy = {
  clustering : bool;
  segment_lines : int;  (** Lines per segment (default 4). *)
  checkpoint_segments : int;  (** Reserved at the device start (2). *)
  cleaner_low : int;  (** Clean when free segments drop below this. *)
  cleaner_high : int;  (** Clean until this many segments are free. *)
}

val default_policy : policy

type metrics = {
  mutable user_bytes_written : int;
  mutable fs_block_writes : int;  (** Data + metadata block writes. *)
  mutable cleaner_copies : int;  (** Blocks moved by the cleaner. *)
  mutable heat_relocations : int;  (** Blocks copied to line-align a file before heating. *)
  mutable collateral_frozen : int;
      (** Live blocks of {e other} files frozen because they shared a
          line that was heated in place. *)
  mutable segments_cleaned : int;
  mutable heats : int;  (** heat_line operations issued. *)
}

type seg = {
  mutable state : Enc.seg_state;
  mutable live : int;
  mutable group : int;
  mutable age : int;
  mutable cursor : int;  (** Next usable slot (1-based; slot 0 = summary). *)
  mutable owners_valid : bool;
      (** In-memory owners reflect reality; false after a remount until
          the on-medium summary is reloaded. *)
  owners : Enc.owner array;
}

type t = {
  dev : Sero.Device.t;
  lay : Sero.Layout.t;
  policy : policy;
  usable_per_seg : int;
  n_segs : int;
  segs : seg array;
  open_segs : (int, int) Hashtbl.t;  (** group -> open segment. *)
  imap : (int, int) Hashtbl.t;  (** ino -> inode PBA. *)
  icache : (int, Enc.inode) Sim.Lru.t;
      (** Bounded inode cache; dirty inodes are pinned until flushed
          (their latest state exists nowhere else). *)
  pcache : (int, int array) Sim.Lru.t;
      (** Fully resolved block-pointer arrays (direct + indirect),
          rebuilt lazily from the medium; see {!File}.  Bounded like
          {!icache}, with dirty inos pinned (their array can be newer
          than the on-medium inode). *)
  dirty : (int, unit) Hashtbl.t;
  dir_memo : (int, (string * Enc.dirent list) array) Hashtbl.t;
      (** Directory decode memo: for directory ino, per block index,
          the payload last written or decoded there and its entries.
          {!Dirops} uses a slot only when the payload it has just read
          is byte-equal to the stored one, so the memo is exact whatever
          happened to the block meanwhile. *)
  mutable next_ino : int;
  mutable seq : int;
  metrics : metrics;
  mutable io : Sero.Bcache.t option;
      (** Attached block stack (a capacity-0 {!Sero.Bcache} for a bare
          queue); [None] = direct device calls. *)
  mutable io_prio : Sero.Queue.prio;
      (** Priority class tagged onto queued block IO ([Foreground]
          except while the cleaner runs). *)
}

val create :
  ?policy:policy -> ?icache_cap:int -> ?pcache_cap:int -> Sero.Device.t -> t
(** Fresh in-memory state over a device (no on-medium initialisation —
    see {!format_checkpoint} / [Lfs.format]).  [icache_cap] and
    [pcache_cap] (default 256 each) bound the inode and pointer caches;
    see {!Sim.Lru}. *)

val now : t -> float
(** The device's simulated clock — used for mtimes and heat stamps. *)

(** {1 Geometry} *)

val first_data_segment : t -> int
val seg_of_pba : t -> int -> int
val pba_of_slot : t -> seg:int -> slot:int -> int
val slot_of_pba : t -> int -> int * int
(** [(seg, slot)]. *)

val lines_of_seg : t -> int -> int list
val free_segments : t -> int

(** {1 Block IO}

    All file-system block traffic (foreground ops, cleaner copies, heat
    relocations) funnels through {!read_payload}/{!read_payload_opt}/
    {!write_existing} and the allocators.  With a block stack attached,
    each goes through its {!Sero.Bcache} at the state's current
    {!io_prio}, served under the queue's scheduling policy (the call
    still blocks, pumping the DES until its own completion —
    earlier-queued background work may be served on the way). *)

val attach_queue : t -> Sero.Queue.t -> unit
(** Route subsequent block IO through a request pipeline, as the
    capacity-0 {!Sero.Bcache} over it.  The stack it replaces is synced
    first.
    @raise Fs_error if the queue serves a different device. *)

val attach_cache : t -> Sero.Bcache.t -> unit
(** Route subsequent block IO through a buffer cache (reads may hit
    with zero sled service, writes are write-behind buffered).  The
    stack it replaces is synced first.
    @raise Fs_error if the cache serves a different device. *)

val flush_block_cache : t -> unit
(** {!Sero.Bcache.sync} on the attached stack, if any: write-behind
    data reaches the medium and the pipeline drains.  No-op without
    one. *)

val set_io_prio : t -> Sero.Queue.prio -> unit
val io_prio : t -> Sero.Queue.prio

val heat_line_dev :
  t -> line:int -> (Hash.Sha256.t, Sero.Device.heat_error) result
(** {!Sero.Device.heat_line} stamped with {!now}, routed through the
    attached block stack when there is one. *)

val read_payload : t -> pba:int -> string
(** @raise Fs_error on unreadable or relocated frames. *)

val read_payload_opt : t -> pba:int -> string option

val write_existing : t -> pba:int -> string -> unit
(** Rewrite a block in place (checkpoint area only — the log never
    overwrites). *)

(** {1 Log allocation} *)

val alloc_block : t -> group:int -> owner:Enc.owner -> string -> int
(** Allocate the next slot of [group]'s open segment (opening or
    reusing a free segment as needed), write the payload, record the
    owner, and return the PBA.  @raise Out_of_space when no free
    segment exists — callers must run the cleaner first. *)

val alloc_private_segment : t -> group:int -> int
(** Claim a whole free segment for relocation before heating; the
    caller fills it with {!alloc_block_in} / {!skip_pad_block}. *)

val alloc_block_in : t -> seg:int -> owner:Enc.owner -> string -> int
(** Allocate the next slot of a specific (private) segment.
    @raise Out_of_space when the segment is full. *)

val skip_pad_block : t -> seg:int -> unit
(** Write a dead zero block at the next slot — line padding so that a
    heat line has no unreadable blocks. *)

val seg_cursor : t -> int -> int

val free_block : t -> pba:int -> unit
(** Mark a previously live block dead (live count and owner slot). *)

val close_segment : t -> int -> unit
(** Write the summary block and mark the segment [Seg_closed]. *)

val segment_owners : t -> int -> Enc.owner array
(** Owner table of a segment, reloading the on-medium summary after a
    remount.  Note that freed slots since the summary was written are
    only reflected once reloaded owners are cross-checked against the
    imap (the cleaner does this). *)

val close_open_segments : t -> unit

val mark_segment_heated : t -> int -> unit

(** {1 Inode cache} *)

val load_inode : t -> int -> Enc.inode
(** From cache or medium.  @raise Fs_error if unknown or unreadable. *)

val cache_inode : t -> Enc.inode -> unit
val mark_dirty : t -> int -> unit
val inode_pba : t -> int -> int option

(** {1 Checkpoint} *)

val write_checkpoint : t -> unit
(** Close every open segment (their summaries must be on the medium —
    a remount reloads owner tables from summary blocks, so a
    checkpoint may only describe closed segments), then serialise
    imap + segment table into the alternating checkpoint half
    (A = checkpoint segment 0, B = segment 1).
    @raise Fs_error if the blob exceeds the half's capacity. *)

val read_latest_checkpoint : Sero.Device.t -> policy -> Enc.checkpoint option
(** Probe both halves, return the valid checkpoint with the highest
    sequence number. *)

val restore_from_checkpoint : t -> Enc.checkpoint -> unit
