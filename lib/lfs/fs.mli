(** The SERO log-structured file system — public API.

    A classic LFS (Rosenblum–Ousterhout style: log segments, inode map,
    cost-benefit cleaner, checkpoints) extended for a SERO device per
    Section 4 of the paper:

    - files carry a {e heat group}; the allocator clusters groups into
      their own segments so that lines heated together sit together;
    - {!heat} turns a file read-only by burning per-line hashes;
    - the cleaner skips heated segments;
    - writes, [rm] and [ln] on heated files are refused — an attacker
      bypassing the refusal is exactly what {!verify} detects;
    - {!Fsck} recovers every heated file from the raw medium even after
      the directory tree and checkpoints are destroyed.

    All operations return [(_, string) result] rather than raising;
    programmatic callers needing typed errors use the lower layers. *)

type t

val format :
  ?policy:State.policy ->
  ?icache_cap:int ->
  ?pcache_cap:int ->
  Sero.Device.t ->
  t
(** Initialise an empty file system (root directory + first checkpoint)
    on a fresh device.  [icache_cap] / [pcache_cap] bound the in-memory
    inode and pointer caches (see {!State.create}). *)

val mount : ?policy:State.policy -> Sero.Device.t -> (t, string) result
(** Load the latest checkpoint, with the inode and pointer caches at
    their default bounds. *)

type recovery = {
  fs : t;
  torn_completed : int list;
      (** Lines whose interrupted burn was finished during recovery. *)
  fsck : Fsck.report;
}

val recover : ?policy:State.policy -> Sero.Device.t -> (recovery, string) result
(** Mount after an unclean shutdown (e.g. an injected power cut):
    complete any torn burns found on the medium ({!Sero.Device.heat_line}
    is idempotent over the burned prefix), run {!Fsck} to inventory the
    heated files, then replay the latest checkpoint as {!mount} does. *)

val sync : t -> unit
(** Flush dirty inodes and checkpoint (keeps mounted).
    @raise State.Out_of_space, State.Fs_error or State.Read_only_device
    when the flush cannot be written; {!guard} maps them to [Error]. *)

val guard : (unit -> 'a) -> ('a, string) result
(** [guard f] runs [f] and turns the file system's exceptions
    ([State.Fs_error], [State.Out_of_space], [State.Read_only_device])
    into [Error] — the mapping every [result]-returning call here
    uses. *)

val device : t -> Sero.Device.t
val state : t -> State.t
(** Escape hatch for experiments and tests. *)

val attach_queue : t -> Sero.Queue.t -> unit
(** Route the file system's block IO through a request pipeline: every
    foreground operation becomes [Foreground] queued traffic and the
    cleaner's copies become [Background] traffic, all served under the
    queue's scheduling policy.  Semantically transparent — results are
    the ones the direct calls would produce — but latency now includes
    queueing behind whatever else the device is serving.  The queue is
    attached as the capacity-0 {!Sero.Bcache} over it, which replaces
    (and first syncs) any attached cache.
    @raise State.Fs_error if the queue serves a different device. *)

val attach_cache : t -> Sero.Bcache.t -> unit
(** Route the file system's block IO through a {!Sero.Bcache} buffer
    cache layered over its queue: repeat reads hit with zero sled
    service, sequential reads prefetch, writes are write-behind
    buffered until {!sync}, {!heat}, or cache pressure flushes them.
    [sync] remains durable: it flushes the cache
    through to the medium before returning.  The stack it replaces is
    synced first.
    @raise State.Fs_error if the cache serves a different device. *)

(** {1 Namespace} *)

val mkdir : t -> string -> (unit, string) result
val create : t -> ?heat_group:int -> string -> (unit, string) result
val exists : t -> string -> bool
val readdir : t -> string -> (Enc.dirent list, string) result
val unlink : t -> string -> (unit, string) result
(** Removes the entry and decrements the link count; the file's blocks
    are freed when the count reaches zero.  Refused on heated files —
    "it will not be possible to use the rm command on a heated file"
    (Section 5.2). *)

val link : t -> string -> string -> (unit, string) result
(** [link t existing fresh] — hard link; rewrites the inode, hence
    refused on heated files (the paper's [ln] observation). *)

(** {1 File IO} *)

val write_file : t -> string -> offset:int -> string -> (unit, string) result
val append : t -> string -> string -> (unit, string) result
val read_file : t -> string -> (string, string) result
val read_range : t -> string -> offset:int -> len:int -> (string, string) result
val file_size : t -> string -> (int, string) result

(** {1 Tamper evidence} *)

val heat : t -> ?strategy:Heat.strategy -> string -> (Heat.result_ok, string) result
(** Make a file read-only with burned per-line hashes.  [Auto] (default)
    heats in place when the file owns its lines and relocates it into
    fresh line-aligned segments otherwise. *)

val verify : t -> string -> ((int * Sero.Tamper.verdict) list, string) result
val is_heated : t -> string -> (bool, string) result

(** {1 Maintenance and statistics} *)

type stats = {
  free_segments : int;
  heated_segments : int;
  closed_segments : int;
  partially_heated_segments : int;
      (** Segments with some but not all lines heated — the paper's
          bimodality claim is that a good clustering policy keeps this
          at zero ("only mostly heated segments and mostly unheated
          segments", Section 4.1). *)
  live_utilisation : float list;
      (** Per closed segment: live blocks / usable blocks — the
          distribution whose bimodality Section 4.1 predicts. *)
  metrics : State.metrics;
  device : Sero.Device.stats;
}

val stats : t -> stats
