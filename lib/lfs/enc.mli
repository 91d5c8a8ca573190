(** On-medium encodings of the LFS structures (inodes, directory
    payloads, segment summaries, checkpoints).  All encoders produce
    strings that fit the 512-byte sector payload unless stated
    otherwise; decoders return [None] on malformed input rather than
    raising, because fsck feeds them arbitrary block contents. *)

type kind = Regular | Directory

val equal_kind : kind -> kind -> bool
val pp_kind : Format.formatter -> kind -> unit

val n_direct : int
(** Direct block pointers per inode (12). *)

val pointers_per_indirect : int
(** Block pointers held by one indirect block (64). *)

val max_file_blocks : int
(** 12 + 64 + 64·64 = 4172 blocks ≈ 2 MiB. *)

type inode = {
  ino : int;
  kind : kind;
  nlink : int;  (** Hard-link count; [ln]/[rm] must rewrite it, which is
                    what makes them tamper-evident on a heated file. *)
  heat_group : int;
      (** Heat-affinity tag: files expected to be heated together carry
          the same group, and the allocator segregates groups
          (Section 4.1's clustering policy). *)
  size : int;  (** Bytes. *)
  mtime : float;
  generation : int;
  direct : int array;  (** [n_direct] PBAs; 0 = hole. *)
  single_ind : int;  (** PBA of the single-indirect block; 0 = none. *)
  double_ind : int;
}

val fresh_inode : ino:int -> kind:kind -> heat_group:int -> inode
val encode_inode : inode -> string
val decode_inode : string -> inode option

val encode_pointer_block : int array -> string
(** An indirect block: [pointers_per_indirect] u64 PBAs. *)

val decode_pointer_block : string -> int array option

type dirent = { name : string; entry_ino : int; entry_kind : kind }

val pack_dirents : dirent list -> (string * dirent list) list option
(** Pack entries in order into directory blocks, each an independently
    decodable entry list: a u16 magic and a u16 count, then per entry a
    u32 inode number, a u8 kind and a u32-length-prefixed name — 4
    bytes plus [9 + String.length name] per entry.  Blocks fill
    greedily up to the block payload by that exact size; each is
    encoded once, zero-padded to a full block and paired with the
    entries it holds.  No entries give one empty block.  [None] if some
    entry alone does not fit a block. *)

val decode_dirents : string -> dirent list option

(** {1 Segment summary} *)

type owner =
  | Data_of of { o_ino : int; block_index : int }
      (** File block [block_index] of file [o_ino]. *)
  | Inode_of of int
  | Indirect_of of { o_ino : int; slot : int }
      (** [slot] = -1 for the single-indirect, -2 for the double-
          indirect root, k >= 0 for the k-th child of the double. *)
  | Summary_block
  | Unused

type summary = { seg_index : int; owners : owner array }
(** One owner entry per usable block of the segment, in segment order. *)

val encode_summary : summary -> string
val decode_summary : string -> summary option

(** {1 Checkpoint} *)

type seg_state = Seg_free | Seg_open | Seg_closed | Seg_heated

val equal_seg_state : seg_state -> seg_state -> bool

type seg_record = {
  state : seg_state;
  live_blocks : int;
  seg_group : int;
  age : int;  (** Checkpoint sequence number of the last write. *)
}

type checkpoint = {
  seq : int;
  timestamp : float;
  next_ino : int;
  imap : (int * int) list;  (** (ino, inode PBA), sorted by ino. *)
  segments : seg_record array;
}

val encode_checkpoint : checkpoint -> string
(** Multi-block blob (length-prefixed, CRC-protected); the caller chunks
    it into blocks. *)

val decode_checkpoint : string -> checkpoint option
