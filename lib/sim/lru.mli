(** A small polymorphic LRU map: hash table plus intrusive recency
    list, O(1) find/add/remove/evict.

    Shared by the device-level block cache ([Sero.Bcache]) and the LFS
    inode/pointer caches ([Lfs.State]) so every bounded cache in the
    tree evicts with the same, tested policy.

    Capacity is a {e soft} bound: entries the [evictable] predicate
    rejects (e.g. dirty inodes that exist nowhere else yet) are skipped
    during eviction, so the map can temporarily exceed [capacity] when
    everything old is pinned.  It shrinks back as soon as unpinned
    entries return. *)

type ('k, 'v) t

val create :
  ?evictable:('k -> 'v -> bool) -> capacity:int -> unit -> ('k, 'v) t
(** [capacity] must be positive.  [evictable] (default: everything)
    guards entries against eviction; pinned entries still count against
    the capacity. *)

val trim : ('k, 'v) t -> ('k * 'v) list
(** Run the eviction walk now.  Eviction otherwise happens only on
    insertion, so a map whose excess entries were all pinned stays over
    capacity even after the pins release; call this at quiescent points
    (e.g. after a flush) to shed them.  Returns the evicted bindings,
    LRU first. *)

val length : ('k, 'v) t -> int
val mem : ('k, 'v) t -> 'k -> bool

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup that marks the entry most-recently used. *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** Lookup without touching recency. *)

val is_head : ('k, 'v) t -> 'k -> bool
(** Whether [k] is the most-recently-used entry — O(1), no hashing, no
    recency change.  For [k] at the head, {!find} is a no-op on the
    recency list, which lets callers keep a last-hit shortcut that is
    observationally identical to calling {!find}. *)

val add : ('k, 'v) t -> 'k -> 'v -> ('k * 'v) list
(** Insert or replace (either way the entry becomes most-recently
    used), then evict least-recently-used evictable entries until
    within capacity.  Returns the evicted bindings, LRU first. *)

val remove : ('k, 'v) t -> 'k -> unit
val clear : ('k, 'v) t -> unit

val fold : ('k -> 'v -> 'a -> 'a) -> ('k, 'v) t -> 'a -> 'a
