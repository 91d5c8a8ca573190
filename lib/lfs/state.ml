exception Out_of_space
exception Fs_error of string

exception Read_only_device
(* The device's endurance state machine refuses all writes. *)

type policy = {
  clustering : bool;
  segment_lines : int;
  checkpoint_segments : int;
  cleaner_low : int;
  cleaner_high : int;
}

let default_policy =
  {
    clustering = true;
    segment_lines = 4;
    checkpoint_segments = 2;
    cleaner_low = 3;
    cleaner_high = 6;
  }

type metrics = {
  mutable user_bytes_written : int;
  mutable fs_block_writes : int;
  mutable cleaner_copies : int;
  mutable heat_relocations : int;
  mutable collateral_frozen : int;
  mutable segments_cleaned : int;
  mutable heats : int;
}

type seg = {
  mutable state : Enc.seg_state;
  mutable live : int;
  mutable group : int;
  mutable age : int;
  mutable cursor : int;
  mutable owners_valid : bool;
  owners : Enc.owner array;
}

type t = {
  dev : Sero.Device.t;
  lay : Sero.Layout.t;
  policy : policy;
  usable_per_seg : int;
  n_segs : int;
  segs : seg array;
  open_segs : (int, int) Hashtbl.t;
  imap : (int, int) Hashtbl.t;
  icache : (int, Enc.inode) Sim.Lru.t;
  pcache : (int, int array) Sim.Lru.t;
  dirty : (int, unit) Hashtbl.t;
  dir_memo : (int, (string * Enc.dirent list) array) Hashtbl.t;
  mutable next_ino : int;
  mutable seq : int;
  metrics : metrics;
  mutable io : Sero.Bcache.t option;
  mutable io_prio : Sero.Queue.prio;
}

let default_icache_cap = 256
let default_pcache_cap = 256

let create ?(policy = default_policy) ?(icache_cap = default_icache_cap)
    ?(pcache_cap = default_pcache_cap) dev =
  let lay = Sero.Device.layout dev in
  (* Only the usable region below the device's spare lines belongs to
     the file system; the endurance layer owns the rest. *)
  let n_lines = Sero.Layout.usable_lines lay in
  if policy.segment_lines <= 0 || n_lines mod policy.segment_lines <> 0 then
    raise (Fs_error "segment_lines must divide the usable line count");
  let n_segs = n_lines / policy.segment_lines in
  if policy.checkpoint_segments < 2 || policy.checkpoint_segments >= n_segs
  then raise (Fs_error "need at least 2 checkpoint segments and data room");
  let usable_per_seg =
    policy.segment_lines * Sero.Layout.data_blocks_per_line lay
  in
  let dirty = Hashtbl.create 64 in
  {
    dev;
    lay;
    policy;
    usable_per_seg;
    n_segs;
    segs =
      Array.init n_segs (fun _ ->
          {
            state = Enc.Seg_free;
            live = 0;
            group = 0;
            age = 0;
            cursor = 1;
            owners_valid = true;
            owners = Array.make usable_per_seg Enc.Unused;
          });
    open_segs = Hashtbl.create 8;
    imap = Hashtbl.create 64;
    (* Bounded caches: a dirty inode's latest state (and its pointer
       array, which may be newer than the on-medium inode) exists
       nowhere else yet, so dirty inos are pinned until flushed. *)
    icache =
      Sim.Lru.create
        ~evictable:(fun ino _ -> not (Hashtbl.mem dirty ino))
        ~capacity:icache_cap ();
    pcache =
      Sim.Lru.create
        ~evictable:(fun ino _ -> not (Hashtbl.mem dirty ino))
        ~capacity:pcache_cap ();
    dirty;
    dir_memo = Hashtbl.create 8;
    next_ino = 1;
    seq = 0;
    metrics =
      {
        user_bytes_written = 0;
        fs_block_writes = 0;
        cleaner_copies = 0;
        heat_relocations = 0;
        collateral_frozen = 0;
        segments_cleaned = 0;
        heats = 0;
      };
    io = None;
    io_prio = Sero.Queue.Foreground;
  }

let now t = Probe.Pdevice.elapsed (Sero.Device.pdevice t.dev)

(* {1 Geometry} *)

let first_data_segment t = t.policy.checkpoint_segments
let data_per_line t = Sero.Layout.data_blocks_per_line t.lay
let blocks_per_line t = Sero.Layout.blocks_per_line t.lay

let seg_of_pba t pba =
  let line = Sero.Layout.line_of_block t.lay pba in
  line / t.policy.segment_lines

let pba_of_slot t ~seg ~slot =
  if slot < 0 || slot >= t.usable_per_seg then
    raise (Fs_error "slot out of range");
  let line_in_seg = slot / data_per_line t
  and within = slot mod data_per_line t in
  let line = (seg * t.policy.segment_lines) + line_in_seg in
  (line * blocks_per_line t) + 1 + within

let slot_of_pba t pba =
  let line = Sero.Layout.line_of_block t.lay pba in
  let within = (pba mod blocks_per_line t) - 1 in
  if within < 0 then raise (Fs_error "slot_of_pba: hash block");
  let seg = line / t.policy.segment_lines in
  let slot = ((line mod t.policy.segment_lines) * data_per_line t) + within in
  (seg, slot)

let lines_of_seg t seg =
  List.init t.policy.segment_lines (fun i -> (seg * t.policy.segment_lines) + i)

let free_segments t =
  let n = ref 0 in
  Array.iteri
    (fun i s ->
      if i >= first_data_segment t && Enc.equal_seg_state s.state Enc.Seg_free
      then incr n)
    t.segs;
  !n

(* {1 Block IO}

   Every block the file system moves — foreground ops, cleaner copies,
   heat relocations — funnels through these three functions.  With a
   block stack attached they go through it at the state's current
   priority class; without one they are the original direct device
   calls. *)

let flush_block_cache t = Option.iter Sero.Bcache.sync t.io

(* The replaced stack is synced first, so its buffered writes reach the
   medium before the new one serves the file system. *)
let attach t io =
  flush_block_cache t;
  t.io <- Some io

let attach_queue t q =
  if not (Sero.Queue.device q == t.dev) then
    raise (Fs_error "attach_queue: queue serves a different device");
  attach t (Sero.Bcache.create ~capacity:0 q)

let attach_cache t c =
  if not (Sero.Bcache.device c == t.dev) then
    raise (Fs_error "attach_cache: cache serves a different device");
  attach t c

let set_io_prio t prio = t.io_prio <- prio
let io_prio t = t.io_prio

let dev_read_block t ~pba =
  match t.io with
  | Some c -> Sero.Bcache.read_block ~prio:t.io_prio c ~pba
  | None -> Sero.Device.read_block t.dev ~pba

let dev_write_block t ~pba payload =
  match t.io with
  | Some c -> Sero.Bcache.write_block ~prio:t.io_prio c ~pba payload
  | None -> Sero.Device.write_block t.dev ~pba payload

let heat_line_dev t ~line =
  let timestamp = Probe.Pdevice.elapsed (Sero.Device.pdevice t.dev) in
  match t.io with
  | Some c -> Sero.Bcache.heat_line c ~line ~timestamp ()
  | None -> Sero.Device.heat_line t.dev ~line ~timestamp ()

let read_payload_opt t ~pba =
  match dev_read_block t ~pba with
  | Ok payload -> Some payload
  | Error _ -> None

let read_payload t ~pba =
  match dev_read_block t ~pba with
  | Ok payload -> payload
  | Error e ->
      raise
        (Fs_error
           (Format.asprintf "read of PBA %d failed: %a" pba
              Sero.Device.pp_read_error e))

let write_block_exn t ~pba payload =
  t.metrics.fs_block_writes <- t.metrics.fs_block_writes + 1;
  match dev_write_block t ~pba payload with
  | Ok () -> ()
  | Error Sero.Device.Read_only_device -> raise Read_only_device
  | Error e ->
      raise
        (Fs_error
           (Format.asprintf "write of PBA %d refused: %a" pba
              Sero.Device.pp_write_error e))

let write_existing = write_block_exn

(* {1 Log allocation} *)

let close_segment t seg =
  let s = t.segs.(seg) in
  s.owners.(0) <- Enc.Summary_block;
  let summary =
    Enc.encode_summary { Enc.seg_index = seg; owners = Array.copy s.owners }
  in
  write_block_exn t ~pba:(pba_of_slot t ~seg ~slot:0) summary;
  if Enc.equal_seg_state s.state Enc.Seg_open then s.state <- Enc.Seg_closed

(* Owners for a segment whose summary was lost from memory (remount):
   reload it from the on-medium summary block. *)
let segment_owners t seg =
  let s = t.segs.(seg) in
  if s.owners_valid then s.owners
  else begin
    (match read_payload_opt t ~pba:(pba_of_slot t ~seg ~slot:0) with
    | None -> raise (Fs_error (Printf.sprintf "segment %d summary unreadable" seg))
    | Some payload -> (
        match Enc.decode_summary payload with
        | None ->
            raise (Fs_error (Printf.sprintf "segment %d summary corrupt" seg))
        | Some summary ->
            if Array.length summary.Enc.owners <> t.usable_per_seg then
              raise (Fs_error "summary arity mismatch");
            Array.blit summary.Enc.owners 0 s.owners 0 t.usable_per_seg));
    s.owners_valid <- true;
    s.owners
  end

let close_open_segments t =
  Hashtbl.iter (fun _ seg -> close_segment t seg) t.open_segs;
  Hashtbl.reset t.open_segs

let find_free_segment t =
  let found = ref (-1) in
  (try
     for i = first_data_segment t to t.n_segs - 1 do
       if Enc.equal_seg_state t.segs.(i).state Enc.Seg_free then begin
         found := i;
         raise Exit
       end
     done
   with Exit -> ());
  if !found < 0 then raise Out_of_space;
  !found

let open_segment_for t ~group =
  let key = if t.policy.clustering then group else 0 in
  match Hashtbl.find_opt t.open_segs key with
  | Some seg when t.segs.(seg).cursor < t.usable_per_seg -> seg
  | maybe_full ->
      (match maybe_full with
      | Some seg ->
          close_segment t seg;
          Hashtbl.remove t.open_segs key
      | None -> ());
      let seg = find_free_segment t in
      let s = t.segs.(seg) in
      s.state <- Enc.Seg_open;
      s.group <- group;
      s.age <- t.seq;
      s.cursor <- 1;
      s.live <- 0;
      s.owners_valid <- true;
      Array.fill s.owners 0 t.usable_per_seg Enc.Unused;
      Hashtbl.replace t.open_segs key seg;
      seg

let alloc_block t ~group ~owner payload =
  let seg = open_segment_for t ~group in
  let s = t.segs.(seg) in
  let slot = s.cursor in
  s.cursor <- s.cursor + 1;
  s.owners.(slot) <- owner;
  s.live <- s.live + 1;
  s.age <- t.seq;
  let pba = pba_of_slot t ~seg ~slot in
  write_block_exn t ~pba payload;
  if s.cursor >= t.usable_per_seg then begin
    close_segment t seg;
    Hashtbl.remove t.open_segs (if t.policy.clustering then group else 0)
  end;
  pba

(* A private segment for relocation: opened outside the group-head
   table, filled slot-by-slot by the caller via [alloc_block_in]. *)
let alloc_private_segment t ~group =
  let seg = find_free_segment t in
  let s = t.segs.(seg) in
  s.state <- Enc.Seg_open;
  s.group <- group;
  s.age <- t.seq;
  s.cursor <- 1;
  s.live <- 0;
  s.owners_valid <- true;
  Array.fill s.owners 0 t.usable_per_seg Enc.Unused;
  seg

let alloc_block_in t ~seg ~owner payload =
  let s = t.segs.(seg) in
  if s.cursor >= t.usable_per_seg then raise Out_of_space;
  let slot = s.cursor in
  s.cursor <- s.cursor + 1;
  s.owners.(slot) <- owner;
  s.live <- s.live + 1;
  let pba = pba_of_slot t ~seg ~slot in
  write_block_exn t ~pba payload;
  pba

let skip_pad_block t ~seg =
  let s = t.segs.(seg) in
  if s.cursor >= t.usable_per_seg then raise Out_of_space;
  let slot = s.cursor in
  s.cursor <- s.cursor + 1;
  s.owners.(slot) <- Enc.Unused;
  let pba = pba_of_slot t ~seg ~slot in
  write_block_exn t ~pba (String.make Codec.Sector.payload_bytes '\x00')

let seg_cursor t seg = t.segs.(seg).cursor

let free_block t ~pba =
  let seg, slot = slot_of_pba t pba in
  let s = t.segs.(seg) in
  if s.live > 0 then s.live <- s.live - 1;
  if s.owners_valid then s.owners.(slot) <- Enc.Unused;
  if
    s.live = 0
    && Enc.equal_seg_state s.state Enc.Seg_closed
    && seg >= first_data_segment t
  then s.state <- Enc.Seg_free

let mark_segment_heated t seg = t.segs.(seg).state <- Enc.Seg_heated

(* {1 Inode cache} *)

let inode_pba t ino = Hashtbl.find_opt t.imap ino

let load_inode t ino =
  match Sim.Lru.find t.icache ino with
  | Some i -> i
  | None -> (
      match Hashtbl.find_opt t.imap ino with
      | None -> raise (Fs_error (Printf.sprintf "unknown inode %d" ino))
      | Some pba -> (
          match Enc.decode_inode (read_payload t ~pba) with
          | None ->
              raise (Fs_error (Printf.sprintf "inode %d does not parse" ino))
          | Some i ->
              ignore (Sim.Lru.add t.icache ino i);
              i))

let cache_inode t (i : Enc.inode) = ignore (Sim.Lru.add t.icache i.Enc.ino i)
let mark_dirty t ino = Hashtbl.replace t.dirty ino ()

(* {1 Checkpoint} *)

let checkpoint_half_capacity t = t.usable_per_seg * Codec.Sector.payload_bytes

let checkpoint_blob t =
  let imap =
    Hashtbl.fold (fun ino pba acc -> (ino, pba) :: acc) t.imap []
    |> List.sort compare
  in
  let segments =
    Array.map
      (fun s ->
        {
          Enc.state = s.state;
          live_blocks = s.live;
          seg_group = s.group;
          age = s.age;
        })
      t.segs
  in
  Enc.encode_checkpoint
    { Enc.seq = t.seq; timestamp = now t; next_ino = t.next_ino; imap; segments }

let write_checkpoint t =
  (* Invariant: a checkpoint only ever describes closed segments.
     [restore_from_checkpoint] marks every checkpointed segment's
     in-memory owner table stale ([owners_valid = false]) and reloads
     it from the on-medium summary block on demand — so any segment
     still open here would remount as a closed segment whose summary
     was never written, and the first cleaner pass over it would die
     with "summary unreadable" (the historical small-geometry mkfs
     bug: tiny devices have so few segments that the cleaner runs on
     the very first write after mkfs). *)
  close_open_segments t;
  t.seq <- t.seq + 1;
  let blob = checkpoint_blob t in
  if String.length blob > checkpoint_half_capacity t then
    raise (Fs_error "checkpoint exceeds the reserved area");
  let half = t.seq mod t.policy.checkpoint_segments in
  let payload_bytes = Codec.Sector.payload_bytes in
  let n_chunks = (String.length blob + payload_bytes - 1) / payload_bytes in
  for chunk = 0 to n_chunks - 1 do
    let off = chunk * payload_bytes in
    let len = min payload_bytes (String.length blob - off) in
    write_block_exn t
      ~pba:(pba_of_slot t ~seg:half ~slot:chunk)
      (String.sub blob off len)
  done

(* Reassemble a checkpoint blob from one half, [policy] giving the
   geometry.  Static because mount needs it before the state exists. *)
let read_checkpoint_half dev policy half =
  let lay = Sero.Device.layout dev in
  let data_per_line = Sero.Layout.data_blocks_per_line lay in
  let blocks_per_line = Sero.Layout.blocks_per_line lay in
  let usable = policy.segment_lines * data_per_line in
  let pba_of slot =
    let line_in_seg = slot / data_per_line and within = slot mod data_per_line in
    let line = (half * policy.segment_lines) + line_in_seg in
    (line * blocks_per_line) + 1 + within
  in
  match Sero.Device.read_block dev ~pba:(pba_of 0) with
  | Error _ -> None
  | Ok first -> (
      let r = Codec.Binio.R.of_string first in
      match
        let _crc = Codec.Binio.R.u32 r in
        Codec.Binio.R.u32 r
      with
      | exception Codec.Binio.R.Truncated -> None
      | body_len ->
          let total = body_len + 8 in
          let payload_bytes = Codec.Sector.payload_bytes in
          let n_chunks = (total + payload_bytes - 1) / payload_bytes in
          if n_chunks > usable then None
          else begin
            let buf = Buffer.create total in
            Buffer.add_string buf first;
            let ok = ref true in
            for chunk = 1 to n_chunks - 1 do
              match Sero.Device.read_block dev ~pba:(pba_of chunk) with
              | Ok payload -> Buffer.add_string buf payload
              | Error _ -> ok := false
            done;
            if not !ok then None
            else Enc.decode_checkpoint (Buffer.contents buf)
          end)

let read_latest_checkpoint dev policy =
  let candidates =
    List.filter_map
      (fun half -> read_checkpoint_half dev policy half)
      (List.init policy.checkpoint_segments (fun i -> i))
  in
  List.fold_left
    (fun best (c : Enc.checkpoint) ->
      match best with
      | None -> Some c
      | Some (b : Enc.checkpoint) -> if c.Enc.seq > b.Enc.seq then Some c else Some b)
    None candidates

let restore_from_checkpoint t (c : Enc.checkpoint) =
  t.seq <- c.Enc.seq;
  t.next_ino <- c.Enc.next_ino;
  Hashtbl.reset t.imap;
  List.iter (fun (ino, pba) -> Hashtbl.replace t.imap ino pba) c.Enc.imap;
  Sim.Lru.clear t.icache;
  Sim.Lru.clear t.pcache;
  Hashtbl.reset t.dirty;
  Hashtbl.reset t.dir_memo;
  Hashtbl.reset t.open_segs;
  if Array.length c.Enc.segments <> t.n_segs then
    raise (Fs_error "checkpoint segment table size mismatch");
  Array.iteri
    (fun i (r : Enc.seg_record) ->
      let s = t.segs.(i) in
      s.state <-
        (* Open segments do not survive a remount; they were closed by
           the unmount that wrote this checkpoint. *)
        (if Enc.equal_seg_state r.Enc.state Enc.Seg_open then Enc.Seg_closed
         else r.Enc.state);
      s.live <- r.Enc.live_blocks;
      s.group <- r.Enc.seg_group;
      s.age <- r.Enc.age;
      s.cursor <- t.usable_per_seg;
      s.owners_valid <- false)
    c.Enc.segments
