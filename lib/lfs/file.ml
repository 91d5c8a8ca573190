let block_size = Codec.Sector.payload_bytes

let n_direct = Enc.n_direct
let per_ind = Enc.pointers_per_indirect

let block_count (i : Enc.inode) =
  (i.Enc.size + block_size - 1) / block_size

let create_inode (st : State.t) ~kind ~heat_group =
  let ino = st.State.next_ino in
  st.State.next_ino <- ino + 1;
  let inode = Enc.fresh_inode ~ino ~kind ~heat_group in
  let inode = { inode with Enc.mtime = State.now st } in
  (* Dirty before cached: insertion can trigger eviction, and only the
     dirty mark pins the new inode (it exists nowhere on the medium). *)
  State.mark_dirty st ino;
  State.cache_inode st inode;
  ignore (Sim.Lru.add st.State.pcache ino [||]);
  inode

(* Rebuild the flat pointer array of [inode] from the medium. *)
let load_pointers st (inode : Enc.inode) =
  let n = block_count inode in
  let ptrs = Array.make n 0 in
  let upto = min n n_direct in
  Array.blit inode.Enc.direct 0 ptrs 0 upto;
  let read_ind pba =
    if pba = 0 then Array.make per_ind 0
    else
      match Enc.decode_pointer_block (State.read_payload st ~pba) with
      | Some a -> a
      | None -> raise (State.Fs_error "indirect block does not parse")
  in
  if n > n_direct then begin
    let single = read_ind inode.Enc.single_ind in
    let upto = min (n - n_direct) per_ind in
    Array.blit single 0 ptrs n_direct upto
  end;
  if n > n_direct + per_ind then begin
    let root = read_ind inode.Enc.double_ind in
    let remaining = n - n_direct - per_ind in
    let n_children = (remaining + per_ind - 1) / per_ind in
    for c = 0 to n_children - 1 do
      let child = read_ind root.(c) in
      let base = n_direct + per_ind + (c * per_ind) in
      let upto = min (n - base) per_ind in
      Array.blit child 0 ptrs base upto
    done
  end;
  ptrs

let pointers st ino =
  match Sim.Lru.find st.State.pcache ino with
  | Some p -> p
  | None ->
      let p = load_pointers st (State.load_inode st ino) in
      ignore (Sim.Lru.add st.State.pcache ino p);
      p

let set_pointer st ino index pba =
  let p = pointers st ino in
  let p =
    if index < Array.length p then p
    else begin
      if index >= Enc.max_file_blocks then
        raise (State.Fs_error "file exceeds the maximum size");
      let bigger = Array.make (index + 1) 0 in
      Array.blit p 0 bigger 0 (Array.length p);
      ignore (Sim.Lru.add st.State.pcache ino bigger);
      bigger
    end
  in
  p.(index) <- pba

let read st ino ~offset ~len =
  if offset < 0 || len < 0 then raise (State.Fs_error "negative read range");
  let inode = State.load_inode st ino in
  let len = max 0 (min len (inode.Enc.size - offset)) in
  if len = 0 then ""
  else begin
    let ptrs = pointers st ino in
    let buf = Bytes.create len in
    let pos = ref 0 in
    while !pos < len do
      let abs = offset + !pos in
      let bi = abs / block_size and within = abs mod block_size in
      let take = min (block_size - within) (len - !pos) in
      let chunk =
        if bi >= Array.length ptrs || ptrs.(bi) = 0 then
          String.make take '\x00'
        else
          let payload = State.read_payload st ~pba:ptrs.(bi) in
          String.sub payload within take
      in
      Bytes.blit_string chunk 0 buf !pos take;
      pos := !pos + take
    done;
    Bytes.unsafe_to_string buf
  end

let write st ino ~offset data =
  if offset < 0 then raise (State.Fs_error "negative write offset");
  let len = String.length data in
  if len > 0 then begin
    let inode = State.load_inode st ino in
    let group = inode.Enc.heat_group in
    (* Dirty up front: the pointer updates below live only in the
       caches, so the ino must be pinned before the first insertion. *)
    State.mark_dirty st ino;
    ignore (pointers st ino);
    let pos = ref 0 in
    while !pos < len do
      let abs = offset + !pos in
      let bi = abs / block_size and within = abs mod block_size in
      let take = min (block_size - within) (len - !pos) in
      let old_pba =
        (* Re-fetch: set_pointer may have replaced the cached array. *)
        let ptrs = pointers st ino in
        if bi < Array.length ptrs then ptrs.(bi) else 0
      in
      let payload =
        if take = block_size then String.sub data !pos take
        else begin
          (* Partial block: read-modify-write over the old contents. *)
          let base =
            if old_pba = 0 then String.make block_size '\x00'
            else State.read_payload st ~pba:old_pba
          in
          let b = Bytes.of_string base in
          Bytes.blit_string data !pos b within take;
          Bytes.unsafe_to_string b
        end
      in
      let pba =
        State.alloc_block st ~group
          ~owner:(Enc.Data_of { o_ino = ino; block_index = bi })
          payload
      in
      if old_pba <> 0 then State.free_block st ~pba:old_pba;
      set_pointer st ino bi pba;
      pos := !pos + take
    done;
    let inode = State.load_inode st ino in
    State.cache_inode st
      {
        inode with
        Enc.size = max inode.Enc.size (offset + len);
        mtime = State.now st;
        generation = inode.Enc.generation + 1;
      };
    st.State.metrics.State.user_bytes_written <-
      st.State.metrics.State.user_bytes_written + len
  end

let truncate st ino ~size =
  if size < 0 then raise (State.Fs_error "negative truncate size");
  let inode = State.load_inode st ino in
  if size < inode.Enc.size then begin
    State.mark_dirty st ino;
    let keep = (size + block_size - 1) / block_size in
    let ptrs = pointers st ino in
    let n = Array.length ptrs in
    for bi = keep to n - 1 do
      if ptrs.(bi) <> 0 then State.free_block st ~pba:ptrs.(bi)
    done;
    ignore (Sim.Lru.add st.State.pcache ino (Array.sub ptrs 0 (min keep n)));
    State.cache_inode st
      { inode with Enc.size; mtime = State.now st;
        generation = inode.Enc.generation + 1 }
  end

(* Write the indirect tree for the current pointer array; returns the
   inode updated with the tree's PBAs.  The [alloc] callback decides
   placement (group log head normally, a private relocation segment
   during heating).  An indirect block whose contents are unchanged is
   {e reused in place} unless [must_move] claims it — rewriting clean
   indirect blocks on every flush would seed fresh dead blocks across
   other segments and set the cleaner chasing its own tail. *)
let write_indirects st ~alloc ~must_move (inode : Enc.inode) ptrs =
  let ino = inode.Enc.ino in
  let n = Array.length ptrs in
  let slice base =
    Array.init per_ind (fun i -> if base + i < n then ptrs.(base + i) else 0)
  in
  let direct = Array.make n_direct 0 in
  Array.blit ptrs 0 direct 0 (min n n_direct);
  (* Reuse [old_pba] when it already holds exactly [contents]. *)
  let place ~old_pba ~owner contents =
    let reusable =
      old_pba <> 0
      && (not (must_move old_pba))
      &&
      match State.read_payload_opt st ~pba:old_pba with
      | Some payload -> (
          match Enc.decode_pointer_block payload with
          | Some old -> old = contents
          | None -> false)
      | None -> false
    in
    if reusable then old_pba
    else begin
      let pba = alloc ~owner (Enc.encode_pointer_block contents) in
      if old_pba <> 0 then State.free_block st ~pba:old_pba;
      pba
    end
  in
  let old_root_children =
    if inode.Enc.double_ind = 0 then [||]
    else
      match
        Enc.decode_pointer_block (State.read_payload st ~pba:inode.Enc.double_ind)
      with
      | Some root -> root
      | None -> [||]
  in
  let single_ind =
    if n <= n_direct then begin
      if inode.Enc.single_ind <> 0 then
        State.free_block st ~pba:inode.Enc.single_ind;
      0
    end
    else
      place ~old_pba:inode.Enc.single_ind
        ~owner:(Enc.Indirect_of { o_ino = ino; slot = -1 })
        (slice n_direct)
  in
  let double_ind =
    if n <= n_direct + per_ind then begin
      Array.iter
        (fun p -> if p <> 0 then State.free_block st ~pba:p)
        old_root_children;
      if inode.Enc.double_ind <> 0 then
        State.free_block st ~pba:inode.Enc.double_ind;
      0
    end
    else begin
      let remaining = n - n_direct - per_ind in
      let n_children = (remaining + per_ind - 1) / per_ind in
      let children =
        Array.init n_children (fun c ->
            place
              ~old_pba:
                (if c < Array.length old_root_children then
                   old_root_children.(c)
                 else 0)
              ~owner:(Enc.Indirect_of { o_ino = ino; slot = c })
              (slice (n_direct + per_ind + (c * per_ind))))
      in
      (* Children past the new count are dead. *)
      Array.iteri
        (fun c p -> if c >= n_children && p <> 0 then State.free_block st ~pba:p)
        old_root_children;
      let root = Array.make per_ind 0 in
      Array.blit children 0 root 0 n_children;
      place ~old_pba:inode.Enc.double_ind
        ~owner:(Enc.Indirect_of { o_ino = ino; slot = -2 })
        root
    end
  in
  { inode with Enc.direct; single_ind; double_ind }

let flush_inode_with ?(must_move = fun _ -> false) st ino ~alloc =
  let inode = State.load_inode st ino in
  let ptrs = pointers st ino in
  let inode = write_indirects st ~alloc ~must_move inode ptrs in
  let old_pba = State.inode_pba st ino in
  let pba = alloc ~owner:(Enc.Inode_of ino) (Enc.encode_inode inode) in
  (match old_pba with
  | Some p when p <> 0 -> State.free_block st ~pba:p
  | Some _ | None -> ());
  Hashtbl.replace st.State.imap ino pba;
  State.cache_inode st inode;
  Hashtbl.remove st.State.dirty ino

let flush_inode st ino =
  if Hashtbl.mem st.State.dirty ino then begin
    let group = (State.load_inode st ino).Enc.heat_group in
    flush_inode_with st ino ~alloc:(fun ~owner payload ->
        State.alloc_block st ~group ~owner payload)
  end

let flush_all st =
  let inos = Hashtbl.fold (fun ino () acc -> ino :: acc) st.State.dirty [] in
  List.iter (flush_inode st) (List.sort compare inos);
  (* Flushing released the dirty pins; shed any excess the pins were
     holding past the soft capacity. *)
  ignore (Sim.Lru.trim st.State.icache);
  ignore (Sim.Lru.trim st.State.pcache)

let all_block_pbas st ino =
  let inode = State.load_inode st ino in
  let ptrs = pointers st ino in
  let data = Array.to_list ptrs |> List.filter (fun p -> p <> 0) in
  let inds =
    List.filter (fun p -> p <> 0) [ inode.Enc.single_ind; inode.Enc.double_ind ]
  in
  let children =
    if inode.Enc.double_ind = 0 then []
    else
      match
        Enc.decode_pointer_block
          (State.read_payload st ~pba:inode.Enc.double_ind)
      with
      | Some root -> Array.to_list root |> List.filter (fun p -> p <> 0)
      | None -> []
  in
  let self = match State.inode_pba st ino with Some p -> [ p ] | None -> [] in
  data @ inds @ children @ self

let line_is_heated st pba =
  Sero.Device.is_line_heated st.State.dev
    ~line:(Sero.Layout.line_of_block st.State.lay pba)

let delete st ino =
  let pbas = all_block_pbas st ino in
  if List.exists (line_is_heated st) pbas then
    raise (State.Fs_error "file lies in heated (read-only) lines");
  List.iter (fun pba -> State.free_block st ~pba) pbas;
  Hashtbl.remove st.State.imap ino;
  Sim.Lru.remove st.State.icache ino;
  Sim.Lru.remove st.State.pcache ino;
  Hashtbl.remove st.State.dirty ino;
  Hashtbl.remove st.State.dir_memo ino
