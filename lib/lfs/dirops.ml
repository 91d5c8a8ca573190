let root_ino = 1

let is_dir (i : Enc.inode) = Enc.equal_kind i.Enc.kind Enc.Directory

let check_dir st ino =
  let i = State.load_inode st ino in
  if not (is_dir i) then
    raise (State.Fs_error (Printf.sprintf "inode %d is not a directory" ino));
  i

(* The memo slots of directory [ino] for its [n] blocks, installed
   empty on first use; an empty slot matches no payload. *)
let memo_slots st ino n =
  match Hashtbl.find_opt st.State.dir_memo ino with
  | Some m when Array.length m = n -> m
  | Some _ | None ->
      let m = Array.make n ("", []) in
      Hashtbl.replace st.State.dir_memo ino m;
      m

(* The entries of block [bi], read as [File.read] would read it (the
   same inode, pointer and block calls, without its copies) and decoded
   through the memo: equal bytes decode to equal entries, so a slot is
   used only when its payload equals the one just read. *)
let block_entries st ino memo bi =
  let inode = State.load_inode st ino in
  let take = min File.block_size (inode.Enc.size - (bi * File.block_size)) in
  let ptrs = File.pointers st ino in
  let corrupt () =
    raise (State.Fs_error (Printf.sprintf "directory %d block %d corrupt" ino bi))
  in
  (* A hole reads as zeros, which never decode. *)
  if bi >= Array.length ptrs || ptrs.(bi) = 0 then corrupt ();
  let payload = State.read_payload st ~pba:ptrs.(bi) in
  let payload =
    if take = File.block_size then payload else String.sub payload 0 take
  in
  let seen, es = memo.(bi) in
  if String.equal seen payload then es
  else
    match Enc.decode_dirents payload with
    | Some es ->
        memo.(bi) <- (payload, es);
        es
    | None -> corrupt ()

(* Entries are stored one decodable list per block, never spanning:
   each block's list, in block order. *)
let block_lists st ino =
  let inode = check_dir st ino in
  let n = File.block_count inode in
  let memo = memo_slots st ino n in
  List.init n (block_entries st ino memo)

let entries st ino = List.concat (block_lists st ino)

(* Rewrite the whole directory, one packed block at a time, and seed
   the memo with what was written. *)
let store st ino (es : Enc.dirent list) =
  match Enc.pack_dirents es with
  | None -> raise (State.Fs_error "directory entry name too long")
  | Some blocks ->
      List.iteri
        (fun bi (payload, _) ->
          File.write st ino ~offset:(bi * File.block_size) payload)
        blocks;
      File.truncate st ino ~size:(List.length blocks * File.block_size);
      Hashtbl.replace st.State.dir_memo ino (Array.of_list blocks)

let store_empty st ino = store st ino []

let init_root st =
  let inode = File.create_inode st ~kind:Enc.Directory ~heat_group:0 in
  if inode.Enc.ino <> root_ino then
    raise (State.Fs_error "root must be the first inode");
  store st root_ino []

let find_entry es name =
  List.find_opt (fun (e : Enc.dirent) -> String.equal e.Enc.name name) es

let add_entry st ~dir e =
  let es = entries st dir in
  (match find_entry es e.Enc.name with
  | Some _ ->
      raise
        (State.Fs_error (Printf.sprintf "entry %S already exists" e.Enc.name))
  | None -> ());
  store st dir (es @ [ e ])

let remove_entry st ~dir name =
  let es = entries st dir in
  match find_entry es name with
  | None -> raise (State.Fs_error (Printf.sprintf "no entry %S" name))
  | Some _ ->
      store st dir
        (List.filter (fun (e : Enc.dirent) -> not (String.equal e.Enc.name name)) es)

let split_path path =
  if String.length path = 0 || path.[0] <> '/' then
    Error "path must be absolute"
  else begin
    let parts =
      String.split_on_char '/' path |> List.filter (fun s -> s <> "")
    in
    if List.exists (fun p -> String.equal p "." || String.equal p "..") parts
    then Error "paths may not contain . or .."
    else Ok parts
  end

(* A directory that no longer parses (e.g. scrubbed by an attacker)
   simply fails the resolution — the forensic scan, not the namespace,
   is the recovery path. *)
let find_in st ino name =
  match block_lists st ino with
  | lists -> List.find_map (fun es -> find_entry es name) lists
  | exception State.Fs_error _ -> None

let lookup st path =
  match split_path path with
  | Error _ -> None
  | Ok parts ->
      let rec walk ino kind = function
        | [] -> Some (ino, kind)
        | name :: rest -> (
            if not (Enc.equal_kind kind Enc.Directory) then None
            else
              match find_in st ino name with
              | None -> None
              | Some e -> walk e.Enc.entry_ino e.Enc.entry_kind rest)
      in
      walk root_ino Enc.Directory parts

let parent_of st path =
  match split_path path with
  | Error e -> Error e
  | Ok [] -> Error "the root has no parent"
  | Ok parts -> (
      let rec split_last acc = function
        | [ last ] -> (List.rev acc, last)
        | x :: rest -> split_last (x :: acc) rest
        | [] -> assert false
      in
      let dir_parts, base = split_last [] parts in
      let rec walk ino = function
        | [] -> Ok (ino, base)
        | name :: rest -> (
            match find_in st ino name with
            | Some e when Enc.equal_kind e.Enc.entry_kind Enc.Directory ->
                walk e.Enc.entry_ino rest
            | Some _ -> Error (Printf.sprintf "%S is not a directory" name)
            | None -> Error (Printf.sprintf "no such directory %S" name))
      in
      walk root_ino dir_parts)
