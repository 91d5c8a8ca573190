type t = { st : State.t }

let state t = t.st
let device t = t.st.State.dev
let attach_queue t q = State.attach_queue t.st q
let attach_cache t c = State.attach_cache t.st c

let format ?policy ?icache_cap ?pcache_cap dev =
  let st = State.create ?policy ?icache_cap ?pcache_cap dev in
  Dirops.init_root st;
  File.flush_all st;
  State.write_checkpoint st;
  { st }

let mount ?policy dev =
  let st = State.create ?policy dev in
  match State.read_latest_checkpoint dev st.State.policy with
  | None -> Error "no valid checkpoint found"
  | Some cp ->
      State.restore_from_checkpoint st cp;
      Sero.Device.refresh_heated_cache dev;
      (* Heated lines on the medium override the checkpointed state. *)
      let lay = st.State.lay in
      for line = 0 to Sero.Layout.usable_lines lay - 1 do
        if Sero.Device.is_line_heated dev ~line then
          State.mark_segment_heated st
            (line / st.State.policy.State.segment_lines)
      done;
      Ok { st }

let sync t =
  File.flush_all t.st;
  State.write_checkpoint t.st;
  (* sync means durable: write-behind data (including the checkpoint
     blocks just written) must reach the medium before returning. *)
  State.flush_block_cache t.st

type recovery = { fs : t; torn_completed : int list; fsck : Fsck.report }

(* Power-loss recovery: a cut mid-heat leaves a torn write-once area
   (burned prefix, blank tail).  The data blocks it covers were written
   and flushed before the burn started, so completing the burn from
   them reproduces the interrupted hash exactly; then fsck inventories
   the heated files and a normal mount replays the latest checkpoint. *)
let recover ?policy dev =
  let lay = Sero.Device.layout dev in
  let torn = ref [] in
  for line = 0 to Sero.Layout.usable_lines lay - 1 do
    match Sero.Device.read_hash_block dev ~line with
    | `Torn _ -> (
        match Sero.Device.heat_line dev ~line () with
        | Ok _ -> torn := line :: !torn
        | Error _ -> ())
    | `Not_heated | `Burned _ | `Tampered _ -> ()
  done;
  let fsck = Fsck.run dev in
  match mount ?policy dev with
  | Error _ as e -> e
  | Ok fs -> Ok { fs; torn_completed = List.rev !torn; fsck }

let guard f =
  match f () with
  | v -> Ok v
  | exception State.Fs_error msg -> Error msg
  | exception State.Out_of_space -> Error "out of space"
  | exception State.Read_only_device -> Error "device is read-only (endurance)"

let resolve t path =
  match Dirops.lookup t.st path with
  | Some (ino, kind) -> Ok (ino, kind)
  | None -> Error (Printf.sprintf "no such file or directory: %s" path)

let resolve_file t path =
  match resolve t path with
  | Error _ as e -> e
  | Ok (_, Enc.Directory) -> Error (Printf.sprintf "%s is a directory" path)
  | Ok (ino, Enc.Regular) -> Ok ino

let ( let* ) = Result.bind

let file_heated t ino = Heat.is_file_heated t.st ~ino

let any_line_heated t ino =
  List.exists
    (fun l -> Sero.Device.is_line_heated t.st.State.dev ~line:l)
    (Heat.file_lines t.st ~ino)

(* Allocate an inode of [kind] and run [link] on it.  If [link] raises
   (a duplicate or over-long name), the inode and any blocks it got are
   freed and its number handed back, so a refused call leaves no orphan
   to reach the medium at the next sync. *)
let with_new_inode t ~kind ~heat_group link =
  let ino = (File.create_inode t.st ~kind ~heat_group).Enc.ino in
  match link ino with
  | () -> ()
  | exception e ->
      File.delete t.st ino;
      t.st.State.next_ino <- ino;
      raise e

let mkdir t path =
  guard (fun () ->
      match Dirops.parent_of t.st path with
      | Error e -> raise (State.Fs_error e)
      | Ok (parent, name) ->
          Cleaner.maybe_clean t.st;
          with_new_inode t ~kind:Enc.Directory ~heat_group:0 (fun ino ->
              Dirops.store_empty t.st ino;
              Dirops.add_entry t.st ~dir:parent
                { Enc.name; entry_ino = ino; entry_kind = Enc.Directory }))

let create t ?(heat_group = 0) path =
  guard (fun () ->
      match Dirops.parent_of t.st path with
      | Error e -> raise (State.Fs_error e)
      | Ok (parent, name) ->
          Cleaner.maybe_clean t.st;
          with_new_inode t ~kind:Enc.Regular ~heat_group (fun ino ->
              Dirops.add_entry t.st ~dir:parent
                { Enc.name; entry_ino = ino; entry_kind = Enc.Regular }))

let exists t path = Option.is_some (Dirops.lookup t.st path)

let readdir t path =
  let* ino, kind = resolve t path in
  match kind with
  | Enc.Regular -> Error (Printf.sprintf "%s is not a directory" path)
  | Enc.Directory -> guard (fun () -> Dirops.entries t.st ino)

let unlink t path =
  let* ino, kind = resolve t path in
  guard (fun () ->
      (match kind with
      | Enc.Directory ->
          if Dirops.entries t.st ino <> [] then
            raise (State.Fs_error "directory not empty")
      | Enc.Regular -> ());
      if any_line_heated t ino then
        raise
          (State.Fs_error
             "file is heated (read-only): rm would invalidate the burned hash");
      match Dirops.parent_of t.st path with
      | Error e -> raise (State.Fs_error e)
      | Ok (parent, name) ->
          Dirops.remove_entry t.st ~dir:parent name;
          let inode = State.load_inode t.st ino in
          if inode.Enc.nlink <= 1 then File.delete t.st ino
          else begin
            State.mark_dirty t.st ino;
            State.cache_inode t.st
              { inode with Enc.nlink = inode.Enc.nlink - 1 }
          end)

let link t existing fresh =
  let* ino = resolve_file t existing in
  guard (fun () ->
      if any_line_heated t ino then
        raise
          (State.Fs_error
             "file is heated (read-only): ln would rewrite the inode");
      match Dirops.parent_of t.st fresh with
      | Error e -> raise (State.Fs_error e)
      | Ok (parent, name) ->
          let inode = State.load_inode t.st ino in
          State.mark_dirty t.st ino;
          State.cache_inode t.st { inode with Enc.nlink = inode.Enc.nlink + 1 };
          Dirops.add_entry t.st ~dir:parent
            { Enc.name; entry_ino = ino; entry_kind = Enc.Regular })

let write_file t path ~offset data =
  let* ino = resolve_file t path in
  guard (fun () ->
      if any_line_heated t ino then
        raise (State.Fs_error "file is heated (read-only)");
      Cleaner.maybe_clean t.st;
      File.write t.st ino ~offset data)

let append t path data =
  let* ino = resolve_file t path in
  guard (fun () ->
      if any_line_heated t ino then
        raise (State.Fs_error "file is heated (read-only)");
      Cleaner.maybe_clean t.st;
      let inode = State.load_inode t.st ino in
      File.write t.st ino ~offset:inode.Enc.size data)

let read_range t path ~offset ~len =
  let* ino = resolve_file t path in
  guard (fun () -> File.read t.st ino ~offset ~len)

let read_file t path =
  let* ino = resolve_file t path in
  guard (fun () ->
      let inode = State.load_inode t.st ino in
      File.read t.st ino ~offset:0 ~len:inode.Enc.size)

let file_size t path =
  let* ino = resolve_file t path in
  guard (fun () -> (State.load_inode t.st ino).Enc.size)

let heat t ?(strategy = Heat.Auto) path =
  let* ino = resolve_file t path in
  guard (fun () ->
      Cleaner.maybe_clean t.st;
      let r = Heat.heat_file t.st ~ino ~strategy in
      (* The burned state must be reachable after a crash, so the
         checkpoint needs every inode flushed — not just the heated
         one (its directory entry lives in a possibly-dirty parent). *)
      File.flush_all t.st;
      State.write_checkpoint t.st;
      State.flush_block_cache t.st;
      r)

let verify t path =
  let* ino = resolve_file t path in
  guard (fun () -> Heat.verify_file t.st ~ino)

let is_heated t path =
  let* ino = resolve_file t path in
  guard (fun () -> file_heated t ino)

type stats = {
  free_segments : int;
  heated_segments : int;
  closed_segments : int;
  partially_heated_segments : int;
  live_utilisation : float list;
  metrics : State.metrics;
  device : Sero.Device.stats;
}

let stats t =
  let st = t.st in
  let heated = ref 0 and closed = ref 0 and utils = ref [] in
  let partial = ref 0 in
  Array.iteri
    (fun i s ->
      if i >= State.first_data_segment st then begin
        (* Heated lines per segment, from device ground truth: the
           Section 4.1 bimodality claim is that segments are mostly
           heated or mostly unheated, never half-and-half. *)
        let heated_lines =
          List.length
            (List.filter
               (fun l -> Sero.Device.is_line_heated st.State.dev ~line:l)
               (State.lines_of_seg st i))
        in
        if heated_lines > 0 && heated_lines < st.State.policy.State.segment_lines
        then incr partial;
        match s.State.state with
        | Enc.Seg_heated -> incr heated
        | Enc.Seg_closed ->
            incr closed;
            utils := Cleaner.segment_utilisation st i :: !utils
        | Enc.Seg_free | Enc.Seg_open -> ()
      end)
    st.State.segs;
  {
    free_segments = State.free_segments st;
    heated_segments = !heated;
    closed_segments = !closed;
    partially_heated_segments = !partial;
    live_utilisation = List.rev !utils;
    metrics = st.State.metrics;
    device = Sero.Device.stats st.State.dev;
  }
