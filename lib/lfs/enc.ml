let payload = Codec.Sector.payload_bytes

type kind = Regular | Directory

let equal_kind a b =
  match (a, b) with
  | Regular, Regular | Directory, Directory -> true
  | (Regular | Directory), _ -> false

let pp_kind ppf k =
  Format.pp_print_string ppf
    (match k with Regular -> "file" | Directory -> "dir")

let kind_to_int = function Regular -> 0 | Directory -> 1
let kind_of_int = function 0 -> Some Regular | 1 -> Some Directory | _ -> None

let n_direct = 12
let pointers_per_indirect = payload / 8 (* 64 *)
let max_file_blocks =
  n_direct + pointers_per_indirect + (pointers_per_indirect * pointers_per_indirect)

type inode = {
  ino : int;
  kind : kind;
  nlink : int;
  heat_group : int;
  size : int;
  mtime : float;
  generation : int;
  direct : int array;
  single_ind : int;
  double_ind : int;
}

let fresh_inode ~ino ~kind ~heat_group =
  {
    ino;
    kind;
    nlink = 1;
    heat_group;
    size = 0;
    mtime = 0.;
    generation = 0;
    direct = Array.make n_direct 0;
    single_ind = 0;
    double_ind = 0;
  }

let inode_magic = 0x494E (* "IN" *)

let encode_inode i =
  let w = Codec.Binio.W.create ~capacity:160 () in
  Codec.Binio.W.u16 w inode_magic;
  Codec.Binio.W.u32 w i.ino;
  Codec.Binio.W.u8 w (kind_to_int i.kind);
  Codec.Binio.W.u16 w i.nlink;
  Codec.Binio.W.u32 w i.heat_group;
  Codec.Binio.W.u64 w i.size;
  Codec.Binio.W.f64 w i.mtime;
  Codec.Binio.W.u32 w i.generation;
  Array.iter (fun p -> Codec.Binio.W.u64 w p) i.direct;
  Codec.Binio.W.u64 w i.single_ind;
  Codec.Binio.W.u64 w i.double_ind;
  Codec.Binio.W.contents w

let decode_inode s =
  let r = Codec.Binio.R.of_string s in
  match
    let magic = Codec.Binio.R.u16 r in
    if magic <> inode_magic then None
    else begin
      let ino = Codec.Binio.R.u32 r in
      match kind_of_int (Codec.Binio.R.u8 r) with
      | None -> None
      | Some kind ->
          let nlink = Codec.Binio.R.u16 r in
          let heat_group = Codec.Binio.R.u32 r in
          let size = Codec.Binio.R.u64 r in
          let mtime = Codec.Binio.R.f64 r in
          let generation = Codec.Binio.R.u32 r in
          let direct = Array.make n_direct 0 in
          for k = 0 to n_direct - 1 do
            direct.(k) <- Codec.Binio.R.u64 r
          done;
          let single_ind = Codec.Binio.R.u64 r in
          let double_ind = Codec.Binio.R.u64 r in
          Some
            {
              ino;
              kind;
              nlink;
              heat_group;
              size;
              mtime;
              generation;
              direct;
              single_ind;
              double_ind;
            }
    end
  with
  | exception (Codec.Binio.R.Truncated | Codec.Binio.R.Overflow) -> None
  | v -> v

let encode_pointer_block ptrs =
  if Array.length ptrs <> pointers_per_indirect then
    invalid_arg "Enc.encode_pointer_block: wrong arity";
  let w = Codec.Binio.W.create ~capacity:payload () in
  Array.iter (fun p -> Codec.Binio.W.u64 w p) ptrs;
  Codec.Binio.W.contents w

let decode_pointer_block s =
  if String.length s < 8 * pointers_per_indirect then None
  else
    let r = Codec.Binio.R.of_string s in
    match
      let a = Array.make pointers_per_indirect 0 in
      for k = 0 to pointers_per_indirect - 1 do
        a.(k) <- Codec.Binio.R.u64 r
      done;
      a
    with
    | exception (Codec.Binio.R.Truncated | Codec.Binio.R.Overflow) -> None
    | a -> Some a

(* {1 Directory payloads} *)

type dirent = { name : string; entry_ino : int; entry_kind : kind }

let dirent_magic = 0x4452 (* "DR" *)

(* Exact encoded sizes: a u16 magic and a u16 count, then per entry a
   u32 ino, a u8 kind and a u32-length-prefixed name. *)
let dirents_header = 4
let dirent_size e = 9 + String.length e.name

(* Write [es] from byte 0 of [b], which must hold their encoding. *)
let write_dirents b es =
  let u32 pos v =
    Bytes.set_uint16_be b pos ((v lsr 16) land 0xFFFF);
    Bytes.set_uint16_be b (pos + 2) (v land 0xFFFF)
  in
  Bytes.set_uint16_be b 0 dirent_magic;
  Bytes.set_uint16_be b 2 (List.length es land 0xFFFF);
  ignore
    (List.fold_left
       (fun pos e ->
         let n = String.length e.name in
         u32 pos e.entry_ino;
         Bytes.set_uint8 b (pos + 4) (kind_to_int e.entry_kind);
         u32 (pos + 5) n;
         Bytes.blit_string e.name 0 b (pos + 9) n;
         pos + 9 + n)
       dirents_header es)

let pack_dirents entries =
  (* One zero-padded block per run of entries, encoded once. *)
  let block es =
    let b = Bytes.make payload '\x00' in
    let es = List.rev es in
    write_dirents b es;
    (Bytes.unsafe_to_string b, es)
  in
  let rec go blocks current size = function
    | [] -> Some (List.rev (block current :: blocks))
    | e :: rest ->
        let n = dirent_size e in
        if size + n <= payload then go blocks (e :: current) (size + n) rest
        else if dirents_header + n > payload then None
        else go (block current :: blocks) [ e ] (dirents_header + n) rest
  in
  go [] [] dirents_header entries

let decode_dirents s =
  let r = Codec.Binio.R.of_string s in
  match
    let magic = Codec.Binio.R.u16 r in
    if magic <> dirent_magic then None
    else begin
      let n = Codec.Binio.R.u16 r in
      let rec go k acc =
        if k = 0 then Some (List.rev acc)
        else begin
          let entry_ino = Codec.Binio.R.u32 r in
          match kind_of_int (Codec.Binio.R.u8 r) with
          | None -> None
          | Some entry_kind ->
              let name = Codec.Binio.R.str r in
              go (k - 1) ({ name; entry_ino; entry_kind } :: acc)
        end
      in
      go n []
    end
  with
  | exception Codec.Binio.R.Truncated -> None
  | v -> v

(* {1 Segment summary} *)

type owner =
  | Data_of of { o_ino : int; block_index : int }
  | Inode_of of int
  | Indirect_of of { o_ino : int; slot : int }
  | Summary_block
  | Unused

type summary = { seg_index : int; owners : owner array }

let summary_magic = 0x5347 (* "SG" *)

let encode_owner w = function
  | Unused -> Codec.Binio.W.u8 w 0
  | Data_of { o_ino; block_index } ->
      Codec.Binio.W.u8 w 1;
      Codec.Binio.W.u32 w o_ino;
      Codec.Binio.W.u32 w block_index
  | Inode_of ino ->
      Codec.Binio.W.u8 w 2;
      Codec.Binio.W.u32 w ino
  | Indirect_of { o_ino; slot } ->
      Codec.Binio.W.u8 w 3;
      Codec.Binio.W.u32 w o_ino;
      Codec.Binio.W.u32 w (slot + 2) (* shift so -2 encodes as 0 *)
  | Summary_block -> Codec.Binio.W.u8 w 4

let decode_owner r =
  match Codec.Binio.R.u8 r with
  | 0 -> Some Unused
  | 1 ->
      let o_ino = Codec.Binio.R.u32 r in
      let block_index = Codec.Binio.R.u32 r in
      Some (Data_of { o_ino; block_index })
  | 2 -> Some (Inode_of (Codec.Binio.R.u32 r))
  | 3 ->
      let o_ino = Codec.Binio.R.u32 r in
      let slot = Codec.Binio.R.u32 r - 2 in
      Some (Indirect_of { o_ino; slot })
  | 4 -> Some Summary_block
  | _ -> None

let encode_summary s =
  let w = Codec.Binio.W.create ~capacity:payload () in
  Codec.Binio.W.u16 w summary_magic;
  Codec.Binio.W.u32 w s.seg_index;
  Codec.Binio.W.u16 w (Array.length s.owners);
  Array.iter (encode_owner w) s.owners;
  let out = Codec.Binio.W.contents w in
  if String.length out > payload then
    invalid_arg "Enc.encode_summary: does not fit one block";
  out

let decode_summary str =
  let r = Codec.Binio.R.of_string str in
  match
    let magic = Codec.Binio.R.u16 r in
    if magic <> summary_magic then None
    else begin
      let seg_index = Codec.Binio.R.u32 r in
      let n = Codec.Binio.R.u16 r in
      let rec go k acc =
        if k = 0 then Some (List.rev acc)
        else
          match decode_owner r with
          | None -> None
          | Some o -> go (k - 1) (o :: acc)
      in
      match go n [] with
      | None -> None
      | Some owners -> Some { seg_index; owners = Array.of_list owners }
    end
  with
  | exception Codec.Binio.R.Truncated -> None
  | v -> v

(* {1 Checkpoint} *)

type seg_state = Seg_free | Seg_open | Seg_closed | Seg_heated

let equal_seg_state a b =
  match (a, b) with
  | Seg_free, Seg_free | Seg_open, Seg_open | Seg_closed, Seg_closed
  | Seg_heated, Seg_heated ->
      true
  | (Seg_free | Seg_open | Seg_closed | Seg_heated), _ -> false

let seg_state_to_int = function
  | Seg_free -> 0
  | Seg_open -> 1
  | Seg_closed -> 2
  | Seg_heated -> 3

let seg_state_of_int = function
  | 0 -> Some Seg_free
  | 1 -> Some Seg_open
  | 2 -> Some Seg_closed
  | 3 -> Some Seg_heated
  | _ -> None

type seg_record = {
  state : seg_state;
  live_blocks : int;
  seg_group : int;
  age : int;
}

type checkpoint = {
  seq : int;
  timestamp : float;
  next_ino : int;
  imap : (int * int) list;
  segments : seg_record array;
}

let checkpoint_magic = 0x53455243 (* "SERC" *)

let encode_checkpoint c =
  let w = Codec.Binio.W.create ~capacity:4096 () in
  Codec.Binio.W.u32 w checkpoint_magic;
  Codec.Binio.W.u64 w c.seq;
  Codec.Binio.W.f64 w c.timestamp;
  Codec.Binio.W.u32 w c.next_ino;
  Codec.Binio.W.u32 w (List.length c.imap);
  List.iter
    (fun (ino, pba) ->
      Codec.Binio.W.u32 w ino;
      Codec.Binio.W.u64 w pba)
    c.imap;
  Codec.Binio.W.u32 w (Array.length c.segments);
  Array.iter
    (fun s ->
      Codec.Binio.W.u8 w (seg_state_to_int s.state);
      Codec.Binio.W.u16 w s.live_blocks;
      Codec.Binio.W.u32 w s.seg_group;
      Codec.Binio.W.u32 w s.age)
    c.segments;
  let body = Codec.Binio.W.contents w in
  let crc = Codec.Crc32.string body in
  let out = Codec.Binio.W.create ~capacity:(String.length body + 8) () in
  Codec.Binio.W.u32 out (Int32.to_int crc land 0xFFFFFFFF);
  Codec.Binio.W.u32 out (String.length body);
  Codec.Binio.W.raw out body;
  Codec.Binio.W.contents out

let decode_checkpoint s =
  let r = Codec.Binio.R.of_string s in
  match
    let crc = Codec.Binio.R.u32 r in
    let len = Codec.Binio.R.u32 r in
    let body = Codec.Binio.R.raw r len in
    if Int32.to_int (Codec.Crc32.string body) land 0xFFFFFFFF <> crc then None
    else begin
      let r = Codec.Binio.R.of_string body in
      let magic = Codec.Binio.R.u32 r in
      if magic <> checkpoint_magic then None
      else begin
        let seq = Codec.Binio.R.u64 r in
        let timestamp = Codec.Binio.R.f64 r in
        let next_ino = Codec.Binio.R.u32 r in
        let n_imap = Codec.Binio.R.u32 r in
        (* Explicit recursion: reads must happen strictly in order. *)
        let rec read_imap k acc =
          if k = 0 then List.rev acc
          else begin
            let ino = Codec.Binio.R.u32 r in
            let pba = Codec.Binio.R.u64 r in
            read_imap (k - 1) ((ino, pba) :: acc)
          end
        in
        let imap = read_imap n_imap [] in
        let n_segs = Codec.Binio.R.u32 r in
        let rec segs k acc =
          if k = 0 then Some (List.rev acc)
          else
            match seg_state_of_int (Codec.Binio.R.u8 r) with
            | None -> None
            | Some state ->
                let live_blocks = Codec.Binio.R.u16 r in
                let seg_group = Codec.Binio.R.u32 r in
                let age = Codec.Binio.R.u32 r in
                segs (k - 1) ({ state; live_blocks; seg_group; age } :: acc)
        in
        match segs n_segs [] with
        | None -> None
        | Some segments ->
            Some
              { seq; timestamp; next_ino; imap; segments = Array.of_list segments }
      end
    end
  with
  | exception (Codec.Binio.R.Truncated | Codec.Binio.R.Overflow) -> None
  | v -> v
