type op =
  | Mkdir of string
  | Create of { path : string; heat_group : int }
  | Write of { path : string; offset : int; data : string }
  | Append of { path : string; data : string }
  | Unlink of string
  | Heat of string
  | Sync

type t = op list

let magic = "SEROTRC1"

let encode ops =
  let w = Codec.Binio.W.create ~capacity:4096 () in
  Codec.Binio.W.raw w magic;
  Codec.Binio.W.u32 w (List.length ops);
  List.iter
    (fun op ->
      match op with
      | Mkdir p ->
          Codec.Binio.W.u8 w 0;
          Codec.Binio.W.str w p
      | Create { path; heat_group } ->
          Codec.Binio.W.u8 w 1;
          Codec.Binio.W.str w path;
          Codec.Binio.W.u32 w heat_group
      | Write { path; offset; data } ->
          Codec.Binio.W.u8 w 2;
          Codec.Binio.W.str w path;
          Codec.Binio.W.u64 w offset;
          Codec.Binio.W.str w data
      | Append { path; data } ->
          Codec.Binio.W.u8 w 3;
          Codec.Binio.W.str w path;
          Codec.Binio.W.str w data
      | Unlink p ->
          Codec.Binio.W.u8 w 4;
          Codec.Binio.W.str w p
      | Heat p ->
          Codec.Binio.W.u8 w 5;
          Codec.Binio.W.str w p
      | Sync -> Codec.Binio.W.u8 w 6)
    ops;
  Codec.Binio.W.contents w

let decode s =
  let r = Codec.Binio.R.of_string s in
  match
    let m = Codec.Binio.R.raw r (String.length magic) in
    if not (String.equal m magic) then Error "not a trace file"
    else begin
      let n = Codec.Binio.R.u32 r in
      let rec go k acc =
        if k = 0 then Ok (List.rev acc)
        else
          match Codec.Binio.R.u8 r with
          | 0 -> go (k - 1) (Mkdir (Codec.Binio.R.str r) :: acc)
          | 1 ->
              let path = Codec.Binio.R.str r in
              let heat_group = Codec.Binio.R.u32 r in
              go (k - 1) (Create { path; heat_group } :: acc)
          | 2 ->
              let path = Codec.Binio.R.str r in
              let offset = Codec.Binio.R.u64 r in
              let data = Codec.Binio.R.str r in
              go (k - 1) (Write { path; offset; data } :: acc)
          | 3 ->
              let path = Codec.Binio.R.str r in
              let data = Codec.Binio.R.str r in
              go (k - 1) (Append { path; data } :: acc)
          | 4 -> go (k - 1) (Unlink (Codec.Binio.R.str r) :: acc)
          | 5 -> go (k - 1) (Heat (Codec.Binio.R.str r) :: acc)
          | 6 -> go (k - 1) (Sync :: acc)
          | tag -> Error (Printf.sprintf "unknown op tag %d" tag)
      in
      go n []
    end
  with
  | exception Codec.Binio.R.Truncated -> Error "trace truncated"
  | v -> v

let save ops path =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (encode ops))

let load path =
  match
    In_channel.with_open_bin path In_channel.input_all
  with
  | exception Sys_error e -> Error e
  | raw -> decode raw

type outcome = { applied : int; refused : int }

let apply ?strategy fs op =
  match op with
  | Mkdir p -> Lfs.Fs.mkdir fs p
  | Create { path; heat_group } -> Lfs.Fs.create fs ~heat_group path
  | Write { path; offset; data } -> Lfs.Fs.write_file fs path ~offset data
  | Append { path; data } -> Lfs.Fs.append fs path data
  | Unlink p -> Lfs.Fs.unlink fs p
  | Heat p -> Result.map (fun _ -> ()) (Lfs.Fs.heat fs ?strategy p)
  | Sync -> Lfs.Fs.guard (fun () -> Lfs.Fs.sync fs)

let replay ?strategy fs ops =
  List.fold_left
    (fun acc op ->
      match apply ?strategy fs op with
      | Ok () -> { acc with applied = acc.applied + 1 }
      | Error _ -> { acc with refused = acc.refused + 1 })
    { applied = 0; refused = 0 }
    ops

let recorder fs =
  let ops = ref [] in
  let exec op =
    ops := op :: !ops;
    apply fs op
  in
  let captured () = List.rev !ops in
  (exec, captured)
