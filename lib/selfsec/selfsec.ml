type entry = {
  seq : int;
  at : float;
  op : string;
  path : string;
  offset : int;
  before_digest : Hash.Sha256.t;
  after_digest : Hash.Sha256.t;
}

type t = {
  fs : Lfs.Fs.t;
  epoch_len : int;
  mutable epoch : int;
  mutable in_epoch : int;  (* entries in the current epoch *)
  mutable next_seq : int;
  mutable chain : Hash.Sha256.t;  (* rolling digest over all entries *)
}

let dir = "/.selfsec"
let epoch_path n = Printf.sprintf "%s/epoch-%06d" dir n
let ( let* ) = Result.bind

(* {1 Entry encoding} — each entry is a self-delimiting record; the
   rolling chain digest covers the serialised bytes, so any replay
   starting from the genesis digest recomputes it. *)

let encode_entry e ~chain =
  let w = Codec.Binio.W.create () in
  Codec.Binio.W.u32 w e.seq;
  Codec.Binio.W.f64 w e.at;
  Codec.Binio.W.str w e.op;
  Codec.Binio.W.str w e.path;
  Codec.Binio.W.u64 w e.offset;
  Codec.Binio.W.raw w (Hash.Sha256.to_raw e.before_digest);
  Codec.Binio.W.raw w (Hash.Sha256.to_raw e.after_digest);
  let body = Codec.Binio.W.contents w in
  let next_chain = Hash.Sha256.digest_concat [ Hash.Sha256.to_raw chain; body ] in
  let framed = Codec.Binio.W.create () in
  Codec.Binio.W.u32 framed (String.length body);
  Codec.Binio.W.raw framed body;
  Codec.Binio.W.raw framed (Hash.Sha256.to_raw next_chain);
  (Codec.Binio.W.contents framed, next_chain)

let decode_entries ~chain blob =
  let r = Codec.Binio.R.of_string blob in
  let rec go chain acc =
    if Codec.Binio.R.remaining r = 0 then Ok (List.rev acc, chain)
    else
      match
        let len = Codec.Binio.R.u32 r in
        let body = Codec.Binio.R.raw r len in
        let recorded_chain = Hash.Sha256.of_raw (Codec.Binio.R.raw r 32) in
        (body, recorded_chain)
      with
      | exception Codec.Binio.R.Truncated -> Error "journal truncated"
      | body, recorded_chain ->
          let expected =
            Hash.Sha256.digest_concat [ Hash.Sha256.to_raw chain; body ]
          in
          if not (Hash.Sha256.equal expected recorded_chain) then
            Error "journal chain broken"
          else begin
            let br = Codec.Binio.R.of_string body in
            match
              let seq = Codec.Binio.R.u32 br in
              let at = Codec.Binio.R.f64 br in
              let op = Codec.Binio.R.str br in
              let path = Codec.Binio.R.str br in
              let offset = Codec.Binio.R.u64 br in
              let before_digest = Hash.Sha256.of_raw (Codec.Binio.R.raw br 32) in
              let after_digest = Hash.Sha256.of_raw (Codec.Binio.R.raw br 32) in
              { seq; at; op; path; offset; before_digest; after_digest }
            with
            | exception Codec.Binio.R.Truncated -> Error "entry truncated"
            | exception Codec.Binio.R.Overflow -> Error "entry offset out of range"
            | e -> go recorded_chain (e :: acc)
          end
  in
  go chain []

(* {1 Setup} *)

let genesis = Hash.Sha256.digest_string "selfsec-genesis"

let epoch_numbers fs =
  match Lfs.Fs.readdir fs dir with
  | Error _ -> []
  | Ok entries ->
      List.filter_map
        (fun (e : Lfs.Enc.dirent) ->
          match String.length e.Lfs.Enc.name with
          | 12 when String.sub e.Lfs.Enc.name 0 6 = "epoch-" ->
              int_of_string_opt (String.sub e.Lfs.Enc.name 6 6)
          | _ -> None)
        entries
      |> List.sort compare

let read_epoch fs n ~chain =
  let* blob = Lfs.Fs.read_file fs (epoch_path n) in
  decode_entries ~chain blob

let wrap ?(epoch_len = 32) fs =
  if epoch_len <= 0 then Error "epoch_len must be positive"
  else begin
    let* () =
      if Lfs.Fs.exists fs dir then Ok () else Lfs.Fs.mkdir fs dir
    in
    let epochs = epoch_numbers fs in
    (* Replay existing epochs to restore the chain and counters. *)
    let rec replay chain seq = function
      | [] -> Ok (chain, seq, 0)
      | [ last ] ->
          let* entries, chain = read_epoch fs last ~chain in
          let seq =
            List.fold_left (fun _ (e : entry) -> e.seq + 1) seq entries
          in
          Ok (chain, seq, List.length entries)
      | n :: rest ->
          let* entries, chain = read_epoch fs n ~chain in
          let seq =
            List.fold_left (fun _ (e : entry) -> e.seq + 1) seq entries
          in
          replay chain seq rest
    in
    let* chain, next_seq, in_epoch = replay genesis 0 epochs in
    let epoch = match List.rev epochs with [] -> 0 | last :: _ -> last in
    let* () =
      if Lfs.Fs.exists fs (epoch_path epoch) then Ok ()
      else Lfs.Fs.create fs ~heat_group:999 (epoch_path epoch)
    in
    Ok { fs; epoch_len; epoch; in_epoch; next_seq; chain }
  end

(* {1 Journalling} *)

let seal_epoch t =
  let* heated = Ok (Lfs.Fs.is_heated t.fs (epoch_path t.epoch)) in
  let* () =
    match heated with
    | Ok true -> Ok ()
    | _ -> (
        match Lfs.Fs.heat t.fs (epoch_path t.epoch) with
        | Ok _ -> Ok ()
        | Error e -> Error (Printf.sprintf "seal: %s" e))
  in
  t.epoch <- t.epoch + 1;
  t.in_epoch <- 0;
  Lfs.Fs.create t.fs ~heat_group:999 (epoch_path t.epoch)

let journal t ~op ~path ~offset ~before_digest ~after_digest =
  let e =
    {
      seq = t.next_seq;
      at = 0.;
      op;
      path;
      offset;
      before_digest;
      after_digest;
    }
  in
  let framed, next_chain = encode_entry e ~chain:t.chain in
  let* () = Lfs.Fs.append t.fs (epoch_path t.epoch) framed in
  t.chain <- next_chain;
  t.next_seq <- t.next_seq + 1;
  t.in_epoch <- t.in_epoch + 1;
  if t.in_epoch >= t.epoch_len then seal_epoch t else Ok ()

let digest_range t path ~offset ~len =
  match Lfs.Fs.read_range t.fs path ~offset ~len with
  | Ok s -> Hash.Sha256.digest_string s
  | Error _ -> Hash.Sha256.zero

(* {1 Audited operations} *)

let create t ?(heat_group = 0) path =
  let* () = Lfs.Fs.create t.fs ~heat_group path in
  journal t ~op:"create" ~path ~offset:0 ~before_digest:Hash.Sha256.zero
    ~after_digest:Hash.Sha256.zero

let write_file t path ~offset data =
  let before = digest_range t path ~offset ~len:(String.length data) in
  let* () = Lfs.Fs.write_file t.fs path ~offset data in
  journal t ~op:"write" ~path ~offset ~before_digest:before
    ~after_digest:(Hash.Sha256.digest_string data)

let unlink t path =
  let before =
    match Lfs.Fs.read_file t.fs path with
    | Ok s -> Hash.Sha256.digest_string s
    | Error _ -> Hash.Sha256.zero
  in
  let* () = Lfs.Fs.unlink t.fs path in
  journal t ~op:"unlink" ~path ~offset:0 ~before_digest:before
    ~after_digest:Hash.Sha256.zero

(* {1 Audit} *)

let history t =
  let rec go chain acc = function
    | [] -> Ok (List.rev acc)
    | n :: rest ->
        let* entries, chain = read_epoch t.fs n ~chain in
        go chain (List.rev_append entries acc) rest
  in
  go genesis [] (epoch_numbers t.fs)

type audit = {
  entries : int;
  sealed_epochs : int;
  open_entries : int;
  chain_intact : bool;
  tampered_epochs : (int * Sero.Tamper.verdict) list;
}

let verify_history t =
  let epochs = epoch_numbers t.fs in
  let chain_result =
    let rec go chain seq total = function
      | [] -> Ok total
      | n :: rest -> (
          match read_epoch t.fs n ~chain with
          | Error _ -> Error "unreadable epoch"
          | Ok (entries, chain) ->
              let rec seqs s = function
                | [] -> Ok s
                | (e : entry) :: es -> if e.seq = s then seqs (s + 1) es else Error "sequence gap"
              in
              let* seq = seqs seq entries in
              go chain seq (total + List.length entries) rest)
    in
    go genesis 0 0 epochs
  in
  let sealed = ref 0 and tampered = ref [] in
  List.iter
    (fun n ->
      match Lfs.Fs.is_heated t.fs (epoch_path n) with
      | Ok true -> (
          incr sealed;
          match Lfs.Fs.verify t.fs (epoch_path n) with
          | Ok verdicts ->
              List.iter
                (fun (_, v) ->
                  if Sero.Tamper.is_tampered v then tampered := (n, v) :: !tampered)
                verdicts
          | Error _ ->
              tampered := (n, Sero.Tamper.Tampered [ Sero.Tamper.Meta_corrupt ]) :: !tampered)
      | Ok false | Error _ -> ())
    epochs;
  match chain_result with
  | Ok total ->
      Ok
        {
          entries = total;
          sealed_epochs = !sealed;
          open_entries = t.in_epoch;
          chain_intact = true;
          tampered_epochs = List.rev !tampered;
        }
  | Error _ ->
      Ok
        {
          entries = t.next_seq;
          sealed_epochs = !sealed;
          open_entries = t.in_epoch;
          chain_intact = false;
          tampered_epochs = List.rev !tampered;
        }
