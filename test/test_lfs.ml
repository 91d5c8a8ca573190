(* The log-structured file system: encodings, file IO against a model,
   directories, cleaner, heat strategies, remount, fsck, the directory
   decode memo and directory allocation gates. *)

let qtest = QCheck_alcotest.to_alcotest
let ok what = function Ok v -> v | Error e -> Alcotest.failf "%s: %s" what e

let make_fs ?(n_blocks = 2048) ?(clustering = true) () =
  let dev =
    Sero.Device.create (Sero.Device.default_config ~n_blocks ~line_exp:3 ())
  in
  let policy = { Lfs.State.default_policy with Lfs.State.clustering } in
  (dev, Lfs.Fs.format ~policy dev)

(* {1 Encodings} *)

let arb_inode =
  QCheck.make
    QCheck.Gen.(
      let* ino = int_range 1 100000 in
      let* kind = oneofl [ Lfs.Enc.Regular; Lfs.Enc.Directory ] in
      let* nlink = int_range 1 100 in
      let* heat_group = int_range 0 1000 in
      let* size = int_range 0 2_000_000 in
      let* generation = int_range 0 100000 in
      let* direct = array_size (return Lfs.Enc.n_direct) (int_range 0 100000) in
      let* single_ind = int_range 0 100000 in
      let* double_ind = int_range 0 100000 in
      return
        {
          Lfs.Enc.ino;
          kind;
          nlink;
          heat_group;
          size;
          mtime = 42.5;
          generation;
          direct;
          single_ind;
          double_ind;
        })

let inode_roundtrip =
  QCheck.Test.make ~name:"inode encode/decode roundtrip" ~count:200 arb_inode
    (fun i ->
      match Lfs.Enc.decode_inode (Lfs.Enc.encode_inode i) with
      | Some j -> i = j
      | None -> false)

let arb_dirents =
  QCheck.(
    small_list
      (map
         (fun (name, ino, dir) ->
           {
             Lfs.Enc.name = "f" ^ String.map (fun c -> Char.chr (97 + (Char.code c mod 26))) name;
             entry_ino = 1 + (ino mod 1000);
             entry_kind = (if dir then Lfs.Enc.Directory else Lfs.Enc.Regular);
           })
         (triple (string_of_size Gen.(0 -- 8)) small_nat bool)))

let dirents_roundtrip =
  QCheck.Test.make ~name:"dirent list roundtrip" ~count:200 arb_dirents
    (fun es ->
      let es = List.filteri (fun i _ -> i < 15) es in
      match Lfs.Enc.pack_dirents es with
      | Some [ (payload, _) ] -> Lfs.Enc.decode_dirents payload = Some es
      | Some _ | None -> false)

let arb_owner =
  QCheck.make
    QCheck.Gen.(
      oneof
        [
          return Lfs.Enc.Unused;
          return Lfs.Enc.Summary_block;
          (let* o_ino = int_range 1 9999 in
           let* block_index = int_range 0 4000 in
           return (Lfs.Enc.Data_of { o_ino; block_index }));
          (let* ino = int_range 1 9999 in
           return (Lfs.Enc.Inode_of ino));
          (let* o_ino = int_range 1 9999 in
           let* slot = int_range (-2) 60 in
           return (Lfs.Enc.Indirect_of { o_ino; slot }));
        ])

let summary_roundtrip =
  QCheck.Test.make ~name:"segment summary roundtrip" ~count:200
    (QCheck.array_of_size (QCheck.Gen.return 28) arb_owner)
    (fun owners ->
      let s = { Lfs.Enc.seg_index = 17; owners } in
      match Lfs.Enc.decode_summary (Lfs.Enc.encode_summary s) with
      | Some got -> got.Lfs.Enc.seg_index = 17 && got.Lfs.Enc.owners = owners
      | None -> false)

let checkpoint_roundtrip =
  QCheck.Test.make ~name:"checkpoint roundtrip" ~count:100
    QCheck.(pair (small_list (pair (int_range 1 999) (int_range 1 99999))) small_nat)
    (fun (imap, seq) ->
      let imap = List.sort_uniq compare imap in
      let segments =
        Array.init 8 (fun i ->
            {
              Lfs.Enc.state =
                List.nth
                  [ Lfs.Enc.Seg_free; Lfs.Enc.Seg_open; Lfs.Enc.Seg_closed; Lfs.Enc.Seg_heated ]
                  (i mod 4);
              live_blocks = i * 3;
              seg_group = i;
              age = 100 - i;
            })
      in
      let c = { Lfs.Enc.seq; timestamp = 9.75; next_ino = 42; imap; segments } in
      match Lfs.Enc.decode_checkpoint (Lfs.Enc.encode_checkpoint c) with
      | Some got -> got = c
      | None -> false)

let pointer_roundtrip =
  QCheck.Test.make ~name:"pointer block roundtrip" ~count:200
    (QCheck.array_of_size (QCheck.Gen.return Lfs.Enc.pointers_per_indirect)
       (QCheck.int_range 0 1_000_000))
    (fun ptrs ->
      match Lfs.Enc.decode_pointer_block (Lfs.Enc.encode_pointer_block ptrs) with
      | Some got -> got = ptrs
      | None -> false)

let enc_cases =
  [
    Alcotest.test_case "garbage never decodes" `Quick (fun () ->
        Alcotest.(check bool) "inode" true (Lfs.Enc.decode_inode (String.make 512 'q') = None);
        Alcotest.(check bool) "dirents" true (Lfs.Enc.decode_dirents (String.make 512 'q') = None);
        Alcotest.(check bool) "summary" true (Lfs.Enc.decode_summary (String.make 512 'q') = None);
        Alcotest.(check bool) "checkpoint" true (Lfs.Enc.decode_checkpoint (String.make 512 'q') = None));
  ]

(* {1 Directory packing}

   The packer [Dirops.store] had before {!Lfs.Enc.pack_dirents}, kept as
   the oracle: it re-encodes the growing block through Binio once per
   entry to ask whether one more fits, then pads each block to the
   payload size. *)

module Dir_oracle = struct
  let encode es =
    let w = Codec.Binio.W.create () in
    Codec.Binio.W.u16 w 0x4452;
    Codec.Binio.W.u16 w (List.length es);
    List.iter
      (fun e ->
        Codec.Binio.W.u32 w e.Lfs.Enc.entry_ino;
        Codec.Binio.W.u8 w
          (match e.Lfs.Enc.entry_kind with
          | Lfs.Enc.Regular -> 0
          | Lfs.Enc.Directory -> 1);
        Codec.Binio.W.str w e.Lfs.Enc.name)
      es;
    Codec.Binio.W.contents w

  let fits es = String.length (encode es) <= 512

  (* [None] where the old [store] refused the list. *)
  let pack es =
    let blocks = ref [] and current = ref [] in
    let flush_current () =
      if !current <> [] || !blocks = [] then begin
        blocks := List.rev !current :: !blocks;
        current := []
      end
    in
    match
      List.iter
        (fun e ->
          if fits (List.rev (e :: !current)) then current := e :: !current
          else begin
            flush_current ();
            if not (fits [ e ]) then raise Exit;
            current := [ e ]
          end)
        es
    with
    | exception Exit -> None
    | () ->
        flush_current ();
        Some
          (List.rev_map
             (fun es ->
               let p = encode es in
               (p ^ String.make (512 - String.length p) '\x00', es))
             !blocks)
end

(* 0-300 entries with names of 1-499 bytes, weighted toward the names
   that fill the current block to exactly 512 bytes or overshoot it by
   one (the greedy boundary), and one list in five carrying a 500-520
   byte name no block can hold. *)
let arb_dir_entries =
  let open QCheck.Gen in
  let entry len =
    let* name = string_size ~gen:(char_range 'a' 'z') (return len) in
    let* ino = int_range 1 100_000 in
    let* dir = bool in
    return
      {
        Lfs.Enc.name;
        entry_ino = ino;
        entry_kind = (if dir then Lfs.Enc.Directory else Lfs.Enc.Regular);
      }
  in
  let pick_or_any len =
    if len >= 1 && len <= 499 then return len else int_range 1 499
  in
  let rec go k used acc =
    if k = 0 then return (List.rev acc)
    else
      let exact = 512 - used - 9 in
      let* len =
        frequency
          [
            (3, pick_or_any exact);
            (2, pick_or_any (exact + 1));
            (3, int_range 1 20);
            (3, int_range 1 499);
          ]
      in
      let* e = entry len in
      let size = 9 + len in
      go (k - 1) (if used + size <= 512 then used + size else 4 + size) (e :: acc)
  in
  let gen =
    let* n = int_range 0 300 in
    let* es = go n 4 [] in
    let* long = int_range 0 4 in
    if long > 0 then return es
    else
      let* pos = int_range 0 (List.length es) in
      let* len = int_range 500 520 in
      let* e = entry len in
      return
        (List.filteri (fun i _ -> i < pos) es
        @ (e :: List.filteri (fun i _ -> i >= pos) es))
  in
  QCheck.make
    ~print:(fun es ->
      String.concat ","
        (List.map (fun e -> string_of_int (String.length e.Lfs.Enc.name)) es))
    gen

let pack_matches_oracle =
  QCheck.Test.make ~name:"pack_dirents == the old packer: blocks and refusals"
    ~count:300 arb_dir_entries (fun es ->
      Lfs.Enc.pack_dirents es = Dir_oracle.pack es)

(* The directory memo is seeded with each written block's entries, which
   is exact only if the padded block decodes back to them. *)
let packed_blocks_decode =
  QCheck.Test.make ~name:"a packed block padded to 512 bytes decodes to its entries"
    ~count:300 arb_dir_entries (fun es ->
      match Lfs.Enc.pack_dirents es with
      | None -> true
      | Some blocks ->
          List.for_all
            (fun (payload, block_es) ->
              String.length payload = 512
              && Lfs.Enc.decode_dirents payload = Some block_es)
            blocks
          && List.concat_map snd blocks = es)

(* {1 File IO against a reference model} *)

(* Model: a growable byte buffer with the same write/read semantics. *)
module Model = struct
  type t = { mutable data : Bytes.t; mutable size : int }

  let create () = { data = Bytes.create 0; size = 0 }

  let ensure t n =
    if n > Bytes.length t.data then begin
      let bigger = Bytes.make (max n (2 * Bytes.length t.data)) '\x00' in
      Bytes.blit t.data 0 bigger 0 t.size;
      t.data <- bigger
    end

  let write t ~offset s =
    ensure t (offset + String.length s);
    Bytes.blit_string s 0 t.data offset (String.length s);
    t.size <- max t.size (offset + String.length s)

  let read t ~offset ~len =
    let len = max 0 (min len (t.size - offset)) in
    Bytes.sub_string t.data offset len
end

let file_io_model =
  QCheck.Test.make ~name:"random writes match a byte-buffer model" ~count:30
    QCheck.(
      small_list (pair (int_range 0 8000) (string_of_size Gen.(1 -- 900))))
    (fun ops ->
      let _, fs = make_fs () in
      (match Lfs.Fs.create fs "/f" with Ok () -> () | Error e -> failwith e);
      let model = Model.create () in
      List.for_all
        (fun (offset, data) ->
          match Lfs.Fs.write_file fs "/f" ~offset data with
          | Error _ -> false
          | Ok () ->
              Model.write model ~offset data;
              let got =
                match Lfs.Fs.read_file fs "/f" with
                | Ok s -> s
                | Error e -> failwith e
              in
              String.equal got (Model.read model ~offset:0 ~len:model.Model.size))
        ops)

let file_cases =
  [
    Alcotest.test_case "sparse file: holes read as zeros" `Quick (fun () ->
        let _, fs = make_fs () in
        ok "create" (Lfs.Fs.create fs "/sparse");
        ok "write" (Lfs.Fs.write_file fs "/sparse" ~offset:5000 "tail");
        let s = ok "read" (Lfs.Fs.read_file fs "/sparse") in
        Alcotest.(check int) "size" 5004 (String.length s);
        Alcotest.(check bool) "hole zeroed" true
          (String.for_all (fun c -> c = '\x00') (String.sub s 0 5000));
        Alcotest.(check string) "tail" "tail" (String.sub s 5000 4));
    Alcotest.test_case "double-indirect file (100 KB) roundtrips" `Quick
      (fun () ->
        let _, fs = make_fs ~n_blocks:4096 () in
        ok "create" (Lfs.Fs.create fs "/big");
        let data = String.init 102400 (fun i -> Char.chr (i mod 251)) in
        ok "write" (Lfs.Fs.write_file fs "/big" ~offset:0 data);
        Lfs.Fs.sync fs;
        let got = ok "read" (Lfs.Fs.read_file fs "/big") in
        Alcotest.(check bool) "equal" true (String.equal got data));
    Alcotest.test_case "read past EOF truncates" `Quick (fun () ->
        let _, fs = make_fs () in
        ok "create" (Lfs.Fs.create fs "/s");
        ok "write" (Lfs.Fs.write_file fs "/s" ~offset:0 "abc");
        Alcotest.(check string) "clipped" "bc"
          (ok "read" (Lfs.Fs.read_range fs "/s" ~offset:1 ~len:100)));
    Alcotest.test_case "append grows the file" `Quick (fun () ->
        let _, fs = make_fs () in
        ok "create" (Lfs.Fs.create fs "/log");
        ok "a1" (Lfs.Fs.append fs "/log" "one ");
        ok "a2" (Lfs.Fs.append fs "/log" "two");
        Alcotest.(check string) "contents" "one two" (ok "read" (Lfs.Fs.read_file fs "/log")));
  ]

(* {1 Namespace} *)

let namespace_cases =
  [
    Alcotest.test_case "mkdir / create / readdir / lookup" `Quick (fun () ->
        let _, fs = make_fs () in
        ok "mkdir" (Lfs.Fs.mkdir fs "/a");
        ok "mkdir" (Lfs.Fs.mkdir fs "/a/b");
        ok "create" (Lfs.Fs.create fs "/a/b/f");
        Alcotest.(check bool) "exists" true (Lfs.Fs.exists fs "/a/b/f");
        Alcotest.(check bool) "missing" false (Lfs.Fs.exists fs "/a/b/g");
        let names =
          List.map (fun e -> e.Lfs.Enc.name) (ok "readdir" (Lfs.Fs.readdir fs "/a/b"))
        in
        Alcotest.(check (list string)) "entries" [ "f" ] names);
    Alcotest.test_case "duplicate names refused" `Quick (fun () ->
        let _, fs = make_fs () in
        ok "create" (Lfs.Fs.create fs "/x");
        match Lfs.Fs.create fs "/x" with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "duplicate allowed");
    Alcotest.test_case "unlink frees and removes" `Quick (fun () ->
        let _, fs = make_fs () in
        ok "create" (Lfs.Fs.create fs "/t");
        ok "write" (Lfs.Fs.write_file fs "/t" ~offset:0 (String.make 4096 'x'));
        ok "unlink" (Lfs.Fs.unlink fs "/t");
        Alcotest.(check bool) "gone" false (Lfs.Fs.exists fs "/t"));
    Alcotest.test_case "non-empty directory cannot be removed" `Quick
      (fun () ->
        let _, fs = make_fs () in
        ok "mkdir" (Lfs.Fs.mkdir fs "/d");
        ok "create" (Lfs.Fs.create fs "/d/f");
        match Lfs.Fs.unlink fs "/d" with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "removed non-empty dir");
    Alcotest.test_case "hard links share content; unlink decrements" `Quick
      (fun () ->
        let _, fs = make_fs () in
        ok "create" (Lfs.Fs.create fs "/orig");
        ok "write" (Lfs.Fs.write_file fs "/orig" ~offset:0 "shared");
        ok "link" (Lfs.Fs.link fs "/orig" "/alias");
        Alcotest.(check string) "alias reads" "shared" (ok "read" (Lfs.Fs.read_file fs "/alias"));
        ok "unlink orig" (Lfs.Fs.unlink fs "/orig");
        Alcotest.(check string) "alias survives" "shared"
          (ok "read" (Lfs.Fs.read_file fs "/alias")));
    Alcotest.test_case "large directory spans blocks" `Quick (fun () ->
        let _, fs = make_fs () in
        for i = 0 to 120 do
          ok "create" (Lfs.Fs.create fs (Printf.sprintf "/file-%03d" i))
        done;
        Alcotest.(check int) "all listed" 121
          (List.length (ok "readdir" (Lfs.Fs.readdir fs "/"))));
    Alcotest.test_case "relative and dotted paths rejected" `Quick (fun () ->
        let _, fs = make_fs () in
        (match Lfs.Fs.create fs "relative" with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "relative path accepted");
        match Lfs.Fs.create fs "/a/../b" with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "dotted path accepted");
    (* Before the rollback, each refused call left its fresh inode (and
       mkdir's first directory block) behind: 15 of them grew the inode
       map from 2 to 17 entries at the next sync. *)
    Alcotest.test_case "refused create and mkdir leave no orphan inode" `Quick
      (fun () ->
        let dev, fs = make_fs () in
        ok "create" (Lfs.Fs.create fs "/kept");
        ok "write" (Lfs.Fs.write_file fs "/kept" ~offset:0 "kept");
        Lfs.Fs.sync fs;
        let st = Lfs.Fs.state fs in
        let imap () =
          List.sort compare
            (Hashtbl.fold (fun ino pba acc -> (ino, pba) :: acc) st.Lfs.State.imap [])
        in
        let live () =
          Array.to_list (Array.map (fun s -> s.Lfs.State.live) st.Lfs.State.segs)
        in
        let imap0 = imap () and live0 = live () in
        let next0 = st.Lfs.State.next_ino in
        let long n = "/" ^ String.make n 'n' in
        let refused =
          List.concat
            [
              List.init 4 (fun _ () -> Lfs.Fs.create fs "/kept");
              List.init 4 (fun _ () -> Lfs.Fs.mkdir fs "/kept");
              List.map (fun n () -> Lfs.Fs.create fs (long n)) [ 500; 600; 1000 ];
              List.map (fun n () -> Lfs.Fs.mkdir fs (long n)) [ 500; 501; 700; 1000 ];
            ]
        in
        Alcotest.(check int) "15 calls" 15 (List.length refused);
        List.iter
          (fun call ->
            match call () with
            | Error _ -> ()
            | Ok () -> Alcotest.fail "a duplicate or over-long name was accepted")
          refused;
        Alcotest.(check (list (pair int int))) "inode map" imap0 (imap ());
        Alcotest.(check (list int)) "segment live counters" live0 (live ());
        Alcotest.(check int) "next inode number" next0 st.Lfs.State.next_ino;
        Lfs.Fs.sync fs;
        (match Lfs.State.read_latest_checkpoint dev st.Lfs.State.policy with
        | None -> Alcotest.fail "no checkpoint"
        | Some cp ->
            Alcotest.(check (list (pair int int))) "checkpointed inode map" imap0
              cp.Lfs.Enc.imap;
            Alcotest.(check int) "checkpointed next inode" next0 cp.Lfs.Enc.next_ino;
            Alcotest.(check (list int)) "checkpointed live counters" live0
              (Array.to_list
                 (Array.map (fun r -> r.Lfs.Enc.live_blocks) cp.Lfs.Enc.segments)));
        Alcotest.(check (list string)) "namespace" [ "kept" ]
          (List.map (fun e -> e.Lfs.Enc.name) (ok "readdir" (Lfs.Fs.readdir fs "/")));
        (* The file system stays usable, and a remount sees the same. *)
        ok "mkdir" (Lfs.Fs.mkdir fs "/d");
        ok "create" (Lfs.Fs.create fs "/d/x");
        Lfs.Fs.sync fs;
        let fs2 = ok "mount" (Lfs.Fs.mount dev) in
        Alcotest.(check bool) "/d/x after remount" true (Lfs.Fs.exists fs2 "/d/x");
        Alcotest.(check string) "/kept after remount" "kept"
          (ok "read" (Lfs.Fs.read_file fs2 "/kept")));
  ]

(* {1 Cleaner} *)

let cleaner_cases =
  [
    Alcotest.test_case "churn forces cleaning and space survives" `Quick
      (fun () ->
        let _, fs = make_fs ~n_blocks:512 () in
        (* Interleave long-lived blocks with churn in the same segments:
           no segment ever becomes fully dead (which would self-free
           without copying), so survival requires the cleaner to copy
           the keepers out. *)
        ok "create keep" (Lfs.Fs.create fs "/keep");
        ok "create churn" (Lfs.Fs.create fs "/churn");
        for round = 0 to 60 do
          ok "keep"
            (Lfs.Fs.write_file fs "/keep" ~offset:(512 * (round mod 24))
               (String.make 512 (Char.chr (97 + (round mod 26)))));
          ok "churn"
            (Lfs.Fs.write_file fs "/churn" ~offset:0
               (String.make 6144 (Char.chr (65 + (round mod 26)))))
        done;
        let s = Lfs.Fs.stats fs in
        Alcotest.(check bool) "cleaner ran" true
          (s.Lfs.Fs.metrics.Lfs.State.segments_cleaned > 0);
        Alcotest.(check bool) "cleaner copied live blocks" true
          (s.Lfs.Fs.metrics.Lfs.State.cleaner_copies > 0);
        Alcotest.(check string) "churn data intact"
          (String.make 10 (Char.chr (65 + (60 mod 26))))
          (String.sub (ok "read" (Lfs.Fs.read_file fs "/churn")) 0 10);
        (* Block 0 of /keep was last rewritten at round 48. *)
        Alcotest.(check string) "keeper data intact"
          (String.make 10 (Char.chr (97 + (48 mod 26))))
          (String.sub (ok "read" (Lfs.Fs.read_file fs "/keep")) 0 10));
    Alcotest.test_case "cleaner skips heated segments" `Quick (fun () ->
        let dev, fs = make_fs ~n_blocks:512 () in
        ok "create" (Lfs.Fs.create fs "/frozen");
        ok "write" (Lfs.Fs.write_file fs "/frozen" ~offset:0 (String.make 4096 'f'));
        let _ = ok "heat" (Lfs.Fs.heat fs "/frozen") in
        let st = Lfs.Fs.state fs in
        let heated_segs =
          List.sort_uniq compare
            (List.map
               (fun l -> l / st.Lfs.State.policy.Lfs.State.segment_lines)
               (Lfs.Heat.file_lines st
                  ~ino:
                    (match Lfs.Dirops.lookup st "/frozen" with
                    | Some (i, _) -> i
                    | None -> Alcotest.fail "lost")))
        in
        ok "create" (Lfs.Fs.create fs "/churn");
        for round = 0 to 60 do
          ok "write"
            (Lfs.Fs.write_file fs "/churn" ~offset:0
               (String.make 8192 (Char.chr (97 + (round mod 26)))))
        done;
        (* The heated file must be untouched and verified. *)
        List.iter
          (fun (_, v) ->
            Alcotest.(check bool) "intact" true
              (Sero.Tamper.equal_verdict v Sero.Tamper.Intact))
          (ok "verify" (Lfs.Fs.verify fs "/frozen"));
        List.iter
          (fun seg ->
            Alcotest.(check bool) "still heated state" true
              (Lfs.Enc.equal_seg_state st.Lfs.State.segs.(seg).Lfs.State.state
                 Lfs.Enc.Seg_heated))
          heated_segs;
        ignore dev);
    Alcotest.test_case "out of space reported, not crashed" `Quick (fun () ->
        let _, fs = make_fs ~n_blocks:256 () in
        ok "create" (Lfs.Fs.create fs "/fill");
        let rec fill i =
          if i > 400 then None
          else
            match
              Lfs.Fs.write_file fs "/fill" ~offset:(i * 512) (String.make 512 'z')
            with
            | Ok () -> fill (i + 1)
            | Error e -> Some e
        in
        match fill 0 with
        | Some e -> Alcotest.(check string) "message" "out of space" e
        | None -> Alcotest.fail "never filled up");
  ]

(* {1 Heat strategies} *)

let heat_cases =
  [
    Alcotest.test_case "clustered file heats in place (no copies)" `Quick
      (fun () ->
        let _, fs = make_fs ~clustering:true () in
        ok "create" (Lfs.Fs.create fs ~heat_group:5 "/solo");
        ok "write" (Lfs.Fs.write_file fs "/solo" ~offset:0 (String.make 8192 's'));
        let r = ok "heat" (Lfs.Fs.heat fs "/solo") in
        Alcotest.(check int) "no relocation" 0 r.Lfs.Heat.relocated_blocks;
        Alcotest.(check bool) "heated" true (ok "is" (Lfs.Fs.is_heated fs "/solo")));
    Alcotest.test_case "interleaved naive allocation forces relocation" `Quick
      (fun () ->
        let _, fs = make_fs ~clustering:false () in
        ok "c1" (Lfs.Fs.create fs ~heat_group:1 "/a");
        ok "c2" (Lfs.Fs.create fs ~heat_group:2 "/b");
        for i = 0 to 15 do
          ok "wa" (Lfs.Fs.write_file fs "/a" ~offset:(i * 512) (String.make 512 'a'));
          ok "wb" (Lfs.Fs.write_file fs "/b" ~offset:(i * 512) (String.make 512 'b'))
        done;
        Lfs.Fs.sync fs;
        let r = ok "heat" (Lfs.Fs.heat fs "/a") in
        Alcotest.(check bool) "relocated" true (r.Lfs.Heat.relocated_blocks > 0);
        Alcotest.(check bool) "file intact after relocation" true
          (String.equal
             (ok "read" (Lfs.Fs.read_file fs "/a"))
             (String.make 8192 'a'));
        List.iter
          (fun (_, v) ->
            Alcotest.(check bool) "intact" true
              (Sero.Tamper.equal_verdict v Sero.Tamper.Intact))
          (ok "verify" (Lfs.Fs.verify fs "/a")));
    Alcotest.test_case "Never_relocate freezes bystanders (collateral)" `Quick
      (fun () ->
        let _, fs = make_fs ~clustering:false () in
        ok "c1" (Lfs.Fs.create fs ~heat_group:1 "/a");
        ok "c2" (Lfs.Fs.create fs ~heat_group:2 "/b");
        for i = 0 to 7 do
          ok "wa" (Lfs.Fs.write_file fs "/a" ~offset:(i * 512) (String.make 512 'a'));
          ok "wb" (Lfs.Fs.write_file fs "/b" ~offset:(i * 512) (String.make 512 'b'))
        done;
        Lfs.Fs.sync fs;
        let r = ok "heat" (Lfs.Fs.heat fs ~strategy:Lfs.Heat.Never_relocate "/a") in
        Alcotest.(check bool) "collateral counted" true (r.Lfs.Heat.collateral_frozen > 0);
        (* The bystander is now read-only too. *)
        match Lfs.Fs.write_file fs "/b" ~offset:0 "x" with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "bystander writable");
    Alcotest.test_case "heating an empty file fails" `Quick (fun () ->
        let _, fs = make_fs () in
        ok "create" (Lfs.Fs.create fs "/empty");
        match Lfs.Fs.heat fs "/empty" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "heated an empty file");
    Alcotest.test_case "double heat refused" `Quick (fun () ->
        let _, fs = make_fs () in
        ok "create" (Lfs.Fs.create fs "/once");
        ok "write" (Lfs.Fs.write_file fs "/once" ~offset:0 "data");
        let _ = ok "heat" (Lfs.Fs.heat fs "/once") in
        match Lfs.Fs.heat fs "/once" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "double heat");
  ]

(* {1 Remount and fsck} *)

(* Endurance read-only, set the way an image load restores it: remap
   table, spare pool and migrations stay as they are. *)
let go_read_only dev =
  let n_lines = Sero.Layout.n_lines (Sero.Device.layout dev) in
  Sero.Device.restore_endurance dev
    ~phys_line:
      (Array.init n_lines (fun line -> Sero.Device.phys_of_line dev ~line))
    ~spare_pool:(Sero.Device.spare_pool dev)
    ~migrations:(Sero.Device.migrations dev) ~state:Sero.Device.Read_only

let persistence_cases =
  [
    Alcotest.test_case "a read-only device refuses writes, cached or not"
      `Quick (fun () ->
        let story ~cached =
          let dev, fs = make_fs ~n_blocks:1024 () in
          ok "create" (Lfs.Fs.create fs "/f");
          ok "write" (Lfs.Fs.write_file fs "/f" ~offset:0 "before");
          Lfs.Fs.sync fs;
          if cached then
            Lfs.Fs.attach_cache fs
              (Sero.Bcache.create ~capacity:64
                 (Sero.Queue.create (Sim.Des.create ()) dev));
          go_read_only dev;
          let w = Lfs.Fs.write_file fs "/f" ~offset:0 "after!" in
          let synced =
            match Lfs.Fs.sync fs with
            | () -> "returned"
            | exception Lfs.State.Read_only_device -> "Read_only_device"
          in
          (w, synced, Lfs.Fs.read_file fs "/f")
        in
        let result = Alcotest.(result string string) in
        List.iter
          (fun cached ->
            let what = if cached then "cached" else "uncached" in
            let w, synced, r = story ~cached in
            Alcotest.(check (result unit string))
              (what ^ " write") (Error "device is read-only (endurance)") w;
            Alcotest.(check string) (what ^ " sync") "Read_only_device" synced;
            Alcotest.check result (what ^ " read") (Ok "before") r)
          [ false; true ]);
    Alcotest.test_case "remount preserves namespace and data" `Quick (fun () ->
        let dev, fs = make_fs () in
        ok "mkdir" (Lfs.Fs.mkdir fs "/dir");
        ok "create" (Lfs.Fs.create fs "/dir/file");
        ok "write" (Lfs.Fs.write_file fs "/dir/file" ~offset:0 "survives remount");
        Lfs.Fs.sync fs;
        let fs2 = ok "mount" (Lfs.Fs.mount dev) in
        Alcotest.(check string) "data" "survives remount"
          (ok "read" (Lfs.Fs.read_file fs2 "/dir/file")));
    Alcotest.test_case "remount after heat keeps heated state" `Quick
      (fun () ->
        let dev, fs = make_fs () in
        ok "create" (Lfs.Fs.create fs "/h");
        ok "write" (Lfs.Fs.write_file fs "/h" ~offset:0 "frozen");
        let _ = ok "heat" (Lfs.Fs.heat fs "/h") in
        Lfs.Fs.sync fs;
        let fs2 = ok "mount" (Lfs.Fs.mount dev) in
        Alcotest.(check bool) "still heated" true (ok "is" (Lfs.Fs.is_heated fs2 "/h"));
        match Lfs.Fs.write_file fs2 "/h" ~offset:0 "y" with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "heated file writable after remount");
    Alcotest.test_case "mount without checkpoint fails cleanly" `Quick
      (fun () ->
        let dev =
          Sero.Device.create (Sero.Device.default_config ~n_blocks:256 ~line_exp:3 ())
        in
        match Lfs.Fs.mount dev with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "mounted an unformatted device");
    Alcotest.test_case "cleaner works after remount (summaries reload)" `Quick
      (fun () ->
        let dev, fs = make_fs ~n_blocks:512 () in
        ok "create" (Lfs.Fs.create fs "/churn");
        for i = 0 to 30 do
          ok "w" (Lfs.Fs.write_file fs "/churn" ~offset:0 (String.make 4096 (Char.chr (65 + (i mod 26)))))
        done;
        Lfs.Fs.sync fs;
        let fs2 = ok "mount" (Lfs.Fs.mount dev) in
        for i = 0 to 30 do
          ok "w" (Lfs.Fs.write_file fs2 "/churn" ~offset:0 (String.make 4096 (Char.chr (97 + (i mod 26)))))
        done;
        Alcotest.(check bool) "alive" true
          (String.length (ok "read" (Lfs.Fs.read_file fs2 "/churn")) = 4096));
    Alcotest.test_case "fsck recovers heated files after total wipeout" `Quick
      (fun () ->
        let dev, fs = make_fs () in
        ok "create" (Lfs.Fs.create fs ~heat_group:1 "/precious");
        let body = String.init 3000 (fun i -> Char.chr (32 + (i mod 90))) in
        ok "write" (Lfs.Fs.write_file fs "/precious" ~offset:0 body);
        let _ = ok "heat" (Lfs.Fs.heat fs "/precious") in
        Lfs.Fs.sync fs;
        (* Destroy namespace AND checkpoints. *)
        let lay = Sero.Device.layout dev in
        for line = 0 to 7 do
          List.iter
            (fun pba -> Sero.Device.unsafe_write_block dev ~pba (String.make 512 '\x00'))
            (Sero.Layout.data_blocks_of_line lay line)
        done;
        let report = Lfs.Fsck.run dev in
        Alcotest.(check bool) "file recovered" true
          (List.exists
             (fun r ->
               r.Lfs.Fsck.r_complete
               && r.Lfs.Fsck.r_size = 3000
               &&
               match r.Lfs.Fsck.r_content_sha256 with
               | Some d -> Hash.Sha256.equal d (Hash.Sha256.digest_string body)
               | None -> false)
             report.Lfs.Fsck.recovered_files));
  ]

(* {1 Bounded metadata caches}

   The inode and pointer caches share the [Sim.Lru] core with the block
   buffer cache: a soft capacity that evicts clean entries LRU-first
   while dirty (pinned) ones survive until flushed. *)

let cache_bound_cases =
  [
    Alcotest.test_case "icache stays within its soft bound" `Quick (fun () ->
        let dev =
          Sero.Device.create
            (Sero.Device.default_config ~n_blocks:2048 ~line_exp:3 ())
        in
        let fs = Lfs.Fs.format ~icache_cap:8 ~pcache_cap:8 dev in
        for i = 0 to 39 do
          ok "create" (Lfs.Fs.create fs (Printf.sprintf "/f%d" i))
        done;
        Lfs.Fs.sync fs;
        (* All inodes are clean after sync; touching one more forces the
           shrink walk, after which the soft bound holds exactly. *)
        Alcotest.(check bool)
          "exists" true
          (Lfs.Fs.exists fs "/f0");
        let st = Lfs.Fs.state fs in
        Alcotest.(check bool)
          "icache bounded" true
          (Sim.Lru.length st.Lfs.State.icache <= 8);
        Alcotest.(check bool)
          "pcache bounded" true
          (Sim.Lru.length st.Lfs.State.pcache <= 8);
        (* Eviction is not loss: every file remains reachable, its
           inode reloaded from the medium on demand. *)
        for i = 0 to 39 do
          Alcotest.(check bool)
            "reachable after eviction" true
            (Lfs.Fs.exists fs (Printf.sprintf "/f%d" i))
        done);
    Alcotest.test_case "dirty inodes are pinned past the bound" `Quick
      (fun () ->
        let dev =
          Sero.Device.create
            (Sero.Device.default_config ~n_blocks:2048 ~line_exp:3 ())
        in
        let fs = Lfs.Fs.format ~icache_cap:4 dev in
        (* Without a sync, every created inode is dirty: the cache must
           hold all of them even though the capacity is 4. *)
        for i = 0 to 19 do
          ok "create" (Lfs.Fs.create fs (Printf.sprintf "/d%d" i))
        done;
        let st = Lfs.Fs.state fs in
        Alcotest.(check bool)
          "dirty entries exceed the soft bound" true
          (Sim.Lru.length st.Lfs.State.icache > 4);
        Lfs.Fs.sync fs;
        for i = 0 to 19 do
          Alcotest.(check bool)
            "intact after flush" true
            (Lfs.Fs.exists fs (Printf.sprintf "/d%d" i))
        done);
  ]

(* {1 Directory memo}

   [Dirops] keeps each directory block's payload and decoded entries and
   reuses them only for a byte-equal payload.  Each case changes blocks
   under it and checks that [lookup] and [readdir] agree with a fresh
   mount of a snapshot, with and without a buffer cache. *)

let memo_fs ~cached =
  let dev, fs = make_fs () in
  if cached then begin
    let q = Sero.Queue.create (Sim.Des.create ()) dev in
    Lfs.Fs.attach_cache fs (Sero.Bcache.create ~capacity:64 q)
  end;
  (dev, fs)

let root_names n = List.init n (fun i -> Printf.sprintf "entry-%03d" i)

let populate fs names =
  List.iter (fun name -> ok "create" (Lfs.Fs.create fs ("/" ^ name))) names

(* What a file system says about the root and a set of paths. *)
let view fs paths =
  ( Lfs.Fs.readdir fs "/",
    List.map (fun p -> Lfs.Dirops.lookup (Lfs.Fs.state fs) p) paths )

let agrees_with_fresh_mount what dev fs paths =
  Lfs.Fs.sync fs;
  let fresh = ok "mount" (Lfs.Fs.mount (Sero.Device.clone dev)) in
  let live = view fs paths in
  if live <> view fresh paths then
    Alcotest.failf "%s: the live namespace differs from a fresh mount" what;
  live

let root_block_pba fs bi = (Lfs.File.pointers (Lfs.Fs.state fs) Lfs.Dirops.root_ino).(bi)

let memo_case name f =
  List.map
    (fun cached ->
      Alcotest.test_case
        (Printf.sprintf "%s (%s)" name (if cached then "cached" else "uncached"))
        `Quick
        (fun () -> f ~cached))
    [ false; true ]

let memo_cases =
  List.concat
    [
      memo_case "root block rewritten under the file system" (fun ~cached ->
          let dev, fs = memo_fs ~cached in
          let names = root_names 60 in
          populate fs names;
          let paths = List.map (( ^ ) "/") names in
          ignore (agrees_with_fresh_mount "before" dev fs paths);
          let st = Lfs.Fs.state fs in
          let pba = root_block_pba fs 1 in
          let old_es =
            match Lfs.Enc.decode_dirents (Lfs.State.read_payload st ~pba) with
            | Some es -> es
            | None -> Alcotest.fail "root block 1 does not decode"
          in
          (* Upper-cased names: other entries of the same lengths. *)
          let renamed =
            List.map
              (fun (e : Lfs.Enc.dirent) ->
                { e with Lfs.Enc.name = String.map Char.uppercase_ascii e.Lfs.Enc.name })
              old_es
          in
          let payload =
            match Lfs.Enc.pack_dirents renamed with
            | Some [ (payload, _) ] -> payload
            | Some _ | None -> Alcotest.fail "the renamed entries need one block"
          in
          Sero.Device.unsafe_write_block dev ~pba payload;
          let paths = paths @ List.map (fun e -> "/" ^ e.Lfs.Enc.name) renamed in
          (match agrees_with_fresh_mount "renamed" dev fs paths with
          | Ok es, _ ->
              Alcotest.(check bool) "the renamed entries are listed" true
                (List.for_all (fun r -> List.mem r es) renamed)
          | Error e, _ -> Alcotest.failf "readdir: %s" e);
          Sero.Device.unsafe_write_block dev ~pba (String.make 512 'q');
          match agrees_with_fresh_mount "garbage" dev fs paths with
          | Error _, lookups ->
              Alcotest.(check bool) "no lookup resolves" true
                (List.for_all Option.is_none lookups)
          | Ok _, _ -> Alcotest.fail "a garbage root block was listed");
      memo_case "directory block moved by the cleaner" (fun ~cached ->
          let dev, fs = memo_fs ~cached in
          let names = root_names 60 in
          populate fs names;
          let paths = List.map (( ^ ) "/") names in
          ignore (agrees_with_fresh_mount "before" dev fs paths);
          let st = Lfs.Fs.state fs in
          let pba = root_block_pba fs 0 in
          ignore (Lfs.Cleaner.clean_segment st (Lfs.State.seg_of_pba st pba));
          Alcotest.(check bool) "root block 0 moved" true (root_block_pba fs 0 <> pba);
          ok "create" (Lfs.Fs.create fs "/after-clean");
          ignore
            (agrees_with_fresh_mount "after cleaning" dev fs ("/after-clean" :: paths)));
      memo_case "directory that shrank" (fun ~cached ->
          let dev, fs = memo_fs ~cached in
          let names = root_names 60 in
          populate fs names;
          let paths = List.map (( ^ ) "/") names in
          ignore (agrees_with_fresh_mount "before" dev fs paths);
          let st = Lfs.Fs.state fs in
          let blocks () =
            Lfs.File.block_count (Lfs.State.load_inode st Lfs.Dirops.root_ino)
          in
          let before = blocks () in
          List.iteri
            (fun i p -> if i >= 5 then ok "unlink" (Lfs.Fs.unlink fs p))
            paths;
          Alcotest.(check bool) "the root shrank" true (blocks () < before);
          Alcotest.(check int) "memo slots follow the block count" (blocks ())
            (Array.length (Hashtbl.find st.Lfs.State.dir_memo Lfs.Dirops.root_ino));
          ignore (agrees_with_fresh_mount "shrunk" dev fs paths);
          populate fs [ "regrown-a"; "regrown-b" ];
          ignore
            (agrees_with_fresh_mount "regrown" dev fs
               ("/regrown-a" :: "/regrown-b" :: paths));
          ok "mkdir" (Lfs.Fs.mkdir fs "/gone");
          let ino =
            match Lfs.Dirops.lookup st "/gone" with
            | Some (ino, _) -> ino
            | None -> Alcotest.fail "/gone missing"
          in
          ignore (ok "readdir" (Lfs.Fs.readdir fs "/gone"));
          ok "rmdir" (Lfs.Fs.unlink fs "/gone");
          Alcotest.(check bool) "a deleted directory leaves the memo" false
            (Hashtbl.mem st.Lfs.State.dir_memo ino));
      memo_case "remount" (fun ~cached ->
          let dev, fs = memo_fs ~cached in
          let names = root_names 40 in
          populate fs names;
          ok "mkdir" (Lfs.Fs.mkdir fs "/sub");
          ok "create" (Lfs.Fs.create fs "/sub/leaf");
          let paths = "/sub/leaf" :: List.map (( ^ ) "/") names in
          ignore (agrees_with_fresh_mount "before" dev fs paths);
          Lfs.Fs.sync fs;
          let fs = ok "mount" (Lfs.Fs.mount dev) in
          if cached then
            Lfs.Fs.attach_cache fs
              (Sero.Bcache.create ~capacity:64
                 (Sero.Queue.create (Sim.Des.create ()) dev));
          ignore (agrees_with_fresh_mount "remounted" dev fs paths);
          ok "unlink" (Lfs.Fs.unlink fs "/entry-000");
          ok "create" (Lfs.Fs.create fs "/sub/leaf-2");
          ignore
            (agrees_with_fresh_mount "changed after remount" dev fs
               ("/sub/leaf-2" :: paths)));
    ]

(* {1 Directory allocation}

   Words allocated by single operations in a 200-file root, on a
   4,096-block device with no queue or cache.  Before directory blocks
   were packed by running size and decoded through the memo (OCaml
   5.1.1): create 49,529, lookup 6,422, unlink 55,779 words. *)

let dir_alloc_cases =
  [
    Alcotest.test_case "create, lookup and unlink in a 200-file root" `Quick
      (fun () ->
        let dev =
          Sero.Device.create
            (Sero.Device.default_config ~n_blocks:4096 ~line_exp:3 ())
        in
        let fs = Lfs.Fs.format dev in
        for i = 0 to 199 do
          ok "create" (Lfs.Fs.create fs (Printf.sprintf "/archive-%05d" i))
        done;
        Lfs.Fs.sync fs;
        let words f =
          let before = Gc.minor_words () in
          f ();
          Gc.minor_words () -. before
        in
        let gate what limit w =
          if w >= limit then
            Alcotest.failf "%s allocated %.0f words (gate %.0f)" what w limit
        in
        gate "create" 16_000.
          (words (fun () -> ok "create" (Lfs.Fs.create fs "/archive-new")));
        gate "lookup" 3_500.
          (words (fun () -> ignore (ok "size" (Lfs.Fs.file_size fs "/archive-00100"))));
        gate "unlink" 20_000.
          (words (fun () -> ok "unlink" (Lfs.Fs.unlink fs "/archive-00100")));
        Alcotest.(check int) "entries" 200
          (List.length (ok "readdir" (Lfs.Fs.readdir fs "/"))));
  ]

let () =
  Alcotest.run "lfs"
    [
      ("caches", cache_bound_cases);
      ( "encodings",
        enc_cases
        @ List.map qtest
            [ inode_roundtrip; dirents_roundtrip; summary_roundtrip;
              checkpoint_roundtrip; pointer_roundtrip; pack_matches_oracle;
              packed_blocks_decode ] );
      ("file-io", file_cases @ [ qtest file_io_model ]);
      ("namespace", namespace_cases);
      ("cleaner", cleaner_cases);
      ("heat", heat_cases);
      ("persistence", persistence_cases);
      ("dir-memo", memo_cases);
      ("dir-alloc", dir_alloc_cases);
    ]
