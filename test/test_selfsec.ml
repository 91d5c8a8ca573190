(* Self-securing storage wrapper (Section 8 building block). *)

let ok what = function Ok v -> v | Error e -> Alcotest.failf "%s: %s" what e

let make () =
  let dev =
    Sero.Device.create (Sero.Device.default_config ~n_blocks:4096 ~line_exp:3 ())
  in
  let fs = Lfs.Fs.format dev in
  (dev, fs, ok "wrap" (Selfsec.wrap ~epoch_len:8 fs))

let basic =
  [
    Alcotest.test_case "operations are journalled in order" `Quick (fun () ->
        let _, _, s = make () in
        ok "create" (Selfsec.create s "/doc");
        ok "write" (Selfsec.write_file s "/doc" ~offset:0 "v1");
        ok "write" (Selfsec.write_file s "/doc" ~offset:0 "v2");
        let h = ok "history" (Selfsec.history s) in
        Alcotest.(check (list string)) "ops" [ "create"; "write"; "write" ]
          (List.map (fun e -> e.Selfsec.op) h);
        Alcotest.(check (list int)) "seqs" [ 0; 1; 2 ]
          (List.map (fun e -> e.Selfsec.seq) h));
    Alcotest.test_case "digests capture before/after content" `Quick (fun () ->
        let _, _, s = make () in
        ok "create" (Selfsec.create s "/doc");
        ok "w1" (Selfsec.write_file s "/doc" ~offset:0 "original");
        ok "w2" (Selfsec.write_file s "/doc" ~offset:0 "replaced");
        let h = ok "history" (Selfsec.history s) in
        let w2 = List.nth h 2 in
        Alcotest.(check bool) "before = digest of 'original'" true
          (Hash.Sha256.equal w2.Selfsec.before_digest
             (Hash.Sha256.digest_string "original"));
        Alcotest.(check bool) "after = digest of 'replaced'" true
          (Hash.Sha256.equal w2.Selfsec.after_digest
             (Hash.Sha256.digest_string "replaced")));
    Alcotest.test_case "unlink is journalled with the last content" `Quick
      (fun () ->
        let _, _, s = make () in
        ok "create" (Selfsec.create s "/victim");
        ok "write" (Selfsec.write_file s "/victim" ~offset:0 "secret");
        ok "unlink" (Selfsec.unlink s "/victim");
        let h = ok "history" (Selfsec.history s) in
        let rm = List.nth h 2 in
        Alcotest.(check string) "op" "unlink" rm.Selfsec.op;
        Alcotest.(check bool) "content digest retained" true
          (Hash.Sha256.equal rm.Selfsec.before_digest
             (Hash.Sha256.digest_string "secret")));
  ]

let epochs =
  [
    Alcotest.test_case "epochs seal automatically and verify" `Quick (fun () ->
        let _, _, s = make () in
        ok "create" (Selfsec.create s "/doc");
        for i = 1 to 20 do
          ok "write" (Selfsec.write_file s "/doc" ~offset:0 (Printf.sprintf "v%d" i))
        done;
        let a = ok "verify" (Selfsec.verify_history s) in
        Alcotest.(check int) "entries" 21 a.Selfsec.entries;
        Alcotest.(check bool) "epochs sealed" true (a.Selfsec.sealed_epochs >= 2);
        Alcotest.(check bool) "chain intact" true a.Selfsec.chain_intact;
        Alcotest.(check int) "no tampered epochs" 0
          (List.length a.Selfsec.tampered_epochs));
    Alcotest.test_case "manual seal freezes the open epoch" `Quick (fun () ->
        let _, _, s = make () in
        ok "create" (Selfsec.create s "/doc");
        ok "write" (Selfsec.write_file s "/doc" ~offset:0 "x");
        ok "seal" (Selfsec.seal_epoch s);
        let a = ok "verify" (Selfsec.verify_history s) in
        Alcotest.(check bool) "sealed" true (a.Selfsec.sealed_epochs >= 1);
        Alcotest.(check int) "open entries reset" 0 a.Selfsec.open_entries);
    Alcotest.test_case "journal survives remount (rebuilt by replay)" `Quick
      (fun () ->
        let dev, fs, s = make () in
        ok "create" (Selfsec.create s "/doc");
        for i = 1 to 10 do
          ok "write" (Selfsec.write_file s "/doc" ~offset:0 (string_of_int i))
        done;
        Lfs.Fs.sync fs;
        let fs2 = ok "mount" (Lfs.Fs.mount dev) in
        let s2 = ok "rewrap" (Selfsec.wrap ~epoch_len:8 fs2) in
        let h = ok "history" (Selfsec.history s2) in
        Alcotest.(check int) "11 entries" 11 (List.length h);
        ok "continue" (Selfsec.write_file s2 "/doc" ~offset:0 "after remount");
        let h = ok "history" (Selfsec.history s2) in
        Alcotest.(check int) "12 entries, sequence continues" 12 (List.length h);
        Alcotest.(check int) "last seq" 11
          (List.nth h 11).Selfsec.seq);
  ]

let attacks =
  [
    Alcotest.test_case "rewriting a sealed epoch is detected" `Quick (fun () ->
        let dev, fs, s = make () in
        ok "create" (Selfsec.create s "/doc");
        for i = 1 to 10 do
          ok "write" (Selfsec.write_file s "/doc" ~offset:0 (string_of_int i))
        done;
        (* Attack a sealed epoch file's block on the raw device. *)
        let st = Lfs.Fs.state fs in
        let ino =
          match Lfs.Dirops.lookup st "/.selfsec/epoch-000000" with
          | Some (i, _) -> i
          | None -> Alcotest.fail "epoch file missing"
        in
        let line = List.hd (Lfs.Heat.file_lines st ~ino) in
        Sero.Device.unsafe_write_block dev
          ~pba:(List.hd (Sero.Layout.data_blocks_of_line (Sero.Device.layout dev) line))
          "history, laundered";
        let a = ok "verify" (Selfsec.verify_history s) in
        Alcotest.(check bool) "tampered epoch reported" true
          (a.Selfsec.tampered_epochs <> []));
    Alcotest.test_case "journal truncation breaks the chain" `Quick (fun () ->
        let _, fs, s = make () in
        ok "create" (Selfsec.create s "/doc");
        ok "write" (Selfsec.write_file s "/doc" ~offset:0 "entry");
        (* The open (unsealed) epoch can still be rewritten via the FS —
           that is precisely the window; the chain check catches it. *)
        let path = "/.selfsec/epoch-000000" in
        let size = ok "size" (Lfs.Fs.file_size fs path) in
        ok "truncate-ish" (Lfs.Fs.write_file fs path ~offset:(size - 8)
             (String.make 8 '\x00'));
        let a = ok "verify" (Selfsec.verify_history s) in
        Alcotest.(check bool) "chain broken" false a.Selfsec.chain_intact);
  ]

let () =
  Alcotest.run "selfsec"
    [ ("journal", basic); ("epochs", epochs); ("attacks", attacks) ]
