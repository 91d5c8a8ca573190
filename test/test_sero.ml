(* The SERO device: layout arithmetic, sector ops, heat/verify, tamper
   verdicts, scanning, block classification and image persistence. *)

let qtest = QCheck_alcotest.to_alcotest

let make_dev ?(n_blocks = 128) ?(line_exp = 3) ?(seed = 42) ?(strict = true) () =
  let c = Sero.Device.default_config ~n_blocks ~line_exp () in
  Sero.Device.create { c with Sero.Device.seed; strict_hash_locations = strict }

let fill_line dev line =
  List.iteri
    (fun i pba ->
      match Sero.Device.write_block dev ~pba (Printf.sprintf "line %d block %d" line i) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "fill: %a" Sero.Device.pp_write_error e)
    (Sero.Layout.data_blocks_of_line (Sero.Device.layout dev) line)

let heat_ok dev line =
  match Sero.Device.heat_line dev ~line () with
  | Ok h -> h
  | Error e -> Alcotest.failf "heat: %a" Sero.Device.pp_heat_error e

(* {1 Layout} *)

let layout = Sero.Layout.create ~n_blocks:1024 ~line_exp:4 ()

let layout_props =
  [
    QCheck.Test.make ~name:"line_of_block consistent with data_blocks_of_line"
      ~count:300
      QCheck.(int_range 0 1023)
      (fun pba ->
        let line = Sero.Layout.line_of_block layout pba in
        if Sero.Layout.is_hash_block layout pba then
          Sero.Layout.hash_block_of_line layout line = pba
        else List.mem pba (Sero.Layout.data_blocks_of_line layout line));
    QCheck.Test.make ~name:"blocks partition into lines" ~count:100
      QCheck.(int_range 0 63)
      (fun line ->
        let blocks =
          Sero.Layout.hash_block_of_line layout line
          :: Sero.Layout.data_blocks_of_line layout line
        in
        List.length blocks = Sero.Layout.blocks_per_line layout
        && List.for_all (fun b -> Sero.Layout.line_of_block layout b = line) blocks);
    QCheck.Test.make ~name:"dot ranges of blocks do not overlap" ~count:100
      QCheck.(pair (int_range 0 1023) (int_range 0 1023))
      (fun (a, b) ->
        a = b
        || abs (Sero.Layout.block_first_dot layout a - Sero.Layout.block_first_dot layout b)
           >= Sero.Layout.block_dots);
  ]

let layout_cases =
  [
    Alcotest.test_case "constructor validation" `Quick (fun () ->
        Alcotest.check_raises "misaligned"
          (Invalid_argument "Layout.create: n_blocks must be a positive multiple of 2^N")
          (fun () -> ignore (Sero.Layout.create ~n_blocks:100 ~line_exp:3 ())));
    Alcotest.test_case "overhead = 1/2^N" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "1/16" (1. /. 16.) (Sero.Layout.space_overhead layout));
    Alcotest.test_case "wo area is 4096 dots / 256 bytes (Fig. 3)" `Quick
      (fun () ->
        Alcotest.(check int) "dots" 4096 Sero.Layout.wo_area_dots;
        Alcotest.(check int) "bytes" 256 Sero.Layout.wo_area_bytes);
  ]

(* {1 Sector ops} *)

let device_cases =
  [
    Alcotest.test_case "write/read roundtrip pads to 512" `Quick (fun () ->
        let dev = make_dev () in
        (match Sero.Device.write_block dev ~pba:9 "hello" with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%a" Sero.Device.pp_write_error e);
        match Sero.Device.read_block dev ~pba:9 with
        | Ok p ->
            Alcotest.(check int) "padded" 512 (String.length p);
            Alcotest.(check string) "prefix" "hello" (String.sub p 0 5)
        | Error e -> Alcotest.failf "%a" Sero.Device.pp_read_error e);
    Alcotest.test_case "hash blocks are reserved" `Quick (fun () ->
        let dev = make_dev () in
        match Sero.Device.write_block dev ~pba:8 "x" with
        | Error Sero.Device.Reserved_hash_block -> ()
        | Ok () | Error _ -> Alcotest.fail "hash block writable");
    Alcotest.test_case "virgin block reads Blank" `Quick (fun () ->
        let dev = make_dev () in
        match Sero.Device.read_block dev ~pba:17 with
        | Error Sero.Device.Blank -> ()
        | Ok _ | Error _ -> Alcotest.fail "expected Blank");
    Alcotest.test_case "frame written elsewhere reads Wrong_location" `Quick
      (fun () ->
        let dev = make_dev () in
        ignore (Sero.Device.write_block dev ~pba:9 "original");
        let image = Sero.Device.unsafe_read_raw dev ~pba:9 in
        Sero.Device.unsafe_write_raw dev ~pba:10 image;
        match Sero.Device.read_block dev ~pba:10 with
        | Error (Sero.Device.Wrong_location 9) -> ()
        | Ok _ | Error _ -> Alcotest.fail "copy not distinguished");
  ]

(* {1 Heat / verify lifecycle} *)

let lifecycle_cases =
  [
    Alcotest.test_case "heat then verify is Intact" `Quick (fun () ->
        let dev = make_dev () in
        fill_line dev 2;
        ignore (heat_ok dev 2);
        Alcotest.(check bool) "intact" true
          (Sero.Tamper.equal_verdict (Sero.Device.verify_line dev ~line:2) Sero.Tamper.Intact));
    Alcotest.test_case "unheated line verifies Not_heated" `Quick (fun () ->
        let dev = make_dev () in
        Alcotest.(check bool) "not heated" true
          (Sero.Tamper.equal_verdict (Sero.Device.verify_line dev ~line:3) Sero.Tamper.Not_heated));
    Alcotest.test_case "heat requires readable data blocks" `Quick (fun () ->
        let dev = make_dev () in
        match Sero.Device.heat_line dev ~line:4 () with
        | Error (Sero.Device.Unreadable_data pbas) ->
            Alcotest.(check int) "all 7 unwritten" 7 (List.length pbas)
        | Ok _ | Error _ -> Alcotest.fail "heated a blank line");
    Alcotest.test_case "re-heat with same content is idempotent" `Quick
      (fun () ->
        let dev = make_dev () in
        fill_line dev 2;
        let h1 = heat_ok dev 2 in
        let h2 = heat_ok dev 2 in
        Alcotest.(check bool) "same hash" true (Hash.Sha256.equal h1 h2));
    Alcotest.test_case "re-heat after data change is refused" `Quick (fun () ->
        let dev = make_dev () in
        fill_line dev 2;
        ignore (heat_ok dev 2);
        Sero.Device.unsafe_write_block dev
          ~pba:(List.hd (Sero.Layout.data_blocks_of_line (Sero.Device.layout dev) 2))
          "changed";
        match Sero.Device.heat_line dev ~line:2 () with
        | Error Sero.Device.Already_heated -> ()
        | Ok _ | Error _ -> Alcotest.fail "re-heat allowed");
    Alcotest.test_case "burned metadata roundtrips" `Quick (fun () ->
        let dev = make_dev () in
        fill_line dev 5;
        (match Sero.Device.heat_line dev ~line:5 ~timestamp:123.25 () with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%a" Sero.Device.pp_heat_error e);
        match Sero.Device.read_hash_block dev ~line:5 with
        | `Burned meta ->
            Alcotest.(check int) "line" 5 meta.Sero.Device.line;
            Alcotest.(check int) "n_data" 7 meta.Sero.Device.n_data_blocks;
            Alcotest.(check (float 1e-9)) "timestamp" 123.25 meta.Sero.Device.timestamp
        | `Not_heated | `Torn _ | `Tampered _ -> Alcotest.fail "no burned meta");
    Alcotest.test_case "honest write into heated line refused" `Quick
      (fun () ->
        let dev = make_dev () in
        fill_line dev 2;
        ignore (heat_ok dev 2);
        match
          Sero.Device.write_block dev
            ~pba:(List.hd (Sero.Layout.data_blocks_of_line (Sero.Device.layout dev) 2))
            "z"
        with
        | Error Sero.Device.In_heated_line -> ()
        | Ok () | Error _ -> Alcotest.fail "write allowed");
  ]

(* {1 Tamper evidence verdicts} *)

let tamper_cases =
  [
    Alcotest.test_case "magnetic rewrite of data -> Hash_mismatch" `Quick
      (fun () ->
        let dev = make_dev () in
        fill_line dev 2;
        ignore (heat_ok dev 2);
        Sero.Device.unsafe_write_block dev
          ~pba:(List.nth (Sero.Layout.data_blocks_of_line (Sero.Device.layout dev) 2) 3)
          "forged";
        match Sero.Device.verify_line dev ~line:2 with
        | Sero.Tamper.Tampered [ Sero.Tamper.Hash_mismatch ] -> ()
        | v -> Alcotest.failf "unexpected: %a" Sero.Tamper.pp_verdict v);
    Alcotest.test_case "extra heat on the hash -> Invalid_cells" `Quick
      (fun () ->
        let dev = make_dev () in
        fill_line dev 2;
        ignore (heat_ok dev 2);
        Sero.Device.unsafe_heat_dots dev
          ~dot:(Sero.Layout.wo_first_dot (Sero.Device.layout dev) ~line:2)
          ~n:32;
        match Sero.Device.verify_line dev ~line:2 with
        | Sero.Tamper.Tampered (Sero.Tamper.Invalid_cells n :: _) ->
            Alcotest.(check int) "16 cells" 16 n
        | v -> Alcotest.failf "unexpected: %a" Sero.Tamper.pp_verdict v);
    Alcotest.test_case "heating data dots -> Data_unreadable" `Quick (fun () ->
        let dev = make_dev () in
        fill_line dev 2;
        ignore (heat_ok dev 2);
        let victim =
          List.nth (Sero.Layout.data_blocks_of_line (Sero.Device.layout dev) 2) 1
        in
        Sero.Device.unsafe_heat_dots dev
          ~dot:(Sero.Layout.block_first_dot (Sero.Device.layout dev) victim)
          ~n:600;
        match Sero.Device.verify_line dev ~line:2 with
        | Sero.Tamper.Tampered evs ->
            Alcotest.(check bool) "mentions the victim" true
              (List.exists
                 (function
                   | Sero.Tamper.Data_unreadable pbas -> List.mem victim pbas
                   | _ -> false)
                 evs)
        | v -> Alcotest.failf "unexpected: %a" Sero.Tamper.pp_verdict v);
    Alcotest.test_case "relocated frame -> Address_mismatch" `Quick (fun () ->
        let dev = make_dev () in
        fill_line dev 2;
        ignore (heat_ok dev 2);
        let lay = Sero.Device.layout dev in
        let src = List.hd (Sero.Layout.data_blocks_of_line lay 3) in
        ignore (Sero.Device.write_block dev ~pba:src "elsewhere");
        let image = Sero.Device.unsafe_read_raw dev ~pba:src in
        let dst = List.nth (Sero.Layout.data_blocks_of_line lay 2) 2 in
        Sero.Device.unsafe_write_raw dev ~pba:dst image;
        match Sero.Device.verify_line dev ~line:2 with
        | Sero.Tamper.Tampered evs ->
            Alcotest.(check bool) "address mismatch" true
              (List.exists
                 (function Sero.Tamper.Address_mismatch _ -> true | _ -> false)
                 evs)
        | v -> Alcotest.failf "unexpected: %a" Sero.Tamper.pp_verdict v);
    Alcotest.test_case "bulk wipe leaves burned hash, kills data" `Quick
      (fun () ->
        let dev = make_dev () in
        fill_line dev 2;
        ignore (heat_ok dev 2);
        Sero.Device.unsafe_magnetic_wipe dev;
        Sero.Device.refresh_heated_cache dev;
        (match Sero.Device.read_hash_block dev ~line:2 with
        | `Burned _ -> ()
        | `Not_heated | `Torn _ | `Tampered _ -> Alcotest.fail "burned hash lost");
        match Sero.Device.verify_line dev ~line:2 with
        | Sero.Tamper.Tampered evs ->
            Alcotest.(check bool) "data unreadable" true
              (List.exists
                 (function Sero.Tamper.Data_unreadable _ -> true | _ -> false)
                 evs)
        | v -> Alcotest.failf "unexpected: %a" Sero.Tamper.pp_verdict v);
  ]

(* {1 verify_region: the splice discipline} *)

let region_cases =
  [
    Alcotest.test_case "strict device rejects interior hash locations" `Quick
      (fun () ->
        let dev = make_dev ~strict:true () in
        fill_line dev 2;
        ignore (heat_ok dev 2);
        let lay = Sero.Device.layout dev in
        let blocks = Sero.Layout.data_blocks_of_line lay 2 in
        let dp = List.nth blocks 1 in
        let tail = List.filter (fun p -> p > dp) blocks in
        Sero.Device.unsafe_forge_burn dev ~hash_pba:dp ~data_pbas:tail ~claim_line:2;
        match Sero.Device.verify_region dev ~hash_pba:dp ~data_pbas:tail with
        | Sero.Tamper.Tampered (Sero.Tamper.Address_mismatch _ :: _) -> ()
        | v -> Alcotest.failf "splice not rejected: %a" Sero.Tamper.pp_verdict v);
    Alcotest.test_case "non-strict device is fooled by the splice (ablation)"
      `Quick (fun () ->
        let dev = make_dev ~strict:false () in
        fill_line dev 2;
        ignore (heat_ok dev 2);
        let lay = Sero.Device.layout dev in
        let blocks = Sero.Layout.data_blocks_of_line lay 2 in
        let dp = List.nth blocks 1 in
        let tail = List.filter (fun p -> p > dp) blocks in
        Sero.Device.unsafe_forge_burn dev ~hash_pba:dp ~data_pbas:tail ~claim_line:2;
        match Sero.Device.verify_region dev ~hash_pba:dp ~data_pbas:tail with
        | Sero.Tamper.Intact -> ()
        | v -> Alcotest.failf "expected fooled-Intact, got %a" Sero.Tamper.pp_verdict v);
    Alcotest.test_case "verify_region accepts a legitimate line" `Quick
      (fun () ->
        let dev = make_dev () in
        fill_line dev 2;
        ignore (heat_ok dev 2);
        let lay = Sero.Device.layout dev in
        match
          Sero.Device.verify_region dev
            ~hash_pba:(Sero.Layout.hash_block_of_line lay 2)
            ~data_pbas:(Sero.Layout.data_blocks_of_line lay 2)
        with
        | Sero.Tamper.Intact -> ()
        | v -> Alcotest.failf "%a" Sero.Tamper.pp_verdict v);
  ]

(* {1 Scan, classification, stats, end of life} *)

let whole_device_cases =
  [
    Alcotest.test_case "scan finds exactly the heated lines" `Quick (fun () ->
        let dev = make_dev () in
        List.iter
          (fun l ->
            fill_line dev l;
            ignore (heat_ok dev l))
          [ 1; 4; 5 ];
        let entries = Sero.Device.scan dev in
        let heated =
          List.filter_map
            (fun e ->
              match e.Sero.Device.verdict with
              | Sero.Tamper.Not_heated -> None
              | _ -> Some e.Sero.Device.scanned_line)
            entries
        in
        Alcotest.(check (list int)) "lines" [ 1; 4; 5 ] heated);
    Alcotest.test_case "classify: healthy vs heated vs bad" `Quick (fun () ->
        let dev = make_dev () in
        fill_line dev 2;
        ignore (heat_ok dev 2);
        let lay = Sero.Device.layout dev in
        let healthy = List.hd (Sero.Layout.data_blocks_of_line lay 3) in
        Alcotest.(check bool) "healthy" true
          (Sero.Device.classify_block dev ~pba:healthy = Sero.Device.Healthy);
        (* Destroy a block by heating all its dots: heated class. *)
        let heated_pba = List.hd (Sero.Layout.data_blocks_of_line lay 6) in
        Sero.Device.unsafe_heat_dots dev
          ~dot:(Sero.Layout.block_first_dot lay heated_pba)
          ~n:Sero.Layout.block_dots;
        Alcotest.(check bool) "heated" true
          (Sero.Device.classify_block dev ~pba:heated_pba = Sero.Device.Heated_block);
        (* A magnetically corrupted (but not heated) block: bad. *)
        let bad_pba = List.nth (Sero.Layout.data_blocks_of_line lay 6) 1 in
        ignore (Sero.Device.write_block dev ~pba:bad_pba "ok");
        let medium = Probe.Pdevice.medium (Sero.Device.pdevice dev) in
        let start = Sero.Layout.block_first_dot lay bad_pba in
        for d = start to start + 2000 do
          Pmedia.Medium.set medium d
            (Pmedia.Dot.Magnetised (if d mod 3 = 0 then Pmedia.Dot.Up else Pmedia.Dot.Down))
        done;
        Alcotest.(check bool) "bad" true
          (Sero.Device.classify_block dev ~pba:bad_pba = Sero.Device.Bad_block));
    Alcotest.test_case "stats track RO growth and runs" `Quick (fun () ->
        let dev = make_dev () in
        List.iter
          (fun l ->
            fill_line dev l;
            ignore (heat_ok dev l))
          [ 1; 2; 7 ];
        let s = Sero.Device.stats dev in
        Alcotest.(check int) "heated" 3 s.Sero.Device.heated_lines;
        Alcotest.(check int) "runs" 2 s.Sero.Device.heated_runs;
        Alcotest.(check bool) "not fully RO" false (Sero.Device.is_fully_ro dev));
    Alcotest.test_case "pp_stats covers the RAS counters" `Quick (fun () ->
        let c = Sero.Device.default_config ~n_blocks:128 ~line_exp:3 () in
        let dev =
          Sero.Device.create { c with Sero.Device.ras = Sero.Device.active_ras }
        in
        fill_line dev 2;
        let inj =
          Fault.Injector.create
            (Fault.Plan.make ~seed:5 ~read_ber:0.004
               ~tip_deaths:[ { Fault.Plan.tip = 3; after_ops = 0 } ]
               ())
        in
        Sero.Device.install_fault dev inj;
        List.iter
          (fun pba -> ignore (Sero.Device.read_block dev ~pba))
          (Sero.Layout.data_blocks_of_line (Sero.Device.layout dev) 2);
        Sero.Device.clear_fault dev;
        let rendered =
          Format.asprintf "%a" Sero.Device.pp_stats (Sero.Device.stats dev)
        in
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i =
            i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
          in
          go 0
        in
        List.iter
          (fun label ->
            Alcotest.(check bool)
              (Printf.sprintf "mentions %S" label)
              true (contains rendered label))
          [ "retries"; "re-pulses"; "remapped tips"; "scrub rewrites"; "torn completions" ];
        let s = Sero.Device.stats dev in
        Alcotest.(check bool) "retry counter moved" true (s.Sero.Device.retries > 0);
        Alcotest.(check bool) "remap counter moved" true
          (s.Sero.Device.remapped_tips > 0));
    Alcotest.test_case "device end of life: all lines heated" `Quick (fun () ->
        let dev = make_dev ~n_blocks:32 () in
        for l = 0 to 3 do
          fill_line dev l;
          ignore (heat_ok dev l)
        done;
        Alcotest.(check bool) "fully RO" true (Sero.Device.is_fully_ro dev);
        Alcotest.(check int) "no WMRM left" 0
          (Sero.Device.stats dev).Sero.Device.wmrm_data_blocks_left);
    (* A well-formed burn on line 5 that names line 3: the shallow scan
       (what the host's Audit runs) once called it intact. *)
    Alcotest.test_case "shallow scan convicts a burn claiming another line"
      `Quick (fun () ->
        let dev = make_dev ~n_blocks:256 ~line_exp:3 () in
        let lay = Sero.Device.layout dev in
        fill_line dev 5;
        Sero.Device.unsafe_forge_burn dev
          ~hash_pba:(Sero.Layout.hash_block_of_line lay 5)
          ~data_pbas:(Sero.Layout.data_blocks_of_line lay 5)
          ~claim_line:3;
        let expected = Sero.Device.verify_line dev ~line:5 in
        Alcotest.(check bool) "verify_line convicts" true
          (expected = Sero.Tamper.Tampered [ Sero.Tamper.Meta_corrupt ]);
        List.iter
          (fun deep ->
            let e = List.nth (Sero.Device.scan ~deep dev) 5 in
            Alcotest.(check string)
              (Printf.sprintf "scan ~deep:%b" deep)
              (Format.asprintf "%a" Sero.Tamper.pp_verdict expected)
              (Format.asprintf "%a" Sero.Tamper.pp_verdict e.Sero.Device.verdict))
          [ false; true ]);
  ]

(* {1 Image persistence} *)

let image_cases =
  [
    Alcotest.test_case "save/load roundtrips medium and heated state" `Quick
      (fun () ->
        let dev = make_dev () in
        fill_line dev 2;
        ignore (heat_ok dev 2);
        ignore (Sero.Device.write_block dev ~pba:25 "persisted");
        let path = Filename.temp_file "sero" ".img" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Sero.Image.save dev path;
            match Sero.Image.load path with
            | Error e -> Alcotest.failf "load: %s" e
            | Ok dev2 ->
                Alcotest.(check bool) "line 2 heated" true
                  (Sero.Device.is_line_heated dev2 ~line:2);
                Alcotest.(check bool) "verifies intact" true
                  (Sero.Tamper.equal_verdict
                     (Sero.Device.verify_line dev2 ~line:2)
                     Sero.Tamper.Intact);
                (match Sero.Device.read_block dev2 ~pba:25 with
                | Ok p -> Alcotest.(check string) "data" "persisted" (String.sub p 0 9)
                | Error e -> Alcotest.failf "read: %a" Sero.Device.pp_read_error e)));
    Alcotest.test_case "corrupted image rejected" `Quick (fun () ->
        let dev = make_dev ~n_blocks:32 () in
        let path = Filename.temp_file "sero" ".img" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Sero.Image.save dev path;
            let data = In_channel.with_open_bin path In_channel.input_all in
            let b = Bytes.of_string data in
            Bytes.set b 100 (Char.chr (Char.code (Bytes.get b 100) lxor 1));
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_bytes oc b);
            match Sero.Image.load path with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "corrupt image accepted"));
    Alcotest.test_case "streamed save/load is dot-for-dot faithful" `Quick
      (fun () ->
        let dev = make_dev ~n_blocks:128 () in
        fill_line dev 2;
        ignore (heat_ok dev 2);
        ignore (Sero.Device.write_block dev ~pba:50 "stream me");
        let packed d =
          let m = Probe.Pdevice.medium (Sero.Device.pdevice d) in
          let len = Pmedia.Medium.packed_length m in
          let b = Bytes.create len in
          Pmedia.Medium.blit_packed m ~pos:0 ~dst:b ~dst_off:0 ~len;
          Bytes.unsafe_to_string b
        in
        let path = Filename.temp_file "sero" ".img" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Sero.Image.save dev path;
            match Sero.Image.load path with
            | Error e -> Alcotest.failf "load: %s" e
            | Ok dev2 ->
                Alcotest.(check string) "medium bytes identical" (packed dev)
                  (packed dev2);
                Alcotest.(check bool) "heated line survives" true
                  (Sero.Device.is_line_heated dev2 ~line:2)));
    Alcotest.test_case "truncation and bad magic keep their verdicts" `Quick
      (fun () ->
        let dev = make_dev ~n_blocks:32 () in
        let path = Filename.temp_file "sero" ".img" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Sero.Image.save dev path;
            let data = In_channel.with_open_bin path In_channel.input_all in
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc (String.sub data 0 8));
            (match Sero.Image.load path with
            | Error e -> Alcotest.(check string) "short" "image too short" e
            | Ok _ -> Alcotest.fail "8-byte image accepted");
            (* A wrong magic under a *valid* CRC must fail the parse,
               not the checksum. *)
            let b = Bytes.of_string data in
            Bytes.blit_string "XXROIMG9" 0 b 0 8;
            let body = Bytes.sub_string b 0 (Bytes.length b - 4) in
            let crc = Int32.to_int (Codec.Crc32.string body) land 0xFFFFFFFF in
            let tl = Bytes.length b - 4 in
            Bytes.set b tl (Char.chr ((crc lsr 24) land 0xFF));
            Bytes.set b (tl + 1) (Char.chr ((crc lsr 16) land 0xFF));
            Bytes.set b (tl + 2) (Char.chr ((crc lsr 8) land 0xFF));
            Bytes.set b (tl + 3) (Char.chr (crc land 0xFF));
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_bytes oc b);
            match Sero.Image.load path with
            | Error e -> Alcotest.(check string) "magic" "bad magic" e
            | Ok _ -> Alcotest.fail "bad magic accepted"));
    Alcotest.test_case "crafted header fields are typed errors" `Quick
      (fun () ->
        (* Each image carries a recomputed, valid CRC over one hostile
           header field: the loader must answer [Error], never raise. *)
        let image_of cfg =
          let path = Filename.temp_file "sero" ".img" in
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              Sero.Image.save (Sero.Device.create cfg) path;
              In_channel.with_open_bin path In_channel.input_all)
        in
        let cfg = Sero.Device.default_config ~n_blocks:32 () in
        let good = image_of cfg in
        let other = image_of { cfg with Sero.Device.erb_cycles = 9 } in
        let rec first_diff i = if good.[i] <> other.[i] then i else first_diff (i + 1) in
        let erb_at = first_diff 0 in
        let load_patched patches =
          let b = Bytes.of_string good in
          List.iter (fun (off, v) -> Bytes.set b off (Char.chr v)) patches;
          let tl = Bytes.length b - 4 in
          let crc =
            Int32.to_int (Codec.Crc32.bytes b 0 tl) land 0xFFFFFFFF
          in
          List.iteri
            (fun k shift -> Bytes.set b (tl + k) (Char.chr ((crc lsr shift) land 0xFF)))
            [ 24; 16; 8; 0 ];
          let path = Filename.temp_file "sero" ".img" in
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              Out_channel.with_open_bin path (fun oc ->
                  Out_channel.output_bytes oc b);
              Sero.Image.load path)
        in
        (match load_patched [] with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "unpatched image: %s" e);
        List.iter
          (fun (what, patches) ->
            match load_patched patches with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "%s accepted" what
            | exception e ->
                Alcotest.failf "%s raised %s" what (Printexc.to_string e))
          [
            ("n_tips = 0", [ (13, 0); (14, 0) ]);
            ("line_exp = 0", [ (12, 0) ]);
            ("erb_cycles = 0", [ (erb_at, 0) ]);
          ]);
  ]
  @
  (* A ≥64k-line geometry exercises the O(chunk) streaming paths at
     scale; opt-in (SERO_BIG=1) because the image file runs to ~150MB. *)
  match Sys.getenv_opt "SERO_BIG" with
  | Some "1" ->
      [
        Alcotest.test_case "64k-line image round-trip (streamed)" `Quick
          (fun () ->
            let dev = make_dev ~n_blocks:131072 ~line_exp:1 () in
            let lay = Sero.Device.layout dev in
            let pba = Sero.Layout.first_data_block lay 12345 in
            (match Sero.Device.write_block dev ~pba "big geometry" with
            | Ok () -> ()
            | Error e -> Alcotest.failf "write: %a" Sero.Device.pp_write_error e);
            ignore (heat_ok dev 12345);
            let path = Filename.temp_file "sero" ".img" in
            Fun.protect
              ~finally:(fun () -> Sys.remove path)
              (fun () ->
                Sero.Image.save dev path;
                match Sero.Image.load path with
                | Error e -> Alcotest.failf "load: %s" e
                | Ok dev2 ->
                    Alcotest.(check bool) "line heated" true
                      (Sero.Device.is_line_heated dev2 ~line:12345);
                    (match Sero.Device.read_block dev2 ~pba with
                    | Ok p ->
                        Alcotest.(check string) "payload" "big geometry"
                          (String.sub p 0 12)
                    | Error e ->
                        Alcotest.failf "read: %a" Sero.Device.pp_read_error e)));
      ]
  | _ -> []

(* Noise below the RS budget is transparently absorbed (verdict stays
   Intact); gross corruption of a block surfaces as evidence.  This is
   the boundary between "media noise" and "tampering" that the 15%
   overhead buys. *)
let ecc_absorbs_noise =
  QCheck.Test.make ~name:"sub-budget dot noise never alarms verify" ~count:25
    QCheck.(int_range 0 8)
    (fun flips ->
      let dev = make_dev ~seed:(100 + flips) () in
      fill_line dev 2;
      ignore (heat_ok dev 2);
      (* Flip a few dots inside one data block (one dot = one bad byte
         symbol at worst; 8 < 12-symbol budget per codeword). *)
      let lay = Sero.Device.layout dev in
      let pba = List.nth (Sero.Layout.data_blocks_of_line lay 2) 3 in
      let medium = Probe.Pdevice.medium (Sero.Device.pdevice dev) in
      let start = Sero.Layout.block_first_dot lay pba in
      let rng = Sim.Prng.create flips in
      for _ = 1 to flips do
        (* Restrict flips to one RS codeword's dot range (first 255
           bytes of the frame) so the per-codeword budget applies. *)
        let d = start + Sim.Prng.int rng (255 * 8) in
        match Pmedia.Medium.get medium d with
        | Pmedia.Dot.Magnetised dir ->
            Pmedia.Medium.set medium d (Pmedia.Dot.Magnetised (Pmedia.Dot.invert dir))
        | Pmedia.Dot.Heated -> ()
      done;
      Sero.Tamper.equal_verdict (Sero.Device.verify_line dev ~line:2) Sero.Tamper.Intact)

let gross_corruption_always_evident =
  QCheck.Test.make ~name:"gross block corruption is always evidence" ~count:25
    QCheck.(int_range 0 1000)
    (fun seed ->
      let dev = make_dev ~seed:(2000 + seed) () in
      fill_line dev 2;
      ignore (heat_ok dev 2);
      let lay = Sero.Device.layout dev in
      let pba = List.nth (Sero.Layout.data_blocks_of_line lay 2) 2 in
      let medium = Probe.Pdevice.medium (Sero.Device.pdevice dev) in
      let start = Sero.Layout.block_first_dot lay pba in
      let rng = Sim.Prng.create seed in
      (* Flip ~600 random dots across the frame: far beyond the code. *)
      for _ = 1 to 600 do
        let d = start + Sim.Prng.int rng Sero.Layout.block_dots in
        match Pmedia.Medium.get medium d with
        | Pmedia.Dot.Magnetised dir ->
            Pmedia.Medium.set medium d (Pmedia.Dot.Magnetised (Pmedia.Dot.invert dir))
        | Pmedia.Dot.Heated -> ()
      done;
      Sero.Tamper.is_tampered (Sero.Device.verify_line dev ~line:2))

let roundtrip_any_line =
  QCheck.Test.make ~name:"heat+verify intact for random payloads" ~count:25
    QCheck.(small_list (string_of_size Gen.(0 -- 512)))
    (fun payloads ->
      let dev = make_dev () in
      let lay = Sero.Device.layout dev in
      List.iteri
        (fun i pba ->
          let payload =
            match List.nth_opt payloads i with Some p -> p | None -> "pad"
          in
          match Sero.Device.write_block dev ~pba payload with
          | Ok () -> ()
          | Error _ -> ())
        (Sero.Layout.data_blocks_of_line lay 3);
      match Sero.Device.heat_line dev ~line:3 () with
      | Ok _ ->
          Sero.Tamper.equal_verdict (Sero.Device.verify_line dev ~line:3) Sero.Tamper.Intact
      | Error _ -> false)

(* {1 Buffer cache}

   The block buffer cache over the request pipeline: hit/miss
   behaviour, read-ahead, write-behind, and the coherence rules that
   keep it from ever masking what is on the medium. *)

(* Endurance read-only, set the way an image load restores it: remap
   table, spare pool and migrations stay as they are. *)
let go_read_only dev =
  let n_lines = Sero.Layout.n_lines (Sero.Device.layout dev) in
  Sero.Device.restore_endurance dev
    ~phys_line:
      (Array.init n_lines (fun line -> Sero.Device.phys_of_line dev ~line))
    ~spare_pool:(Sero.Device.spare_pool dev)
    ~migrations:(Sero.Device.migrations dev) ~state:Sero.Device.Read_only

let make_cached ?(n_blocks = 128) ?(capacity = 32) ?(read_ahead = 0) () =
  let dev =
    Sero.Device.create (Sero.Device.default_config ~n_blocks ~line_exp:3 ())
  in
  let q = Sero.Queue.create (Sim.Des.create ()) dev in
  (dev, q, Sero.Bcache.create ~capacity ~read_ahead q)

(* Device reads return full-block payloads padded with NULs; the cache
   hands back exactly what was written.  Strip the padding so the two
   can be compared as logical payloads. *)
let unpad s =
  match String.index_opt s '\000' with
  | Some i -> String.sub s 0 i
  | None -> s

let read_ok what r =
  match r with
  | Ok p -> unpad p
  | Error e -> Alcotest.failf "%s: %a" what Sero.Device.pp_read_error e

let bcache_cases =
  [
    Alcotest.test_case "read hit: zero simulated time, zero device ops" `Quick
      (fun () ->
        let dev, q, bc = make_cached () in
        fill_line dev 1;
        let pba = Sero.Layout.first_data_block (Sero.Device.layout dev) 1 in
        let first = read_ok "miss" (Sero.Bcache.read_block bc ~pba) in
        let reads0 = (Sero.Device.stats dev).Sero.Device.reads in
        let t0 = Sim.Des.now (Sero.Queue.des q) in
        let again = read_ok "hit" (Sero.Bcache.read_block bc ~pba) in
        Alcotest.(check string) "same payload" first again;
        Alcotest.(check int)
          "no mrs issued" reads0 (Sero.Device.stats dev).Sero.Device.reads;
        Alcotest.(check (float 0.))
          "no simulated time" t0
          (Sim.Des.now (Sero.Queue.des q));
        let s = Sero.Bcache.stats bc in
        Alcotest.(check int) "one hit" 1 s.Sero.Bcache.hits;
        Alcotest.(check int) "one miss" 1 s.Sero.Bcache.misses);
    Alcotest.test_case "read-ahead fills forward; joined reads are hits"
      `Quick (fun () ->
        let dev, q, bc = make_cached ~read_ahead:4 () in
        fill_line dev 1;
        fill_line dev 2;
        let pbas =
          Array.of_list
            (Sero.Layout.data_blocks_of_line (Sero.Device.layout dev) 1)
        in
        ignore (read_ok "miss" (Sero.Bcache.read_block bc ~pba:pbas.(0)));
        Sero.Queue.drain q;
        (* The next three blocks arrived as Background prefetches. *)
        for i = 1 to 3 do
          ignore (read_ok "ra hit" (Sero.Bcache.read_block bc ~pba:pbas.(i)))
        done;
        let s = Sero.Bcache.stats bc in
        Alcotest.(check int) "prefetches issued" 4 s.Sero.Bcache.read_aheads;
        Alcotest.(check int) "served from prefetch" 3 s.Sero.Bcache.read_ahead_hits;
        Alcotest.(check int) "one miss only" 1 s.Sero.Bcache.misses);
    Alcotest.test_case "write-behind: buffered, absorbed, flushed as a span"
      `Quick (fun () ->
        let dev, _q, bc = make_cached () in
        fill_line dev 1;
        let pbas =
          Array.of_list
            (Sero.Layout.data_blocks_of_line (Sero.Device.layout dev) 1)
        in
        let writes0 = (Sero.Device.stats dev).Sero.Device.writes in
        for i = 0 to 2 do
          match Sero.Bcache.write_block bc ~pba:pbas.(i) "buffered" with
          | Ok () -> ()
          | Error e -> Alcotest.failf "write: %a" Sero.Device.pp_write_error e
        done;
        (match Sero.Bcache.write_block bc ~pba:pbas.(0) "rewritten" with
        | Ok () -> ()
        | Error e -> Alcotest.failf "write: %a" Sero.Device.pp_write_error e);
        Alcotest.(check int)
          "nothing on the medium yet" writes0
          (Sero.Device.stats dev).Sero.Device.writes;
        Alcotest.(check string)
          "medium still has the old block" "line 1 block 0"
          (read_ok "direct" (Sero.Device.read_block dev ~pba:pbas.(0)));
        Sero.Bcache.sync bc;
        Alcotest.(check string)
          "flushed latest" "rewritten"
          (read_ok "direct" (Sero.Device.read_block dev ~pba:pbas.(0)));
        let s = Sero.Bcache.stats bc in
        Alcotest.(check int) "absorbed overwrite" 1 s.Sero.Bcache.write_absorbed;
        Alcotest.(check int) "one coalesced span" 1 s.Sero.Bcache.flushed_spans;
        Alcotest.(check int) "three blocks" 3 s.Sero.Bcache.flushed_blocks);
    Alcotest.test_case "heat flushes the line, then invalidates it" `Quick
      (fun () ->
        let dev, _q, bc = make_cached () in
        let pbas =
          Array.of_list
            (Sero.Layout.data_blocks_of_line (Sero.Device.layout dev) 2)
        in
        Array.iteri
          (fun i pba ->
            match Sero.Bcache.write_block bc ~pba (Printf.sprintf "cell %d" i) with
            | Ok () -> ()
            | Error e -> Alcotest.failf "write: %a" Sero.Device.pp_write_error e)
          pbas;
        (match Sero.Bcache.heat_line bc ~line:2 () with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "heat: %a" Sero.Device.pp_heat_error e);
        Alcotest.(check bool)
          "line heated" true
          (Sero.Device.is_line_heated dev ~line:2);
        Alcotest.(check bool)
          "verdict intact" true
          (Sero.Tamper.equal_verdict
             (Sero.Bcache.verify_line bc ~line:2)
             Sero.Tamper.Intact);
        (* The re-read comes from the medium, not a stale buffer. *)
        let s = Sero.Bcache.stats bc in
        Alcotest.(check bool)
          "line invalidated" true
          (s.Sero.Bcache.invalidations >= Array.length pbas);
        ignore (read_ok "reread" (Sero.Bcache.read_block bc ~pba:pbas.(0)));
        Alcotest.(check int)
          "miss after invalidation" 1 (Sero.Bcache.stats bc).Sero.Bcache.misses;
        (* Writes to the heated line refuse exactly like the device. *)
        match Sero.Bcache.write_block bc ~pba:pbas.(0) "tamper" with
        | Error Sero.Device.In_heated_line -> ()
        | Ok () | Error _ -> Alcotest.fail "heated write must refuse");
    Alcotest.test_case "foreign mutation invalidates the cached copy" `Quick
      (fun () ->
        let dev, _q, bc = make_cached () in
        fill_line dev 1;
        let pba = Sero.Layout.first_data_block (Sero.Device.layout dev) 1 in
        ignore (read_ok "prime" (Sero.Bcache.read_block bc ~pba));
        Sero.Device.unsafe_write_block dev ~pba "attacked";
        Alcotest.(check string)
          "reads what the medium holds" "attacked"
          (read_ok "after attack" (Sero.Bcache.read_block bc ~pba));
        (* The medium also wins over a buffered (dirty) write: the
           attack post-dates the acknowledged write, so flushing the
           stale buffer over it would repair evidence of tampering. *)
        (match Sero.Bcache.write_block bc ~pba "buffered then attacked" with
        | Ok () -> ()
        | Error e -> Alcotest.failf "write: %a" Sero.Device.pp_write_error e);
        Sero.Device.unsafe_write_block dev ~pba "attacked again";
        Sero.Bcache.sync bc;
        Alcotest.(check string)
          "dirty buffer dropped, not flushed over the attack"
          "attacked again"
          (read_ok "direct" (Sero.Device.read_block dev ~pba)));
    Alcotest.test_case "fault install: flush barrier, then bypass" `Quick
      (fun () ->
        let dev, _q, bc = make_cached () in
        fill_line dev 1;
        let pba = Sero.Layout.first_data_block (Sero.Device.layout dev) 1 in
        (match Sero.Bcache.write_block bc ~pba "durable before the plan" with
        | Ok () -> ()
        | Error e -> Alcotest.failf "write: %a" Sero.Device.pp_write_error e);
        Sero.Device.install_fault dev
          (Fault.Injector.create (Fault.Plan.make ()));
        (* The barrier pushed the buffered write through the healthy
           device before the plan armed. *)
        Alcotest.(check string)
          "flushed by the barrier" "durable before the plan"
          (read_ok "direct" (Sero.Device.read_block dev ~pba));
        ignore (read_ok "bypass" (Sero.Bcache.read_block bc ~pba));
        Alcotest.(check bool)
          "ops bypass while installed" true
          ((Sero.Bcache.stats bc).Sero.Bcache.bypasses >= 1);
        Sero.Device.clear_fault dev);
    Alcotest.test_case "hash blocks refuse buffered writes" `Quick (fun () ->
        let dev, _q, bc = make_cached () in
        let hash_pba = Sero.Layout.hash_block_of_line (Sero.Device.layout dev) 1 in
        match Sero.Bcache.write_block bc ~pba:hash_pba "no" with
        | Error Sero.Device.Reserved_hash_block -> ()
        | Ok () | Error _ -> Alcotest.fail "hash block write must refuse");
    Alcotest.test_case "capacity 0 caches nothing and counts bypasses" `Quick
      (fun () ->
        Alcotest.check_raises "negative capacity"
          (Invalid_argument "Bcache.create: capacity must be >= 0") (fun () ->
            let _, q, _ = make_cached () in
            ignore (Sero.Bcache.create ~capacity:(-1) q));
        let dev, _q, bc = make_cached ~capacity:0 ~read_ahead:8 () in
        let pba = Sero.Layout.first_data_block (Sero.Device.layout dev) 1 in
        let ops = ref 0 in
        let io r =
          incr ops;
          ignore (read_ok "capacity 0" r)
        in
        (match Sero.Bcache.write_block bc ~pba "one" with
        | Ok () -> incr ops
        | Error _ -> Alcotest.fail "write refused");
        io (Sero.Bcache.read_block bc ~pba);
        io (Sero.Bcache.read_block bc ~pba);
        (* A write under the cache: nothing is cached, so nothing to
           invalidate — and the next read sees it. *)
        Sero.Device.unsafe_write_block dev ~pba "two";
        Alcotest.(check string)
          "the medium is read" "two"
          (read_ok "after raw write" (Sero.Bcache.read_block bc ~pba));
        incr ops;
        Sero.Bcache.sync bc;
        let s = Sero.Bcache.stats bc in
        Alcotest.(check (list int))
          "hits, misses, invalidations, flushes, read-aheads" [ 0; 0; 0; 0; 0 ]
          Sero.Bcache.
            [ s.hits; s.misses; s.invalidations; s.flushes; s.read_aheads ];
        Alcotest.(check int) "every op bypassed" !ops s.Sero.Bcache.bypasses);
  ]

(* {2 The twin-device equivalence law}

   A cached device must be indistinguishable from an uncached one:
   same read payloads, same heat results, same tamper verdicts — under
   random interleavings of IO with scrub sweeps, raw-medium attacks,
   torn-burn recovery and the device going read-only.  A third twin,
   the capacity-0 cache, must be the queue exactly: every result,
   stats record, medium byte, PRNG position and queue counter.  Two
   qualifications make the cached law exact.
   Payload-level equality is the right notion: write-behind
   legitimately collapses generation counters, so frames differ
   bit-wise while every observable result is identical.  And
   device-side events (attacks, scrub, power cuts) are compared at
   flush boundaries: write-behind genuinely reorders acknowledged
   writes against concurrent medium mutations, so the executor settles
   the cache before each one — mid-stream, the cache's "medium wins"
   rule is pinned by a unit test instead. *)

type twin_op =
  | T_read of int
  | T_write of int * int
  | T_heat of int
  | T_verify of int
  | T_corrupt of int * int
  | T_heat_dots of int
  | T_scrub of int
  | T_torn_burn of int * int
  | T_read_only

let twin_equivalence =
  let n_blocks = 64 and line_exp = 3 in
  let lay = Sero.Layout.create ~n_blocks ~line_exp () in
  let n_lines = Sero.Layout.n_lines lay in
  let data_pbas =
    Array.of_list
      (List.concat_map
         (Sero.Layout.data_blocks_of_line lay)
         (List.init n_lines Fun.id))
  in
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun i -> T_read i) (int_range 0 (Array.length data_pbas - 1)));
          ( 6,
            map2
              (fun i tag -> T_write (i, tag))
              (int_range 0 (Array.length data_pbas - 1))
              (int_range 0 999) );
          (2, map (fun l -> T_heat l) (int_range 0 (n_lines - 1)));
          (2, map (fun l -> T_verify l) (int_range 0 (n_lines - 1)));
          ( 1,
            map2
              (fun i tag -> T_corrupt (i, tag))
              (int_range 0 (Array.length data_pbas - 1))
              (int_range 0 999) );
          (1, map (fun l -> T_heat_dots l) (int_range 0 (n_lines - 1)));
          (1, map (fun l -> T_scrub l) (int_range 0 (n_lines - 1)));
          ( 1,
            map2
              (fun l k -> T_torn_burn (l, k))
              (int_range 0 (n_lines - 1))
              (int_range 50 1500) );
          (1, return T_read_only);
        ])
  in
  let print_op = function
    | T_read i -> Printf.sprintf "read %d" i
    | T_write (i, t) -> Printf.sprintf "write %d #%d" i t
    | T_heat l -> Printf.sprintf "heat %d" l
    | T_verify l -> Printf.sprintf "verify %d" l
    | T_corrupt (i, t) -> Printf.sprintf "corrupt %d #%d" i t
    | T_heat_dots l -> Printf.sprintf "heat_dots %d" l
    | T_scrub l -> Printf.sprintf "scrub %d" l
    | T_torn_burn (l, k) -> Printf.sprintf "torn_burn %d @%d" l k
    | T_read_only -> "read_only"
  in
  let equal_read r1 r2 =
    match (r1, r2) with
    | Ok a, Ok b -> String.equal (unpad a) (unpad b)
    | Error _, Error _ -> true
    | Ok _, Error _ | Error _, Ok _ -> false
  in
  let equal_heat r1 r2 =
    match (r1, r2) with
    | Ok a, Ok b -> Hash.Sha256.equal a b
    | Error _, Error _ -> true
    | Ok _, Error _ | Error _, Ok _ -> false
  in
  let payload_of tag pba = Printf.sprintf "twin %d @%d" tag pba in
  QCheck.Test.make ~name:"cached == uncached for every observable result"
    ~count:60
    QCheck.(
      make
        Gen.(
          triple (int_range 4 32) (int_range 0 8) (list_size (5 -- 40) op_gen))
        ~print:(fun (cap, ra, ops) ->
          Printf.sprintf "cap=%d ra=%d: %s" cap ra
            (String.concat "; " (List.map print_op ops))))
    (fun (capacity, read_ahead, ops) ->
      let mk () =
        Sero.Device.create (Sero.Device.default_config ~n_blocks ~line_exp ())
      in
      let dev_a = mk () and dev_b = mk () and dev_c = mk () in
      let q_a = Sero.Queue.create (Sim.Des.create ()) dev_a in
      let q_b = Sero.Queue.create (Sim.Des.create ()) dev_b in
      let q_c = Sero.Queue.create (Sim.Des.create ()) dev_c in
      let bc = Sero.Bcache.create ~capacity ~read_ahead q_b in
      let bc0 = Sero.Bcache.create ~capacity:0 ~read_ahead q_c in
      let settle () =
        Sero.Bcache.flush bc;
        Sero.Queue.drain q_b
      in
      let torn_burn dev line k =
        let inj =
          Fault.Injector.create (Fault.Plan.make ~power_cut_after_ewb:k ())
        in
        Sero.Device.install_fault dev inj;
        (match Sero.Device.heat_line dev ~line () with
        | exception Fault.Injector.Power_cut -> ()
        | Ok _ | Error _ -> ());
        Sero.Device.clear_fault dev;
        (* Recovery: re-heating completes the torn burn idempotently. *)
        Sero.Device.heat_line dev ~line ()
      in
      let step op =
        match op with
        | T_read i ->
            let pba = data_pbas.(i) in
            let r_a =
              Sero.Queue.await q_a (fun k -> Sero.Queue.submit_read q_a ~pba k)
            in
            equal_read r_a (Sero.Bcache.read_block bc ~pba)
            && r_a = Sero.Bcache.read_block bc0 ~pba
        | T_write (i, tag) ->
            let pba = data_pbas.(i) in
            let p = payload_of tag pba in
            let r_a =
              Sero.Queue.await q_a (fun k ->
                  Sero.Queue.submit_write q_a ~pba p k)
            and r_b = Sero.Bcache.write_block bc ~pba p
            and r_c = Sero.Bcache.write_block bc0 ~pba p in
            r_a = r_c
            &&
            (match (r_a, r_b) with
            | Ok (), Ok () | Error _, Error _ -> true
            | Ok (), Error _ | Error _, Ok () -> false)
        | T_heat l ->
            let r_a =
              Sero.Queue.await q_a (fun k ->
                  Sero.Queue.submit_heat_line q_a ~line:l k)
            in
            equal_heat r_a (Sero.Bcache.heat_line bc ~line:l ())
            &&
            (match (r_a, Sero.Bcache.heat_line bc0 ~line:l ()) with
            | Ok a, Ok c -> Hash.Sha256.equal a c
            | Error a, Error c -> a = c
            | Ok _, Error _ | Error _, Ok _ -> false)
        | T_verify l ->
            let v_a = Sero.Device.verify_line dev_a ~line:l in
            Sero.Tamper.equal_verdict v_a (Sero.Bcache.verify_line bc ~line:l)
            && Sero.Tamper.equal_verdict v_a
                 (Sero.Bcache.verify_line bc0 ~line:l)
        | T_corrupt (i, tag) ->
            (* Raw-medium attacks are compared at flush boundaries: a
               write-behind cache genuinely reorders acknowledged
               writes against concurrent medium mutations (the write
               may still be buffered when the attack lands), so no
               invalidation policy can reproduce the uncached
               interleaving mid-stream.  Settling the cache first
               makes the law exact; mid-stream the cache's own
               "medium wins" rule is pinned by a unit test. *)
            settle ();
            let pba = data_pbas.(i) in
            let p = "corrupt " ^ payload_of tag pba in
            List.iter
              (fun dev -> Sero.Device.unsafe_write_block dev ~pba p)
              [ dev_a; dev_b; dev_c ];
            true
        | T_heat_dots l ->
            (* 24 dots: past the scrub threshold but comfortably inside
               the RS budget, so reads of the wounded sector decode
               deterministically on both twins.  A larger wound sits at
               the decode boundary, where transient read noise — drawn
               from each device's own RNG stream — legitimately makes
               the outcome stochastic and the twins incomparable. *)
            settle ();
            let dot =
              Sero.Layout.block_first_dot lay
                (Sero.Layout.first_data_block lay l)
            in
            List.iter
              (fun dev -> Sero.Device.unsafe_heat_dots dev ~dot ~n:24)
              [ dev_a; dev_b; dev_c ];
            true
        | T_scrub l ->
            (* Scrub is device-side maintenance: it coordinates with
               the cache by flushing the line it is about to sweep
               (exactly as Fs.sync does before a checkpoint). *)
            settle ();
            let sweep dev =
              let progress = Sero.Scrub.progress_create () in
              Sero.Scrub.sweep_line dev progress ~line:l
            in
            List.iter sweep [ dev_a; dev_b; dev_c ];
            true
        | T_torn_burn (l, k) ->
            (* The power-cut plan and recovery drive the device
               directly (a fault escaping mid-pump would wedge the
               queue), so this too is a flush-boundary comparison. *)
            settle ();
            let r_a = torn_burn dev_a l k in
            equal_heat r_a (torn_burn dev_b l k)
            && equal_heat r_a (torn_burn dev_c l k)
        | T_read_only ->
            (* The endurance state machine is device-side too: buffered
               writes land first, as they would have on the uncached
               twin before it went read-only. *)
            settle ();
            List.iter go_read_only [ dev_a; dev_b; dev_c ];
            true
      in
      let ok = List.for_all step ops in
      (* Final settle: everything buffered lands; the two media must
         then agree payload-for-payload and verdict-for-verdict. *)
      Sero.Bcache.sync bc;
      Sero.Bcache.sync bc0;
      Sero.Queue.drain q_a;
      (* The capacity-0 stack is the queue, exactly. *)
      let exact dev q =
        let m = Probe.Pdevice.medium (Sero.Device.pdevice dev) in
        let image = Bytes.create (Pmedia.Medium.packed_length m) in
        Pmedia.Medium.blit_packed m ~pos:0 ~dst:image ~dst_off:0
          ~len:(Bytes.length image);
        ( Sero.Device.stats dev,
          Bytes.to_string image,
          Sim.Prng.bits64 (Pmedia.Medium.rng m),
          Sero.Queue.
            ( completed q Foreground,
              completed q Background,
              coalesced_requests q,
              Sim.Stats.count (service q) ) )
      in
      let queue_equal = exact dev_a q_a = exact dev_c q_c in
      let media_equal =
        List.for_all
          (fun pba ->
            Sero.Layout.is_hash_block lay pba
            || equal_read
                 (Sero.Device.read_block dev_a ~pba)
                 (Sero.Device.read_block dev_b ~pba))
          (List.init n_blocks Fun.id)
        && List.for_all
             (fun l ->
               Sero.Tamper.equal_verdict
                 (Sero.Device.verify_line dev_a ~line:l)
                 (Sero.Device.verify_line dev_b ~line:l))
             (List.init n_lines Fun.id)
      in
      ok && media_equal && queue_equal)

(* {1 Endurance lifecycle}

   The health ledger, grown-defect remapping and evacuate-and-re-attest
   migration.  Unit cases drive the ledger directly (note_decode is the
   same call the read path makes); the qcheck law pins the twin-device
   property: with no wear, the lifecycle is an exact no-op. *)

let make_edev ?(n_blocks = 128) ?(line_exp = 3) ?(spare_lines = 4)
    ?(health_enabled = true) ?(retire_margin = 0.5) () =
  let base = Sero.Device.default_config ~n_blocks ~line_exp () in
  Sero.Device.create
    {
      base with
      Sero.Device.endurance =
        {
          Sero.Device.health_enabled;
          spare_lines;
          ewma_alpha = 0.4;
          retire_margin;
        };
    }

(* Push a line's EWMA past the retirement threshold the way the read
   path would: repeated high corrected-symbol observations. *)
let wound dev ~line ~corrected =
  let h = Sero.Device.health dev in
  for _ = 1 to 6 do
    Sero.Health.note_decode h ~line ~corrected
  done

(* Hostile images: a saved endurance image with a migration on it,
   truncated, bit-flipped or overwritten at 1-4 bytes, its CRC
   recomputed half the time.  Three mutations in four land before the
   packed states, in the geometry, config and endurance tables.  The
   loader must answer [Ok] or [Error], never raise. *)
let hostile_images =
  let image =
    lazy
      (let dev = make_edev ~n_blocks:64 () in
       fill_line dev 1;
       ignore (heat_ok dev 1);
       wound dev ~line:1 ~corrected:30;
       ignore (Sero.Device.maintenance dev ());
       let path = Filename.temp_file "sero" ".img" in
       let data =
         Fun.protect
           ~finally:(fun () -> Sys.remove path)
           (fun () ->
             Sero.Image.save dev path;
             In_channel.with_open_bin path In_channel.input_all)
       in
       let states =
         Pmedia.Medium.packed_length (Probe.Pdevice.medium (Sero.Device.pdevice dev))
       in
       (data, String.length data - 4 - states))
  in
  QCheck.Test.make ~name:"mutated images load as Ok or Error" ~count:400
    QCheck.(triple (int_range 0 2) bool (int_range 0 0x3FFFFFFF))
    (fun (kind, recrc, seed) ->
      let good, header = Lazy.force image in
      let rng = Random.State.make [| seed |] in
      let pos () =
        Random.State.int rng
          (if Random.State.int rng 4 < 3 then header else String.length good)
      in
      let b =
        match kind with
        | 0 -> Bytes.of_string (String.sub good 0 (pos ()))
        | _ ->
            let b = Bytes.of_string good in
            for _ = 1 to 1 + Random.State.int rng 4 do
              let at = pos () in
              let v =
                if kind = 1 then
                  Char.code (Bytes.get b at) lxor (1 lsl Random.State.int rng 8)
                else Random.State.int rng 256
              in
              Bytes.set b at (Char.chr v)
            done;
            b
      in
      let tl = Bytes.length b - 4 in
      if recrc && tl >= 0 then
        Bytes.set_int32_be b tl (Codec.Crc32.bytes b 0 tl);
      let path = Filename.temp_file "sero" ".img" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
          match Sero.Image.load path with Ok _ | Error _ -> true))

let read_all_data dev line =
  List.map
    (fun pba ->
      match Sero.Device.read_block dev ~pba with
      | Ok p -> (pba, Some p)
      | Error _ -> (pba, None))
    (Sero.Layout.data_blocks_of_line (Sero.Device.layout dev) line)

(* Writes [dev] as a legacy SEROIMG3 image: its SEROIMG4 save with the
   old magic, the endurance section (between the reserved u16 that ends
   the RAS profile and the states' [u32 n; u32 length] framing) cut out
   and the trailing CRC recomputed. *)
let save_v3 dev path =
  Sero.Image.save dev path;
  let v4 = In_channel.with_open_bin path In_channel.input_all in
  let module R = Codec.Binio.R in
  let r = R.of_string ~off:8 v4 in
  let skip n read =
    for _ = 1 to n do
      ignore (read r)
    done
  in
  skip 1 R.u32;
  skip 1 R.u8;
  skip 1 R.u16;
  skip 1 R.u32;
  skip 4 R.f64;
  skip 1 R.str;
  skip 3 R.f64;
  skip 1 R.u16;
  skip 5 R.f64;
  skip 6 R.u8;
  skip 1 R.u16;
  let endurance_at = R.pos r in
  let packed =
    Pmedia.Medium.packed_length (Probe.Pdevice.medium (Sero.Device.pdevice dev))
  in
  let body_len = String.length v4 - 4 in
  let states_at = body_len - packed - 8 in
  let body =
    "SEROIMG3"
    ^ String.sub v4 8 (endurance_at - 8)
    ^ String.sub v4 states_at (body_len - states_at)
  in
  let w = Codec.Binio.W.create () in
  Codec.Binio.W.u32 w (Int32.to_int (Codec.Crc32.string body) land 0xFFFFFFFF);
  Out_channel.with_open_bin path (fun oc ->
      output_string oc body;
      output_string oc (Codec.Binio.W.contents w))

let endurance_cases =
  [
    Alcotest.test_case "retirement remaps the line onto a spare" `Quick
      (fun () ->
        let dev = make_edev () in
        let usable = Sero.Layout.usable_lines (Sero.Device.layout dev) in
        fill_line dev 1;
        let before = read_all_data dev 1 in
        wound dev ~line:1 ~corrected:30;
        Alcotest.(check bool) "due" true (Sero.Device.line_due dev ~line:1);
        Alcotest.(check (option int)) "next_due" (Some 1)
          (Sero.Device.next_due dev);
        (match Sero.Device.maintenance dev () with
        | [ m ] ->
            Alcotest.(check int) "logical line" 1 m.Sero.Device.m_line;
            Alcotest.(check bool) "cold line" false m.Sero.Device.m_heated
        | ms -> Alcotest.failf "expected 1 migration, got %d" (List.length ms));
        Alcotest.(check bool) "rehomed in the spare region" true
          (Sero.Device.phys_of_line dev ~line:1 >= usable);
        Alcotest.(check int) "one spare consumed" 3
          (Sero.Device.spares_left dev);
        Alcotest.(check (float 1e-9)) "ledger reset at the new home" 1.
          (Sero.Device.line_margin dev ~line:1);
        Alcotest.(check bool) "no longer due" false
          (Sero.Device.line_due dev ~line:1);
        (* The logical address space is untouched: same PBAs, same
           payloads. *)
        List.iter2
          (fun (pba, p0) (pba', p1) ->
            Alcotest.(check int) "pba" pba pba';
            match (p0, p1) with
            | Some a, Some b -> Alcotest.(check string) "payload" a b
            | _ -> Alcotest.failf "pba %d lost in migration" pba)
          before (read_all_data dev 1));
    Alcotest.test_case "heated line re-attests to the identical hash" `Quick
      (fun () ->
        let dev = make_edev () in
        fill_line dev 2;
        let h0 = heat_ok dev 2 in
        wound dev ~line:2 ~corrected:30;
        (match Sero.Device.evacuate_line dev ~line:2 ~timestamp:9. () with
        | Ok m ->
            Alcotest.(check bool) "heated" true m.Sero.Device.m_heated;
            (match m.Sero.Device.m_hash with
            | Some h -> Alcotest.(check bool) "same hash" true (Hash.Sha256.equal h h0)
            | None -> Alcotest.fail "heated migration lost its hash")
        | Error e -> Alcotest.failf "evacuate: %a" Sero.Device.pp_migrate_error e);
        Alcotest.(check bool) "intact at the new home" true
          (Sero.Tamper.equal_verdict
             (Sero.Device.verify_line dev ~line:2)
             Sero.Tamper.Intact));
    Alcotest.test_case "tampered line refuses to migrate" `Quick (fun () ->
        let dev = make_edev () in
        fill_line dev 3;
        ignore (heat_ok dev 3);
        let pba =
          Sero.Layout.first_data_block (Sero.Device.layout dev) 3
        in
        Sero.Device.unsafe_write_block dev ~pba "evidence must not move";
        wound dev ~line:3 ~corrected:30;
        (match Sero.Device.evacuate_line dev ~line:3 () with
        | Error Sero.Device.Reattest_failed -> ()
        | Ok _ -> Alcotest.fail "tamper evidence laundered onto a spare"
        | Error e -> Alcotest.failf "unexpected: %a" Sero.Device.pp_migrate_error e);
        Alcotest.(check int) "no spare consumed" 4
          (Sero.Device.spares_left dev);
        Alcotest.(check int) "refusal counted" 1
          (Sero.Device.stats dev).Sero.Device.reattest_failures);
    Alcotest.test_case "carcass classifies Retired_block, scrub skips it"
      `Quick (fun () ->
        let dev = make_edev () in
        let lay = Sero.Device.layout dev in
        let usable = Sero.Layout.usable_lines lay in
        fill_line dev 1;
        wound dev ~line:1 ~corrected:30;
        (match Sero.Device.maintenance dev () with
        | [ _ ] -> ()
        | ms -> Alcotest.failf "expected 1 migration, got %d" (List.length ms));
        let carcass =
          List.find
            (fun l -> Sero.Device.quarantined dev ~line:l)
            (List.init
               (Sero.Layout.n_lines lay - usable)
               (fun i -> usable + i))
        in
        (match
           Sero.Device.classify_block dev
             ~pba:(Sero.Layout.first_data_block lay carcass)
         with
        | Sero.Device.Retired_block -> ()
        | c ->
            Alcotest.failf "carcass classified %a" Sero.Device.pp_block_class
              c);
        let progress = Sero.Scrub.progress_create () in
        Sero.Scrub.sweep_line dev progress ~line:carcass;
        Sero.Scrub.sweep_line dev progress ~line:0;
        let r = Sero.Scrub.report_of_progress progress in
        Alcotest.(check int) "spare region skipped" 1 r.Sero.Scrub.retired_skipped;
        Alcotest.(check int) "only the usable line swept" 1
          r.Sero.Scrub.lines_swept);
    Alcotest.test_case "spare exhaustion degrades; critical line -> read-only"
      `Quick (fun () ->
        let dev = make_edev ~spare_lines:1 () in
        fill_line dev 0;
        wound dev ~line:0 ~corrected:30;
        ignore (Sero.Device.maintenance dev ());
        Alcotest.(check int) "spares gone" 0 (Sero.Device.spares_left dev);
        Alcotest.(check bool) "degraded" true
          (Sero.Device.device_state dev = Sero.Device.Degraded);
        (* A second line goes critical (margin <= 0) with nowhere to
           go: the device stops taking writes. *)
        wound dev ~line:2 ~corrected:100;
        ignore (Sero.Device.maintenance dev ());
        Alcotest.(check bool) "read-only" true
          (Sero.Device.device_state dev = Sero.Device.Read_only);
        (match Sero.Device.write_block dev ~pba:17 "refused" with
        | Error Sero.Device.Read_only_device -> ()
        | Ok () -> Alcotest.fail "read-only device accepted a write"
        | Error e -> Alcotest.failf "unexpected: %a" Sero.Device.pp_write_error e);
        match Sero.Device.read_block dev ~pba:(Sero.Layout.first_data_block (Sero.Device.layout dev) 0) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "read-only device must read: %a" Sero.Device.pp_read_error e);
    Alcotest.test_case "crash mid-migration: torn re-burn recovers" `Quick
      (fun () ->
        let dev = make_edev () in
        fill_line dev 2;
        let h0 =
          match Sero.Device.heat_line dev ~line:2 ~timestamp:7. () with
          | Ok h -> h
          | Error e -> Alcotest.failf "heat: %a" Sero.Device.pp_heat_error e
        in
        let before = read_all_data dev 2 in
        wound dev ~line:2 ~corrected:30;
        (* Power cut mid re-burn: the remap committed (pre-imaged data
           serves from the spare) but the new write-once area is torn. *)
        let inj =
          Fault.Injector.create (Fault.Plan.make ~power_cut_after_ewb:500 ())
        in
        Sero.Device.install_fault dev inj;
        (match Sero.Device.evacuate_line dev ~line:2 ~timestamp:8. () with
        | exception Fault.Injector.Power_cut -> ()
        | Ok _ -> Alcotest.fail "power cut never fired"
        | Error e -> Alcotest.failf "evacuate: %a" Sero.Device.pp_migrate_error e);
        Sero.Device.clear_fault dev;
        Alcotest.(check int) "remap committed before the cut" 1
          (List.length (Sero.Device.migrations dev));
        (* Recovery is the ordinary torn-burn completion: re-heating
           fills the missing cells to the identical hash. *)
        (match Sero.Device.heat_line dev ~line:2 ~timestamp:7. () with
        | Ok h -> Alcotest.(check bool) "same hash" true (Hash.Sha256.equal h h0)
        | Error e -> Alcotest.failf "recover: %a" Sero.Device.pp_heat_error e);
        Alcotest.(check bool) "intact after recovery" true
          (Sero.Tamper.equal_verdict
             (Sero.Device.verify_line dev ~line:2)
             Sero.Tamper.Intact);
        List.iter2
          (fun (pba, p0) (pba', p1) ->
            Alcotest.(check int) "pba" pba pba';
            match (p0, p1) with
            | Some a, Some b -> Alcotest.(check string) "payload" a b
            | _ -> Alcotest.failf "pba %d lost across the cut" pba)
          before (read_all_data dev 2));
    Alcotest.test_case "queue retries with backoff, then abandons" `Quick
      (fun () ->
        let dev = make_dev () in
        let des = Sim.Des.create () in
        let q =
          Sero.Queue.create ~read_retry_limit:3 ~retry_backoff:1e-4 des dev
        in
        let got = ref None in
        (* A blank PBA fails deterministically on every attempt. *)
        Sero.Queue.submit_read q ~pba:17 (fun r -> got := Some r);
        Sero.Queue.drain q;
        (match !got with
        | Some (Error _) -> ()
        | Some (Ok _) -> Alcotest.fail "blank read succeeded"
        | None -> Alcotest.fail "callback never fired");
        Alcotest.(check int) "re-served twice" 2 (Sero.Queue.retried_reads q);
        Alcotest.(check int) "abandoned once" 1 (Sero.Queue.abandoned_reads q);
        (* A good read is untouched by the retry machinery. *)
        ignore (Sero.Device.write_block dev ~pba:9 "fine");
        let ok = ref false in
        Sero.Queue.submit_read q ~pba:9 (fun r -> ok := Result.is_ok r);
        Sero.Queue.drain q;
        Alcotest.(check bool) "good read ok" true !ok;
        Alcotest.(check int) "no extra retries" 2 (Sero.Queue.retried_reads q));
    Alcotest.test_case "image v4 roundtrips endurance state" `Quick (fun () ->
        let dev = make_edev () in
        fill_line dev 2;
        ignore (heat_ok dev 2);
        wound dev ~line:2 ~corrected:30;
        (match Sero.Device.maintenance dev () with
        | [ _ ] -> ()
        | ms -> Alcotest.failf "expected 1 migration, got %d" (List.length ms));
        wound dev ~line:5 ~corrected:4;
        let path = Filename.temp_file "sero" ".img" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Sero.Image.save dev path;
            match Sero.Image.load path with
            | Error e -> Alcotest.failf "load: %s" e
            | Ok dev2 ->
                Alcotest.(check int) "spares" (Sero.Device.spares_left dev)
                  (Sero.Device.spares_left dev2);
                Alcotest.(check int) "remap"
                  (Sero.Device.phys_of_line dev ~line:2)
                  (Sero.Device.phys_of_line dev2 ~line:2);
                Alcotest.(check (float 1e-9)) "ledger ewma survives"
                  (Sero.Device.line_margin dev ~line:5)
                  (Sero.Device.line_margin dev2 ~line:5);
                (match Sero.Device.migrations dev2 with
                | [ m ] ->
                    Alcotest.(check int) "m_line" 2 m.Sero.Device.m_line;
                    Alcotest.(check bool) "m_heated" true m.Sero.Device.m_heated
                | ms ->
                    Alcotest.failf "expected 1 migration, got %d"
                      (List.length ms));
                Alcotest.(check bool) "still intact" true
                  (Sero.Tamper.equal_verdict
                     (Sero.Device.verify_line dev2 ~line:2)
                     Sero.Tamper.Intact)));
    Alcotest.test_case "v3 images still load (endurance defaults off)" `Quick
      (fun () ->
        let dev = make_dev () in
        fill_line dev 2;
        ignore (heat_ok dev 2);
        let path = Filename.temp_file "sero" ".img" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            save_v3 dev path;
            match Sero.Image.load path with
            | Error e -> Alcotest.failf "load v3: %s" e
            | Ok dev2 ->
                Alcotest.(check int) "no spares" 0 (Sero.Device.spares_left dev2);
                Alcotest.(check bool) "lifecycle off" true
                  (Sero.Device.device_state dev2 = Sero.Device.Healthy);
                Alcotest.(check bool) "intact" true
                  (Sero.Tamper.equal_verdict
                     (Sero.Device.verify_line dev2 ~line:2)
                     Sero.Tamper.Intact)));
  ]

(* The twin-device law: under a wear-free workload the lifecycle arm
   (health on) and the baseline arm (health off, same spare reserve, so
   identical usable geometry) agree on every observable result, and the
   lifecycle never migrates anything. *)
type end_op = E_read of int | E_write of int * int | E_heat of int | E_verify of int

let endurance_twin =
  let n_blocks = 64 and line_exp = 3 and spare_lines = 2 in
  let lay = Sero.Layout.create ~spare_lines ~n_blocks ~line_exp () in
  let usable = Sero.Layout.usable_lines lay in
  let data_pbas =
    Array.of_list
      (List.concat_map
         (Sero.Layout.data_blocks_of_line lay)
         (List.init usable Fun.id))
  in
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun i -> E_read i) (int_range 0 (Array.length data_pbas - 1)));
          ( 4,
            map2
              (fun i tag -> E_write (i, tag))
              (int_range 0 (Array.length data_pbas - 1))
              (int_range 0 999) );
          (2, map (fun l -> E_heat l) (int_range 0 (usable - 1)));
          (2, map (fun l -> E_verify l) (int_range 0 (usable - 1)));
        ])
  in
  let print_op = function
    | E_read i -> Printf.sprintf "read %d" i
    | E_write (i, t) -> Printf.sprintf "write %d #%d" i t
    | E_heat l -> Printf.sprintf "heat %d" l
    | E_verify l -> Printf.sprintf "verify %d" l
  in
  QCheck.Test.make ~name:"lifecycle on == lifecycle off without wear" ~count:60
    QCheck.(
      make
        Gen.(list_size (5 -- 40) op_gen)
        ~print:(fun ops -> String.concat "; " (List.map print_op ops)))
    (fun ops ->
      let mk health_enabled =
        let base = Sero.Device.default_config ~n_blocks ~line_exp () in
        Sero.Device.create
          {
            base with
            Sero.Device.endurance =
              {
                Sero.Device.health_enabled;
                spare_lines;
                ewma_alpha = 0.4;
                retire_margin = 0.5;
              };
          }
      in
      let dev_on = mk true and dev_off = mk false in
      let step op =
        match op with
        | E_read i ->
            let pba = data_pbas.(i) in
            (match
               (Sero.Device.read_block dev_on ~pba,
                Sero.Device.read_block dev_off ~pba)
             with
            | Ok a, Ok b -> String.equal a b
            | Error _, Error _ -> true
            | Ok _, Error _ | Error _, Ok _ -> false)
        | E_write (i, tag) ->
            let pba = data_pbas.(i) in
            let p = Printf.sprintf "twin %d @%d" tag pba in
            (match
               (Sero.Device.write_block dev_on ~pba p,
                Sero.Device.write_block dev_off ~pba p)
             with
            | Ok (), Ok () | Error _, Error _ -> true
            | Ok (), Error _ | Error _, Ok () -> false)
        | E_heat l ->
            (match
               (Sero.Device.heat_line dev_on ~line:l (),
                Sero.Device.heat_line dev_off ~line:l ())
             with
            | Ok a, Ok b -> Hash.Sha256.equal a b
            | Error _, Error _ -> true
            | Ok _, Error _ | Error _, Ok _ -> false)
        | E_verify l ->
            Sero.Tamper.equal_verdict
              (Sero.Device.verify_line dev_on ~line:l)
              (Sero.Device.verify_line dev_off ~line:l)
      in
      let ok = List.for_all step ops in
      ignore (Sero.Device.maintenance dev_on ());
      ok
      && Sero.Device.migrations dev_on = []
      && Sero.Device.spares_left dev_on = spare_lines
      && Sero.Device.device_state dev_on = Sero.Device.Healthy
      && List.for_all
           (fun l ->
             Sero.Device.phys_of_line dev_on ~line:l
             = Sero.Device.phys_of_line dev_off ~line:l)
           (List.init (Sero.Layout.n_lines lay) Fun.id))

(* {1 Packed kernels vs per-dot loops, above the probe}

   A healthy device serves sectors through the packed run kernels (and
   coalesced spans through one kernel pass).  A twin with an empty-plan
   injector runs the same kernels and credits their ticks in bulk; a
   twin whose plan has a stuck rate so small it never fires (a dot is
   stuck only when its hashed draw is exactly 0, odds 2^-53) is never
   cleared as inert, so it takes every per-dot path.  All three must
   agree on every result and every ledger, the two injectors on their
   op count, and the per-dot twin's ledger must stay empty — the check
   that its plan changed nothing. *)

let never_stuck = Fault.Plan.make ~stuck_rate:Float.min_float ()

type dot_op =
  | D_write of int * int
  | D_read of int
  | D_read_span of int * int
  | D_heat of int
  | D_verify of int
  | D_raw_write of int * int
  | D_heat_dots of int * int
  | D_torn of int * int * int

let packed_vs_per_dot =
  let n_blocks = 64 and line_exp = 3 in
  let lay = Sero.Layout.create ~n_blocks ~line_exp () in
  let n_lines = Sero.Layout.n_lines lay in
  let n_dots = n_blocks * Sero.Layout.block_dots in
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          ( 4,
            map2 (fun p t -> D_write (p, t)) (int_range 0 (n_blocks - 1))
              (int_range 0 999) );
          (3, map (fun p -> D_read p) (int_range 0 (n_blocks - 1)));
          ( 3,
            map2
              (fun p n -> D_read_span (p, min n (n_blocks - p)))
              (int_range 0 (n_blocks - 1))
              (int_range 1 8) );
          (2, map (fun l -> D_heat l) (int_range 0 (n_lines - 1)));
          (2, map (fun l -> D_verify l) (int_range 0 (n_lines - 1)));
          ( 1,
            map2 (fun p t -> D_raw_write (p, t)) (int_range 0 (n_blocks - 1))
              (int_range 0 999) );
          ( 1,
            map2
              (fun d n -> D_heat_dots (d, min n (n_dots - d)))
              (int_range 0 (n_dots - 1))
              (int_range 1 64) );
          ( 1,
            map3
              (fun l c t -> D_torn (l, c, t))
              (int_range 0 (n_lines - 1))
              (int_range 1 ((8 * Sero.Layout.wo_area_bytes) - 1))
              (int_range 0 999) );
        ])
  in
  let print_op = function
    | D_write (p, t) -> Printf.sprintf "write %d #%d" p t
    | D_read p -> Printf.sprintf "read %d" p
    | D_read_span (p, n) -> Printf.sprintf "read_blocks %d+%d" p n
    | D_heat l -> Printf.sprintf "heat %d" l
    | D_verify l -> Printf.sprintf "verify %d" l
    | D_raw_write (p, t) -> Printf.sprintf "unsafe_write %d #%d" p t
    | D_heat_dots (d, n) -> Printf.sprintf "heat_dots %d+%d" d n
    | D_torn (l, c, t) -> Printf.sprintf "torn %d cells %d #%d" l c t
  in
  let read_face = function
    | Ok s -> s
    | Error e -> Format.asprintf "%a" Sero.Device.pp_read_error e
  in
  let step dev = function
    | D_write (pba, t) -> (
        match Sero.Device.write_block dev ~pba (Printf.sprintf "twin %d" t) with
        | Ok () -> "ok"
        | Error e -> Format.asprintf "%a" Sero.Device.pp_write_error e)
    | D_read pba -> read_face (Sero.Device.read_block dev ~pba)
    | D_read_span (pba, n) ->
        String.concat "|"
          (Array.to_list
             (Array.map read_face (Sero.Device.read_blocks dev ~pba ~n)))
    | D_heat line -> (
        match Sero.Device.heat_line dev ~line () with
        | Ok h -> Hash.Sha256.to_hex h
        | Error e -> Format.asprintf "%a" Sero.Device.pp_heat_error e)
    | D_verify line ->
        Format.asprintf "%a" Sero.Tamper.pp_verdict
          (Sero.Device.verify_line dev ~line)
    | D_raw_write (pba, t) ->
        Sero.Device.unsafe_write_block dev ~pba (Printf.sprintf "raw %d" t);
        ""
    | D_heat_dots (dot, n) ->
        Sero.Device.unsafe_heat_dots dev ~dot ~n;
        ""
    | D_torn (line, cells, t) ->
        (* An attacker's burn of the first [cells] cells, one dot at a
           time: a torn area of some payload. *)
        let pattern =
          Codec.Manchester.encode
            (String.init Sero.Layout.wo_area_bytes (fun i ->
                 Char.chr (((i * 7) + t) land 255)))
        in
        let first = Sero.Layout.wo_first_dot lay ~line in
        for d = 0 to (2 * cells) - 1 do
          if pattern.(d) then Sero.Device.unsafe_heat_dots dev ~dot:(first + d) ~n:1
        done;
        ""
  in
  let state dev =
    let pd = Sero.Device.pdevice dev in
    let m = Probe.Pdevice.medium pd in
    let image = Bytes.create (Pmedia.Medium.packed_length m) in
    Pmedia.Medium.blit_packed m ~pos:0 ~dst:image ~dst_off:0
      ~len:(Bytes.length image);
    let c = Pmedia.Bitops.counters (Probe.Pdevice.bitops pd) in
    ( Bytes.to_string image,
      (Probe.Pdevice.elapsed pd, Probe.Pdevice.energy pd),
      Pmedia.Bitops.(c.mrb, c.mwb, c.ewb, c.erb, c.collateral),
      Sero.Device.stats dev,
      Sim.Prng.bits64 (Pmedia.Medium.rng m) )
  in
  (* One erb cycle misses a heated dot a quarter of the time, so a
     burned area reads with phantom blanks and the device's re-probe
     loop runs on both twins. *)
  QCheck.Test.make ~name:"packed kernels == per-dot loops, device twin"
    ~count:40
    QCheck.(
      make
        Gen.(pair (oneofl [ 8; 1 ]) (list_size (5 -- 30) op_gen))
        ~print:(fun (erb_cycles, ops) ->
          Printf.sprintf "erb_cycles %d: %s" erb_cycles
            (String.concat "; " (List.map print_op ops))))
    (fun (erb_cycles, ops) ->
      let mk () =
        Sero.Device.create
          {
            (Sero.Device.default_config ~n_blocks ~line_exp ()) with
            Sero.Device.erb_cycles;
          }
      in
      let packed = mk () and inert = mk () and per_dot = mk () in
      let inert_inj = Fault.Injector.create (Fault.Plan.make ())
      and per_dot_inj = Fault.Injector.create never_stuck in
      Sero.Device.install_fault inert inert_inj;
      Sero.Device.install_fault per_dot per_dot_inj;
      List.for_all
        (fun op ->
          let a = step packed op in
          String.equal a (step inert op) && String.equal a (step per_dot op))
        ops
      && (let s = state inert in
          s = state packed && s = state per_dot)
      && Fault.Injector.ops inert_inj = Fault.Injector.ops per_dot_inj
      && Fault.Injector.ledger_to_string per_dot_inj = "")

(* {1 CoW device clones} *)

(* Read every data block and verify every line — the clone-observable
   face of a device, used to compare clones byte-for-byte. *)
let device_face dev =
  let lay = Sero.Device.layout dev in
  let reads =
    List.concat_map
      (fun line ->
        List.map
          (fun pba ->
            match Sero.Device.read_block dev ~pba with
            | Ok s -> s
            | Error _ -> "<error>")
          (Sero.Layout.data_blocks_of_line lay line))
      (List.init (Sero.Layout.n_lines lay) Fun.id)
  in
  let verdicts =
    List.init (Sero.Layout.n_lines lay) (fun line ->
        Format.asprintf "%a" Sero.Tamper.pp_verdict
          (Sero.Device.verify_line dev ~line))
  in
  (reads, verdicts)

let clone_parent_churn =
  (* Whatever happens to the parent after the snapshot — writes, heats,
     scrub passes, even injected faults — two clones taken at the same
     instant stay identical to each other and to the pre-churn state. *)
  QCheck.Test.make ~name:"clones are frozen against parent churn" ~count:15
    QCheck.(small_list (pair (int_range 0 3) (int_range 0 1_000)))
    (fun script ->
      let dev = make_dev ~n_blocks:64 () in
      let lay = Sero.Device.layout dev in
      let n_lines = Sero.Layout.n_lines lay in
      fill_line dev 0;
      fill_line dev 1;
      ignore (heat_ok dev 0);
      let c1 = Sero.Device.clone dev and c2 = Sero.Device.clone dev in
      let before = device_face c1 in
      List.iter
        (fun (op, x) ->
          match op with
          | 0 ->
              let line = x mod n_lines in
              let pba = List.hd (Sero.Layout.data_blocks_of_line lay line) in
              ignore (Sero.Device.write_block dev ~pba (Printf.sprintf "churn %d" x))
          | 1 -> ignore (Sero.Device.heat_line dev ~line:(x mod n_lines) ())
          | 2 -> ignore (Sero.Scrub.pass dev)
          | _ ->
              Sero.Device.unsafe_heat_dots dev
                ~dot:(Sero.Layout.block_first_dot lay (x mod 64))
                ~n:8)
        script;
      device_face c1 = before && device_face c2 = before)

let clone_rearm_isolation =
  (* Re-arming a clone with its own fault plan must not let any parent
     state cross the boundary: whatever evidence the armed parent
     accumulates (tampers, injected flips), a clone taken afterwards —
     with or without its own plan — starts with a clean face and an
     empty (or fresh) ledger. *)
  QCheck.Test.make ~name:"clone ?plan re-arm keeps parent evidence out"
    ~count:15
    QCheck.(triple (int_range 0 1_000) (int_range 0 63) bool)
    (fun (seed, victim_blk, rearm) ->
      let dev = make_dev ~n_blocks:64 () in
      let lay = Sero.Device.layout dev in
      fill_line dev 0;
      ignore (heat_ok dev 0);
      let face = device_face dev in
      Sero.Device.install_fault dev
        (Fault.Injector.create (Fault.Plan.make ~seed ~read_ber:0.3 ()));
      (* Churn the parent through its noisy channel before snapshotting,
         so its injector has position state a naive fork would share. *)
      List.iter
        (fun pba -> ignore (Sero.Device.read_block dev ~pba))
        (Sero.Layout.data_blocks_of_line lay 0);
      let plan =
        if rearm then Some (Fault.Plan.make ~seed:(seed + 1) ()) else None
      in
      let clone = Sero.Device.clone ?plan dev in
      (* Attack the parent after the snapshot: none of it may show. *)
      Sero.Device.unsafe_heat_dots dev
        ~dot:(Sero.Layout.block_first_dot lay (victim_blk mod 64))
        ~n:600;
      let clone_inj_fresh =
        match Probe.Pdevice.fault (Sero.Device.pdevice clone) with
        | None -> not rearm
        | Some inj -> rearm && Fault.Injector.ledger_to_string inj = ""
      in
      if rearm then Sero.Device.clear_fault clone;
      clone_inj_fresh && device_face clone = face)

let clone_cases =
  [
    Alcotest.test_case "clone reads the parent's bytes, CoW-lazily" `Quick
      (fun () ->
        let dev = make_dev ~n_blocks:64 () in
        fill_line dev 1;
        ignore (heat_ok dev 1);
        let clone = Sero.Device.clone dev in
        let med =
          Probe.Pdevice.medium (Sero.Device.pdevice clone)
        in
        Alcotest.(check int) "no private segments at rest" 0
          (Pmedia.Medium.owned_segments med);
        Alcotest.(check (pair (list string) (list string)))
          "same face" (device_face dev) (device_face clone);
        Alcotest.(check int) "reading materialised nothing" 0
          (Pmedia.Medium.owned_segments med));
    Alcotest.test_case "clone writes never reach the parent" `Quick (fun () ->
        let dev = make_dev ~n_blocks:64 () in
        fill_line dev 1;
        let face = device_face dev in
        let clone = Sero.Device.clone dev in
        let pba =
          List.hd (Sero.Layout.data_blocks_of_line (Sero.Device.layout clone) 2)
        in
        (match Sero.Device.write_block clone ~pba "private to the clone" with
        | Ok () -> ()
        | Error e -> Alcotest.failf "write: %a" Sero.Device.pp_write_error e);
        ignore (heat_ok clone 1);
        Alcotest.(check (pair (list string) (list string)))
          "parent unchanged" face (device_face dev);
        Alcotest.(check bool) "parent line 1 still WMRM" false
          (Sero.Device.is_line_heated dev ~line:1));
    Alcotest.test_case "tamper evidence never crosses the clone boundary"
      `Quick (fun () ->
        let dev = make_dev ~n_blocks:64 () in
        fill_line dev 0;
        ignore (heat_ok dev 0);
        let lay = Sero.Device.layout dev in
        let victim = List.nth (Sero.Layout.data_blocks_of_line lay 0) 1 in
        let clean = Sero.Device.clone dev and evil = Sero.Device.clone dev in
        (* Attack the parent: its evidence must not appear in clones. *)
        Sero.Device.unsafe_heat_dots dev
          ~dot:(Sero.Layout.block_first_dot lay victim)
          ~n:600;
        Alcotest.(check bool) "parent tampered" true
          (Sero.Tamper.is_tampered (Sero.Device.verify_line dev ~line:0));
        Alcotest.(check bool) "clean clone intact" false
          (Sero.Tamper.is_tampered (Sero.Device.verify_line clean ~line:0));
        (* Attack a sibling: evidence must not launder into the other. *)
        Sero.Device.unsafe_heat_dots evil
          ~dot:(Sero.Layout.block_first_dot lay victim)
          ~n:600;
        Alcotest.(check bool) "evil clone tampered" true
          (Sero.Tamper.is_tampered (Sero.Device.verify_line evil ~line:0));
        Alcotest.(check bool) "sibling still intact" false
          (Sero.Tamper.is_tampered (Sero.Device.verify_line clean ~line:0)));
    Alcotest.test_case "listeners are not inherited" `Quick (fun () ->
        let dev = make_dev ~n_blocks:64 () in
        let hits = ref 0 in
        Sero.Device.add_mutation_listener dev (fun ~pba:_ ~n:_ -> incr hits);
        Sero.Device.on_fault_install dev (fun () -> incr hits);
        let clone = Sero.Device.clone dev in
        let pba =
          List.hd (Sero.Layout.data_blocks_of_line (Sero.Device.layout clone) 1)
        in
        (match Sero.Device.write_block clone ~pba "quiet" with
        | Ok () -> ()
        | Error e -> Alcotest.failf "write: %a" Sero.Device.pp_write_error e);
        Sero.Device.install_fault clone
          (Fault.Injector.create (Fault.Plan.make ()));
        Alcotest.(check int) "parent listeners silent" 0 !hits);
    Alcotest.test_case "a parent's live injector is never inherited" `Quick
      (fun () ->
        let dev = make_dev ~n_blocks:64 () in
        Sero.Device.install_fault dev
          (Fault.Injector.create (Fault.Plan.make ~seed:7 ~read_ber:0.5 ()));
        let clone = Sero.Device.clone dev in
        Alcotest.(check bool) "clone starts fault-free" false
          (Sero.Device.fault_installed clone);
        Alcotest.(check bool) "parent still armed" true
          (Sero.Device.fault_installed dev));
    Alcotest.test_case "clone ?plan arms a fresh injector on the clone"
      `Quick (fun () ->
        let dev = make_dev ~n_blocks:64 () in
        fill_line dev 1;
        let face = device_face dev in
        let plan = Fault.Plan.make ~seed:11 ~read_ber:0.2 () in
        let faulty = Sero.Device.clone ~plan dev in
        Alcotest.(check bool) "clone armed" true
          (Sero.Device.fault_installed faulty);
        Alcotest.(check bool) "parent untouched" false
          (Sero.Device.fault_installed dev);
        (* Drive reads through the clone's noisy channel; the injector's
           ledger lives on the clone and the parent reads stay clean. *)
        let lay = Sero.Device.layout faulty in
        List.iter
          (fun pba -> ignore (Sero.Device.read_block faulty ~pba))
          (Sero.Layout.data_blocks_of_line lay 1);
        let inj =
          match Probe.Pdevice.fault (Sero.Device.pdevice faulty) with
          | Some inj -> inj
          | None -> Alcotest.fail "clone injector vanished"
        in
        Alcotest.(check bool) "clone injector drew events" true
          (Fault.Injector.ledger_to_string inj <> "");
        Alcotest.(check (pair (list string) (list string)))
          "parent face clean" face (device_face dev));
    Alcotest.test_case "park drops the scratch; the device still works"
      `Quick (fun () ->
        let dev = make_dev ~n_blocks:64 () in
        fill_line dev 1;
        let face = device_face dev in
        Sero.Device.park dev;
        Alcotest.(check (pair (list string) (list string)))
          "same face after park" face (device_face dev);
        Sero.Device.park dev;
        Sero.Device.park dev;
        Alcotest.(check (pair (list string) (list string)))
          "double park harmless" face (device_face dev));
  ]

(* {1 Audit allocation}

   Deterministic minor-word counts for one audit of a burned 8-block
   line, after a warm-up call has taken the device's scratch.  A boxed
   PRNG draw or a per-dot closure creeping back into the electrical
   read or the Manchester decode costs thousands of words here. *)
let audit_alloc_cases =
  [
    Alcotest.test_case "read_hash_block and verify_line allocation bounds"
      `Quick (fun () ->
        let dev = make_dev ~n_blocks:64 ~line_exp:3 () in
        fill_line dev 1;
        ignore (heat_ok dev 1);
        let words f =
          let before = Gc.minor_words () in
          f ();
          Gc.minor_words () -. before
        in
        ignore (Sero.Device.verify_line dev ~line:1);
        let ers = words (fun () -> ignore (Sero.Device.read_hash_block dev ~line:1)) in
        let verify = words (fun () -> ignore (Sero.Device.verify_line dev ~line:1)) in
        Alcotest.(check bool)
          (Printf.sprintf "read_hash_block %.0f words < 1000" ers)
          true (ers < 1000.);
        Alcotest.(check bool)
          (Printf.sprintf "verify_line %.0f words < 2000" verify)
          true (verify < 2000.));
  ]

(* A sector write encodes into the device's scratch image, so it
   allocates no 604-byte image. *)
let write_alloc_cases =
  [
    Alcotest.test_case "write_block allocates no image" `Quick (fun () ->
        let dev = make_dev ~n_blocks:64 ~line_exp:3 () in
        let pba = Sero.Layout.first_data_block (Sero.Device.layout dev) 1 in
        let payload = String.init 512 (fun i -> Char.chr ((i * 131) land 0xFF)) in
        let write () =
          match Sero.Device.write_block dev ~pba payload with
          | Ok () -> ()
          | Error e -> Alcotest.failf "write: %a" Sero.Device.pp_write_error e
        in
        write ();
        let before = Gc.minor_words () in
        for _ = 1 to 100 do
          write ()
        done;
        let w = (Gc.minor_words () -. before) /. 100. in
        Alcotest.(check bool)
          (Printf.sprintf "write_block %.0f words < 60" w)
          true (w < 60.);
        match Sero.Device.read_block dev ~pba with
        | Ok p -> Alcotest.(check string) "reads back" payload p
        | Error e -> Alcotest.failf "read: %a" Sero.Device.pp_read_error e);
  ]

(* {1 Fault-path allocation}

   The same kind of counts under an installed injector that cannot act
   on what is read: a targeted plan over one line's data blocks leaves
   every other run to the packed kernels and the whole-run sweep, on a
   device with RAS and endurance active.  A guard that slips back to
   "no injector" sends those runs down the per-dot path, tens of
   thousands of words a sector.  Inside the region a read is the packed
   kernel plus its flip replay, which must stay free of closures per
   dot. *)
let fault_alloc_cases =
  [
    Alcotest.test_case "reads and verifies beside a targeted region" `Quick
      (fun () ->
        let dev =
          Sero.Device.create
            {
              (Sero.Device.default_config ~n_blocks:128 ~line_exp:3 ()) with
              Sero.Device.ras = Sero.Device.active_ras;
              endurance = Sero.Device.active_endurance;
            }
        in
        let lay = Sero.Device.layout dev in
        List.iter (fill_line dev) [ 1; 2; 3 ];
        ignore (heat_ok dev 3);
        let region = Sero.Layout.first_data_block lay 2 in
        Sero.Device.install_fault dev
          (Fault.Injector.create
             (Fault.Plan.make ~seed:3
                ~targeted:
                  [
                    {
                      Fault.Plan.first_dot = Sero.Layout.block_first_dot lay region;
                      n_dots =
                        Sero.Layout.data_blocks_per_line lay
                        * Sero.Layout.block_dots;
                      ber = 1e-12;
                    };
                  ]
                ()));
        let outside = Sero.Layout.first_data_block lay 1 in
        let words f =
          let before = Gc.minor_words () in
          f ();
          Gc.minor_words () -. before
        in
        let read pba () = ignore (Sero.Device.read_block dev ~pba) in
        let verify () = ignore (Sero.Device.verify_line dev ~line:3) in
        read outside ();
        verify ();
        read region ();
        let r_out = words (read outside) in
        let v = words verify in
        let r_in = words (read region) in
        Alcotest.(check bool)
          (Printf.sprintf "read_block outside %.0f words < 500" r_out)
          true (r_out < 500.);
        Alcotest.(check bool)
          (Printf.sprintf "verify_line outside %.0f words < 2500" v)
          true (v < 2500.);
        Alcotest.(check bool)
          (Printf.sprintf "read_block inside %.0f words < 500" r_in)
          true (r_in < 500.));
    (* The full decoder runs in per-domain buffers: what a corrected
       sector allocates is its slice copies and the decoded frame. *)
    Alcotest.test_case "Sector.decode correcting 10 symbols" `Quick (fun () ->
        let image =
          Bytes.of_string
            (Codec.Sector.encode ~pba:7 ~kind:Codec.Sector.Data ~generation:1
               (String.init 512 (fun i -> Char.chr (i land 255))))
        in
        for k = 0 to 9 do
          let i = 23 * k in
          Bytes.set image i (Char.chr (Char.code (Bytes.get image i) lxor 0xA5))
        done;
        let image = Bytes.unsafe_to_string image in
        let decode () =
          match Codec.Sector.decode image with
          | Ok d -> d.Codec.Sector.corrected_symbols
          | Error _ -> -1
        in
        Alcotest.(check int) "corrected" 10 (decode ());
        let before = Gc.minor_words () in
        ignore (decode ());
        let w = Gc.minor_words () -. before in
        Alcotest.(check bool)
          (Printf.sprintf "Sector.decode %.0f words < 500" w)
          true (w < 500.));
  ]

let () =
  Alcotest.run "sero"
    [
      ("layout", layout_cases @ List.map qtest layout_props);
      ("sector-ops", device_cases);
      ("heat-verify",
        lifecycle_cases
        @ List.map qtest
            [ roundtrip_any_line; ecc_absorbs_noise;
              gross_corruption_always_evident ]);
      ("tamper", tamper_cases);
      ("verify-region", region_cases);
      ("whole-device", whole_device_cases);
      ("image", image_cases @ [ qtest hostile_images ]);
      ("bcache", bcache_cases @ [ qtest twin_equivalence ]);
      ("endurance", endurance_cases @ [ qtest endurance_twin ]);
      ("clone",
        clone_cases @ [ qtest clone_parent_churn; qtest clone_rearm_isolation ]);
      ("packed-twin", [ qtest packed_vs_per_dot ]);
      ("audit-alloc", audit_alloc_cases @ fault_alloc_cases @ write_alloc_cases);
    ]
