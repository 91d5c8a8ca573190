(* Codec layer: Manchester cells, CRC-32, GF(256), Reed–Solomon,
   sector framing, WOM code, binary IO. *)

let qtest = QCheck_alcotest.to_alcotest

(* {1 Manchester} *)

(* The decoder the library had before it went packed, kept as the
   oracle: it reads each dot through a closure and collects the cell
   lists as it goes. *)
module Oracle = struct
  type decode_result = {
    payload : string;
    tampered_cells : int list;
    blank_cells : int list;
  }

  let decode ~heated ~n_bytes =
    let out = Bytes.make n_bytes '\x00' in
    let tampered = ref [] and blank = ref [] in
    for byte = 0 to n_bytes - 1 do
      let v = ref 0 in
      for bit = 0 to 7 do
        let cell = (byte * 8) + bit in
        let a = heated (2 * cell) and b = heated ((2 * cell) + 1) in
        (match (a, b) with
        | true, false -> () (* HU = 0 *)
        | false, true -> v := !v lor (1 lsl (7 - bit)) (* UH = 1 *)
        | false, false -> blank := cell :: !blank
        | true, true -> tampered := cell :: !tampered)
      done;
      Bytes.set out byte (Char.chr !v)
    done;
    {
      payload = Bytes.unsafe_to_string out;
      tampered_cells = List.rev !tampered;
      blank_cells = List.rev !blank;
    }
end

(* Dots packed MSB-first, set = heated: the bitmap an electrical read
   hands the decoder. *)
let pack_dots dots =
  let b = Bytes.make ((Array.length dots + 7) / 8) '\000' in
  Array.iteri
    (fun i h ->
      if h then
        Bytes.set b (i / 8)
          (Char.chr (Char.code (Bytes.get b (i / 8)) lor (0x80 lsr (i mod 8)))))
    dots;
  b

let decode_dots dots =
  Codec.Manchester.decode (pack_dots dots) ~n_bytes:(Array.length dots / 16)

let manchester_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:300
    QCheck.(string_of_size Gen.(1 -- 64))
    (fun payload ->
      let d = decode_dots (Codec.Manchester.encode payload) in
      Codec.Manchester.is_clean d && String.equal d.Codec.Manchester.payload payload)

let manchester_spreading =
  QCheck.Test.make ~name:"never more than 2 adjacent heated dots" ~count:300
    QCheck.(string_of_size Gen.(1 -- 64))
    (fun payload ->
      Codec.Manchester.max_adjacent_heated (Codec.Manchester.encode payload) <= 2)

let manchester_density =
  QCheck.Test.make ~name:"exactly one heated dot per cell" ~count:300
    QCheck.(string_of_size Gen.(1 -- 64))
    (fun payload ->
      let dots = Codec.Manchester.encode payload in
      let heated = Array.fold_left (fun a h -> if h then a + 1 else a) 0 dots in
      heated = 8 * String.length payload)

let manchester_tamper =
  QCheck.Test.make ~name:"heating any unheated dot is detected" ~count:300
    QCheck.(pair (string_of_size Gen.(1 -- 32)) small_nat)
    (fun (payload, idx) ->
      let dots = Codec.Manchester.encode payload in
      (* Heat one currently-unheated dot: its cell becomes HH. *)
      let unheated =
        Array.to_list (Array.mapi (fun i h -> (i, h)) dots)
        |> List.filter_map (fun (i, h) -> if h then None else Some i)
      in
      let victim = List.nth unheated (idx mod List.length unheated) in
      dots.(victim) <- true;
      let d = decode_dots dots in
      d.Codec.Manchester.n_tampered = 1
      && Codec.Manchester.tampered_cells (pack_dots dots)
           ~n_bytes:(String.length payload)
         = [ victim / 2 ])

(* Random dot bytes put every cell state everywhere, blank and tampered
   cells included. *)
let manchester_oracle =
  QCheck.Test.make ~name:"packed decode == closure oracle" ~count:500
    QCheck.(string_of_size Gen.(0 -- 96))
    (fun raw ->
      let dots = Bytes.of_string raw in
      let n_bytes = Bytes.length dots / 2 in
      let d = Codec.Manchester.decode dots ~n_bytes in
      let o =
        Oracle.decode
          ~heated:(fun i ->
            Char.code (Bytes.get dots (i / 8)) land (0x80 lsr (i mod 8)) <> 0)
          ~n_bytes
      in
      let blank = Codec.Manchester.blank_cells dots ~n_bytes
      and tampered = Codec.Manchester.tampered_cells dots ~n_bytes in
      String.equal d.Codec.Manchester.payload o.Oracle.payload
      && blank = o.Oracle.blank_cells
      && tampered = o.Oracle.tampered_cells
      && d.Codec.Manchester.n_blank = List.length o.Oracle.blank_cells
      && d.Codec.Manchester.n_tampered = List.length o.Oracle.tampered_cells)

let manchester_cases =
  [
    Alcotest.test_case "blank area decodes as all-blank cells" `Quick (fun () ->
        let dots = Bytes.make 8 '\000' in
        let d = Codec.Manchester.decode dots ~n_bytes:4 in
        Alcotest.(check int) "blank cells" 32 d.Codec.Manchester.n_blank;
        Alcotest.(check (list int)) "blank indices" (List.init 32 Fun.id)
          (Codec.Manchester.blank_cells dots ~n_bytes:4));
    Alcotest.test_case "fully heated area is all-tampered" `Quick (fun () ->
        let dots = Bytes.make 4 '\xff' in
        let d = Codec.Manchester.decode dots ~n_bytes:2 in
        Alcotest.(check int) "tampered" 16 d.Codec.Manchester.n_tampered;
        Alcotest.(check (list int)) "tampered indices" (List.init 16 Fun.id)
          (Codec.Manchester.tampered_cells dots ~n_bytes:2));
    Alcotest.test_case "encoded_length" `Quick (fun () ->
        Alcotest.(check int) "16 dots per byte" 160 (Codec.Manchester.encoded_length 10));
    Alcotest.test_case "cell convention: 0 -> HU, 1 -> UH (Fig. 3)" `Quick
      (fun () ->
        let dots = Codec.Manchester.encode "\x80" in
        (* MSB of 0x80 is 1 -> first cell UH; next bit 0 -> HU. *)
        Alcotest.(check (pair bool bool)) "cell 0 = UH" (false, true)
          (dots.(0), dots.(1));
        Alcotest.(check (pair bool bool)) "cell 1 = HU" (true, false)
          (dots.(2), dots.(3)));
  ]

(* {1 CRC-32} *)

let crc_cases =
  [
    Alcotest.test_case "known value: \"123456789\"" `Quick (fun () ->
        Alcotest.(check int32) "check value" 0xCBF43926l
          (Codec.Crc32.string "123456789"));
    Alcotest.test_case "empty string" `Quick (fun () ->
        Alcotest.(check int32) "zero" 0l (Codec.Crc32.string ""));
    Alcotest.test_case "incremental equals one-shot" `Quick (fun () ->
        let a = Codec.Crc32.string "hello world" in
        let b = Codec.Crc32.string ~crc:(Codec.Crc32.string "hello ") "world" in
        Alcotest.(check int32) "same" a b);
  ]

let crc_detects_flip =
  QCheck.Test.make ~name:"single byte flip changes the CRC" ~count:300
    QCheck.(pair (string_of_size Gen.(1 -- 100)) small_nat)
    (fun (s, i) ->
      let i = i mod String.length s in
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5A));
      Codec.Crc32.string s <> Codec.Crc32.string (Bytes.to_string b))

(* {1 GF(256)} *)

let byte = QCheck.int_range 0 255
let nonzero = QCheck.int_range 1 255

let gf_tests =
  [
    QCheck.Test.make ~name:"mul commutative" ~count:500 (QCheck.pair byte byte)
      (fun (a, b) -> Codec.Gf256.mul a b = Codec.Gf256.mul b a);
    QCheck.Test.make ~name:"mul associative" ~count:500
      (QCheck.triple byte byte byte) (fun (a, b, c) ->
        Codec.Gf256.mul a (Codec.Gf256.mul b c)
        = Codec.Gf256.mul (Codec.Gf256.mul a b) c);
    QCheck.Test.make ~name:"distributive over add" ~count:500
      (QCheck.triple byte byte byte) (fun (a, b, c) ->
        Codec.Gf256.mul a (Codec.Gf256.add b c)
        = Codec.Gf256.add (Codec.Gf256.mul a b) (Codec.Gf256.mul a c));
    QCheck.Test.make ~name:"inverse" ~count:500 nonzero (fun a ->
        Codec.Gf256.mul a (Codec.Gf256.inv a) = 1);
    QCheck.Test.make ~name:"div is mul by inverse" ~count:500
      (QCheck.pair byte nonzero) (fun (a, b) ->
        Codec.Gf256.div a b = Codec.Gf256.mul a (Codec.Gf256.inv b));
    QCheck.Test.make ~name:"exp/log inverse" ~count:500 nonzero (fun a ->
        Codec.Gf256.exp (Codec.Gf256.log a) = a);
    QCheck.Test.make ~name:"pow matches repeated mul" ~count:200
      (QCheck.pair byte (QCheck.int_range 0 10)) (fun (a, n) ->
        let rec naive acc k = if k = 0 then acc else naive (Codec.Gf256.mul acc a) (k - 1) in
        Codec.Gf256.pow a n = if n = 0 then 1 else naive 1 n);
  ]

(* {1 Reed–Solomon} *)

let rs = Codec.Rs.make ~nparity:24

let corrupt rng cw nerr =
  (* Flip [nerr] distinct byte positions. *)
  let n = Bytes.length cw in
  let chosen = Hashtbl.create 8 in
  let flipped = ref 0 in
  while !flipped < nerr do
    let i = Sim.Prng.int rng n in
    if not (Hashtbl.mem chosen i) then begin
      Hashtbl.replace chosen i ();
      Bytes.set cw i
        (Char.chr (Char.code (Bytes.get cw i) lxor (1 + Sim.Prng.int rng 254)));
      incr flipped
    end
  done

let rs_corrects =
  QCheck.Test.make ~name:"corrects up to nparity/2 errors" ~count:200
    QCheck.(pair (string_of_size Gen.(1 -- 200)) (int_range 0 12))
    (fun (data, nerr) ->
      let data = if String.length data > Codec.Rs.max_data rs then String.sub data 0 200 else data in
      let cw = Bytes.of_string (data ^ Codec.Rs.parity rs data) in
      let rng = Sim.Prng.create (Hashtbl.hash (data, nerr)) in
      corrupt rng cw nerr;
      match Codec.Rs.decode rs cw with
      | Codec.Rs.Ok_clean -> nerr = 0
      | Codec.Rs.Corrected n ->
          n = nerr && String.equal (Bytes.sub_string cw 0 (String.length data)) data
      | Codec.Rs.Uncorrectable -> false)

let rs_overload =
  QCheck.Test.make ~name:"more than nparity/2 errors never mis-corrects" ~count:100
    QCheck.(pair (string_of_size Gen.(50 -- 200)) (int_range 13 20))
    (fun (data, nerr) ->
      let cw = Bytes.of_string (data ^ Codec.Rs.parity rs data) in
      let rng = Sim.Prng.create (Hashtbl.hash (data, nerr, "x")) in
      corrupt rng cw nerr;
      match Codec.Rs.decode rs cw with
      | Codec.Rs.Uncorrectable -> true
      | Codec.Rs.Ok_clean -> false
      | Codec.Rs.Corrected _ ->
          (* Miscorrection is possible in theory for RS beyond t, but it
             must never silently return different data claiming clean:
             accept only if it restored the exact original. *)
          String.equal (Bytes.sub_string cw 0 (String.length data)) data)

let rs_blocks_roundtrip =
  QCheck.Test.make ~name:"encode_blocks/decode_blocks roundtrip" ~count:100
    QCheck.(string_of_size Gen.(0 -- 1000))
    (fun data ->
      match
        Codec.Rs.decode_blocks rs
          (Bytes.of_string (Codec.Rs.encode_blocks rs data))
          ~data_len:(String.length data)
      with
      | Ok out -> String.equal out data
      | Error _ -> false)

let rs_erasures_correct =
  QCheck.Test.make ~name:"corrects up to nparity known erasures" ~count:100
    QCheck.(pair (string_of_size Gen.(50 -- 200)) (int_range 0 24))
    (fun (data, nerase) ->
      let cw = Bytes.of_string (data ^ Codec.Rs.parity rs data) in
      let rng = Sim.Prng.create (Hashtbl.hash (data, nerase, "era")) in
      let chosen = Hashtbl.create 8 in
      while Hashtbl.length chosen < nerase do
        Hashtbl.replace chosen (Sim.Prng.int rng (Bytes.length cw)) ()
      done;
      let erasures = Hashtbl.fold (fun k () acc -> k :: acc) chosen [] in
      List.iter
        (fun i ->
          Bytes.set cw i
            (Char.chr (Char.code (Bytes.get cw i) lxor (1 + Sim.Prng.int rng 254))))
        erasures;
      match Codec.Rs.decode_with_erasures rs cw ~erasures with
      | Codec.Rs.Ok_clean -> nerase = 0
      | Codec.Rs.Corrected _ ->
          String.equal (Bytes.sub_string cw 0 (String.length data)) data
      | Codec.Rs.Uncorrectable -> false)

let rs_erasures_plus_errors =
  QCheck.Test.make ~name:"e erasures + t errors while e + 2t <= nparity"
    ~count:100
    QCheck.(triple (string_of_size Gen.(50 -- 180)) (int_range 0 12) (int_range 0 6))
    (fun (data, nerase, nerr) ->
      QCheck.assume (nerase + (2 * nerr) <= 24);
      let cw = Bytes.of_string (data ^ Codec.Rs.parity rs data) in
      let rng = Sim.Prng.create (Hashtbl.hash (data, nerase, nerr)) in
      let chosen = Hashtbl.create 8 in
      while Hashtbl.length chosen < nerase + nerr do
        Hashtbl.replace chosen (Sim.Prng.int rng (Bytes.length cw)) ()
      done;
      let all = Hashtbl.fold (fun k () acc -> k :: acc) chosen [] in
      List.iter
        (fun i ->
          Bytes.set cw i
            (Char.chr (Char.code (Bytes.get cw i) lxor (1 + Sim.Prng.int rng 254))))
        all;
      let erasures = List.filteri (fun i _ -> i < nerase) all in
      match Codec.Rs.decode_with_erasures rs cw ~erasures with
      | Codec.Rs.Ok_clean -> nerase + nerr = 0
      | Codec.Rs.Corrected _ ->
          String.equal (Bytes.sub_string cw 0 (String.length data)) data
      | Codec.Rs.Uncorrectable -> false)

let rs_erasure_cases =
  [
    Alcotest.test_case "erasure positions beyond plain-decode limit" `Quick
      (fun () ->
        (* 20 corrupted known positions: plain decode fails (t=10 > 12 is
           fine actually, use 26 > 24/2*2...); use 20: plain decode can
           only fix 12, erasure decode fixes all 20. *)
        let data = String.init 100 (fun i -> Char.chr (i + 32)) in
        let cw = Bytes.of_string (data ^ Codec.Rs.parity rs data) in
        let erasures = List.init 20 (fun i -> 3 * i) in
        List.iter (fun i -> Bytes.set cw i '\xEE') erasures;
        (match Codec.Rs.decode rs (Bytes.copy cw) with
        | Codec.Rs.Uncorrectable -> ()
        | _ -> Alcotest.fail "plain decode should fail at 20 errors");
        match Codec.Rs.decode_with_erasures rs cw ~erasures with
        | Codec.Rs.Corrected _ ->
            Alcotest.(check string) "restored" data
              (Bytes.sub_string cw 0 (String.length data))
        | _ -> Alcotest.fail "erasure decode failed");
    Alcotest.test_case "too many erasures refused" `Quick (fun () ->
        let data = "x" in
        let cw = Bytes.of_string (data ^ Codec.Rs.parity rs data) in
        Bytes.set cw 0 'y';
        match
          Codec.Rs.decode_with_erasures rs cw
            ~erasures:(List.init 25 (fun i -> i mod Bytes.length cw))
        with
        | Codec.Rs.Uncorrectable -> ()
        | _ -> Alcotest.fail "accepted 25 erasures");
    Alcotest.test_case "out-of-range erasure raises" `Quick (fun () ->
        let data = "x" in
        let cw = Bytes.of_string (data ^ Codec.Rs.parity rs data) in
        Alcotest.check_raises "range"
          (Invalid_argument "Rs.decode_with_erasures: erasure position out of range")
          (fun () ->
            ignore (Codec.Rs.decode_with_erasures rs cw ~erasures:[ 999 ])));
  ]

let rs_cases =
  [
    Alcotest.test_case "parity length" `Quick (fun () ->
        Alcotest.(check int) "24" 24 (String.length (Codec.Rs.parity rs "hello")));
    Alcotest.test_case "nparity bounds" `Quick (fun () ->
        Alcotest.check_raises "zero"
          (Invalid_argument "Rs.make: nparity must be in 1..254") (fun () ->
            ignore (Codec.Rs.make ~nparity:0)));
    Alcotest.test_case "clean codeword decodes clean" `Quick (fun () ->
        let data = "the SERO device" in
        let cw = Bytes.of_string (data ^ Codec.Rs.parity rs data) in
        match Codec.Rs.decode rs cw with
        | Codec.Rs.Ok_clean -> ()
        | _ -> Alcotest.fail "expected clean");
  ]

(* {1 Sector framing} *)

let sector_roundtrip =
  QCheck.Test.make ~name:"sector encode/decode roundtrip" ~count:100
    QCheck.(pair (string_of_size Gen.(0 -- 512)) (int_range 0 100000))
    (fun (payload, pba) ->
      let image =
        Codec.Sector.encode ~pba ~kind:Codec.Sector.Data ~generation:3 payload
      in
      match Codec.Sector.decode image with
      | Ok d ->
          d.Codec.Sector.pba = pba
          && d.Codec.Sector.generation = 3
          && String.length d.Codec.Sector.payload = 512
          && String.equal (String.sub d.Codec.Sector.payload 0 (String.length payload)) payload
      | Error _ -> false)

let sector_error_correction =
  QCheck.Test.make ~name:"sector survives 12 byte errors per codeword" ~count:50
    QCheck.(string_of_size Gen.(0 -- 512))
    (fun payload ->
      let image =
        Codec.Sector.encode ~pba:7 ~kind:Codec.Sector.Inode ~generation:1 payload
      in
      let b = Bytes.of_string image in
      (* Corrupt 10 bytes of the first 255-byte codeword. *)
      let rng = Sim.Prng.create (Hashtbl.hash payload) in
      for _ = 1 to 10 do
        let i = Sim.Prng.int rng 255 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xA5))
      done;
      match Codec.Sector.decode (Bytes.to_string b) with
      | Ok d -> d.Codec.Sector.pba = 7 && d.Codec.Sector.corrected_symbols > 0
      | Error _ -> false)

let sector_cases =
  [
    Alcotest.test_case "overhead about 15%" `Quick (fun () ->
        Alcotest.(check bool) "in range" true
          (Codec.Sector.overhead_fraction > 0.13
          && Codec.Sector.overhead_fraction < 0.17));
    Alcotest.test_case "physical size stable" `Quick (fun () ->
        Alcotest.(check int) "604 bytes" 604 Codec.Sector.physical_bytes);
    Alcotest.test_case "payload too long rejected" `Quick (fun () ->
        Alcotest.check_raises "513"
          (Invalid_argument "Sector.encode: payload longer than 512 bytes")
          (fun () ->
            ignore
              (Codec.Sector.encode ~pba:0 ~kind:Codec.Sector.Data ~generation:0
                 (String.make 513 'x'))));
    Alcotest.test_case "garbage image fails structured" `Quick (fun () ->
        match Codec.Sector.decode (String.make Codec.Sector.physical_bytes 'Z') with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "garbage decoded");
    Alcotest.test_case "kind roundtrips" `Quick (fun () ->
        List.iter
          (fun k ->
            Alcotest.(check bool)
              "kind" true
              (Codec.Sector.kind_of_int (Codec.Sector.kind_to_int k) = Some k))
          [ Codec.Sector.Data; Inode; Summary; Checkpoint; Hash_meta ]);
  ]

(* {1 WOM code} *)

let wom_two_generations =
  QCheck.Test.make ~name:"any two successive values are storable" ~count:200
    QCheck.(pair (int_range 0 3) (int_range 0 3))
    (fun (v1, v2) ->
      let c1 = Codec.Wom.encode_first v1 in
      match Codec.Wom.decode c1 with
      | Some (v, 1) when v = v1 -> (
          match Codec.Wom.write c1 v2 with
          | Codec.Wom.Written c2 -> (
              match Codec.Wom.decode c2 with
              | Some (v, g) -> v = v2 && (g = 2 || v1 = v2)
              | None -> false)
          | Codec.Wom.Exhausted -> false)
      | _ -> false)

let wom_monotone =
  QCheck.Test.make ~name:"writes never clear cells" ~count:200
    QCheck.(pair (int_range 0 3) (int_range 0 3))
    (fun (v1, v2) ->
      let c1 = Codec.Wom.encode_first v1 in
      match Codec.Wom.write c1 v2 with
      | Codec.Wom.Written c2 ->
          c2.(0) >= c1.(0) && c2.(1) >= c1.(1) && c2.(2) >= c1.(2)
      | Codec.Wom.Exhausted -> true)

let wom_cases =
  [
    Alcotest.test_case "third distinct write exhausted" `Quick (fun () ->
        let c1 = Codec.Wom.encode_first 0 in
        match Codec.Wom.write c1 1 with
        | Codec.Wom.Written c2 -> (
            match Codec.Wom.write c2 2 with
            | Codec.Wom.Exhausted -> ()
            | Codec.Wom.Written _ -> Alcotest.fail "third write accepted")
        | Codec.Wom.Exhausted -> Alcotest.fail "second write refused");
    Alcotest.test_case "rate comparison" `Quick (fun () ->
        Alcotest.(check bool) "wom beats manchester" true
          (Codec.Wom.rate > 2. *. Codec.Wom.manchester_rate));
  ]

(* {1 Binio} *)

let binio_roundtrip =
  QCheck.Test.make ~name:"writer/reader roundtrip" ~count:300
    QCheck.(
      quad (int_range 0 255) (int_range 0 65535) (int_range 0 0xFFFFFFFF)
        (string_of_size Gen.(0 -- 80)))
    (fun (a, b, c, s) ->
      let w = Codec.Binio.W.create () in
      Codec.Binio.W.u8 w a;
      Codec.Binio.W.u16 w b;
      Codec.Binio.W.u32 w c;
      Codec.Binio.W.u64 w (c * 7);
      Codec.Binio.W.str w s;
      let r = Codec.Binio.R.of_string (Codec.Binio.W.contents w) in
      Codec.Binio.R.u8 r = a
      && Codec.Binio.R.u16 r = b
      && Codec.Binio.R.u32 r = c
      && Codec.Binio.R.u64 r = c * 7
      && String.equal (Codec.Binio.R.str r) s
      && Codec.Binio.R.remaining r = 0)

let binio_cases =
  [
    Alcotest.test_case "truncated read raises" `Quick (fun () ->
        let r = Codec.Binio.R.of_string "ab" in
        Alcotest.check_raises "u32" Codec.Binio.R.Truncated (fun () ->
            ignore (Codec.Binio.R.u32 r)));
    Alcotest.test_case "negative raw length raises" `Quick (fun () ->
        let r = Codec.Binio.R.of_string "abcd" in
        Alcotest.check_raises "raw" Codec.Binio.R.Truncated (fun () ->
            ignore (Codec.Binio.R.raw r (-1))));
  ]

let () =
  Alcotest.run "codec"
    [
      ( "manchester",
        manchester_cases
        @ List.map qtest
            [ manchester_roundtrip; manchester_spreading; manchester_density;
              manchester_tamper; manchester_oracle ] );
      ("crc32", crc_cases @ [ qtest crc_detects_flip ]);
      ("gf256", List.map qtest gf_tests);
      ( "reed-solomon",
        rs_cases @ rs_erasure_cases
        @ List.map qtest
            [ rs_corrects; rs_overload; rs_blocks_roundtrip;
              rs_erasures_correct; rs_erasures_plus_errors ] );
      ( "sector",
        sector_cases @ List.map qtest [ sector_roundtrip; sector_error_correction ] );
      ("wom", wom_cases @ List.map qtest [ wom_two_generations; wom_monotone ]);
      ("binio", binio_cases @ [ qtest binio_roundtrip ]);
    ]
