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

(* The unboxed form chains like the boxed one, from any split. *)
let crc_update_chains =
  QCheck.Test.make ~name:"update chains equal bytes at any split" ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 300)) small_nat)
    (fun (s, k) ->
      let b = Bytes.of_string s and n = String.length s in
      let k = if n = 0 then 0 else k mod (n + 1) in
      let chained =
        Codec.Crc32.update (Codec.Crc32.update 0 b 0 k) b k (n - k)
      in
      chained = Int32.to_int (Codec.Crc32.bytes b 0 n) land 0xFFFFFFFF
      && Codec.Crc32.bytes ~crc:(Int32.of_int (Codec.Crc32.update 0 b 0 k)) b k (n - k)
         = Codec.Crc32.string s)

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

(* The decoder the library had before it went allocation-free, kept as
   the oracle: Horner syndromes over every byte, Berlekamp–Massey on
   fresh arrays, a Chien search that walks every position through a
   closure into a list, Forney, and a second full syndrome pass. *)
module Rs_oracle = struct
  let syndromes npar cw =
    let synd = Array.make npar 0 in
    Bytes.iter
      (fun ch ->
        for i = 0 to npar - 1 do
          synd.(i) <-
            Codec.Gf256.add
              (Codec.Gf256.mul synd.(i) (Codec.Gf256.exp i))
              (Char.code ch)
        done)
      cw;
    (synd, Array.for_all (fun s -> s = 0) synd)

  let berlekamp_massey synd =
    let n = Array.length synd in
    let c = Array.make (n + 1) 0 and b = Array.make (n + 1) 0 in
    c.(0) <- 1;
    b.(0) <- 1;
    let l = ref 0 and m = ref 1 and bb = ref 1 in
    for i = 0 to n - 1 do
      let d = ref synd.(i) in
      for j = 1 to !l do
        d := Codec.Gf256.add !d (Codec.Gf256.mul c.(j) synd.(i - j))
      done;
      if !d = 0 then incr m
      else begin
        let t = Array.copy c in
        let coef = Codec.Gf256.div !d !bb in
        for j = 0 to n - !m do
          c.(j + !m) <- Codec.Gf256.add c.(j + !m) (Codec.Gf256.mul coef b.(j))
        done;
        if 2 * !l <= i then begin
          l := i + 1 - !l;
          Array.blit t 0 b 0 (n + 1);
          bb := !d;
          m := 1
        end
        else incr m
      end
    done;
    (Array.sub c 0 (!l + 1), !l)

  let eval_low p x =
    let v = ref 0 and xp = ref 1 in
    Array.iter
      (fun coef ->
        v := Codec.Gf256.add !v (Codec.Gf256.mul coef !xp);
        xp := Codec.Gf256.mul !xp x)
      p;
    !v

  let decode c cw =
    let n = Bytes.length cw and npar = Codec.Rs.nparity c in
    let synd, clean = syndromes npar cw in
    if clean then Codec.Rs.Ok_clean
    else begin
      let locator, nerrors = berlekamp_massey synd in
      if 2 * nerrors > npar then Codec.Rs.Uncorrectable
      else begin
        let xinv pos = Codec.Gf256.exp (255 - ((n - 1 - pos) mod 255)) in
        let positions = ref [] in
        for pos = 0 to n - 1 do
          if eval_low locator (xinv pos) = 0 then positions := pos :: !positions
        done;
        if List.length !positions <> nerrors then Codec.Rs.Uncorrectable
        else begin
          let omega =
            Array.init npar (fun i ->
                let s = ref 0 in
                for j = 0 to min i (Array.length locator - 1) do
                  s := Codec.Gf256.add !s (Codec.Gf256.mul locator.(j) synd.(i - j))
                done;
                !s)
          in
          let deriv =
            Array.init
              (max 0 (Array.length locator - 1))
              (fun i -> if i land 1 = 0 then locator.(i + 1) else 0)
          in
          let ok = ref true in
          List.iter
            (fun pos ->
              let num = eval_low omega (xinv pos) in
              let den = eval_low deriv (xinv pos) in
              if den = 0 then ok := false
              else
                let magnitude =
                  Codec.Gf256.mul
                    (Codec.Gf256.exp ((n - 1 - pos) mod 255))
                    (Codec.Gf256.div num den)
                in
                Bytes.set cw pos
                  (Char.chr (Codec.Gf256.add (Char.code (Bytes.get cw pos)) magnitude)))
            !positions;
          if !ok && snd (syndromes npar cw) then Codec.Rs.Corrected nerrors
          else Codec.Rs.Uncorrectable
        end
      end
    end
end

(* [data] cut into [max_data c]-byte slices, each followed by its
   parity: the RS layout of a sector image (the library's old
   [Rs.encode_blocks]). *)
let encode_blocks c data =
  let m = Codec.Rs.max_data c in
  let len = String.length data in
  let buf = Buffer.create (Codec.Rs.encoded_length c len) in
  let off = ref 0 in
  while !off < len do
    let take = min m (len - !off) in
    let slice = String.sub data !off take in
    Buffer.add_string buf slice;
    Buffer.add_string buf (Codec.Rs.parity c slice);
    off := !off + take
  done;
  Buffer.contents buf

(* Inverse of {!encode_blocks} for a known original [data_len]:
   [Ok data] (errors silently corrected) or [Error n] with [n] the
   number of uncorrectable slices. *)
let decode_blocks c coded ~data_len =
  let m = Codec.Rs.max_data c and npar = Codec.Rs.nparity c in
  let out = Buffer.create data_len in
  let rec go off remaining bad =
    if remaining <= 0 then bad
    else
      let take = min m remaining in
      if off + take + npar > Bytes.length coded then bad + 1
      else begin
        let cw = Bytes.sub coded off (take + npar) in
        let bad =
          if Codec.Rs.decode c cw = Codec.Rs.Uncorrectable then bad + 1 else bad
        in
        Buffer.add_subbytes out cw 0 take;
        go (off + take + npar) (remaining - take) bad
      end
  in
  match go 0 data_len 0 with 0 -> Ok (Buffer.contents out) | bad -> Error bad

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

(* The decoder against its oracle on one word: the same outcome, and
   the same bytes unless neither could correct it. *)
let races_oracle c cw =
  let mine = Bytes.copy cw and theirs = Bytes.copy cw in
  let outcome = Codec.Rs.decode c mine in
  outcome = Rs_oracle.decode c theirs
  && (outcome = Codec.Rs.Uncorrectable || Bytes.equal mine theirs)

let rs_oracle_errors =
  QCheck.Test.make ~name:"decode == oracle: 0-24 errors, data 1-231 bytes"
    ~count:1000
    QCheck.(
      triple (string_of_size Gen.(1 -- 231)) (int_range 0 24) (int_range 0 9999))
    (fun (data, nerr, seed) ->
      let cw = Bytes.of_string (data ^ Codec.Rs.parity rs data) in
      corrupt (Sim.Prng.create seed) cw nerr;
      races_oracle rs cw)

let rs_oracle_random =
  QCheck.Test.make ~name:"decode == oracle: random words" ~count:1000
    QCheck.(string_of_size Gen.(0 -- 255))
    (fun raw -> races_oracle rs (Bytes.of_string raw))

(* Smaller codes put the generic lane loop and short words under the
   same race. *)
let rs_oracle_codes =
  QCheck.Test.make ~name:"decode == oracle: other parity counts" ~count:500
    QCheck.(
      quad (int_range 1 40) (string_of_size Gen.(0 -- 200)) (int_range 0 24)
        (int_range 0 9999))
    (fun (npar, data, nerr, seed) ->
      let c = Codec.Rs.make ~nparity:npar in
      let data =
        String.sub data 0 (min (String.length data) (Codec.Rs.max_data c))
      in
      let cw = Bytes.of_string (data ^ Codec.Rs.parity c data) in
      corrupt (Sim.Prng.create seed) cw (min nerr (Bytes.length cw));
      races_oracle c cw)

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
        decode_blocks rs
          (Bytes.of_string (encode_blocks rs data))
          ~data_len:(String.length data)
      with
      | Ok out -> String.equal out data
      | Error _ -> false)

(* In place, inside a larger buffer: the parity lands right after the
   data and nothing else moves. *)
let rs_parity_into =
  QCheck.Test.make ~name:"parity_into writes parity after the data only"
    ~count:300
    QCheck.(
      quad (int_range 1 40) (string_of_size Gen.(0 -- 254)) (int_range 0 20)
        (int_range 0 20))
    (fun (npar, data, before, after) ->
      let c = Codec.Rs.make ~nparity:npar in
      let data =
        String.sub data 0 (min (String.length data) (Codec.Rs.max_data c))
      in
      let len = String.length data in
      let b = Bytes.make (before + len + npar + after) '\xA5' in
      Bytes.blit_string data 0 b before len;
      Codec.Rs.parity_into c b ~off:before ~len;
      String.equal (Bytes.sub_string b (before + len) npar) (Codec.Rs.parity c data)
      && String.equal (Bytes.sub_string b before len) data
      && Bytes.for_all (fun ch -> ch = '\xA5') (Bytes.sub b 0 before)
      && Bytes.for_all (fun ch -> ch = '\xA5')
           (Bytes.sub b (before + len + npar) after))

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

(* The clean screen the library had before it took eight bytes per
   step, kept as the oracle: S0-S3 by Horner, one table lookup per
   syndrome per byte. *)
let oracle_stab =
  Array.init (4 * 256) (fun j ->
      Codec.Gf256.mul (j land 0xFF) (Codec.Gf256.exp (j lsr 8)))

let oracle_syndromes cw ~off ~len =
  let s = Array.make 4 0 in
  for j = off to off + len - 1 do
    let b = Char.code (Bytes.get cw j) in
    for i = 0 to 3 do
      s.(i) <- oracle_stab.((256 * i) + s.(i)) lxor b
    done
  done;
  s

let screen_oracle cw ~off ~len =
  Array.for_all (( = ) 0) (oracle_syndromes cw ~off ~len)

let screen = Codec.Rs.probably_clean rs

(* A buffer of random bytes with the codeword of [len - 24] random data
   bytes at [off]. *)
let random_codeword rng buf ~off ~len =
  let data =
    String.init (len - Codec.Rs.nparity rs) (fun _ ->
        Char.chr (Sim.Prng.int rng 256))
  in
  Bytes.blit_string (data ^ Codec.Rs.parity rs data) 0 buf off len

let screen_every_length =
  QCheck.Test.make
    ~name:"screen == oracle: every length 0-255, random offsets" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Sim.Prng.create seed in
      let ok = ref true in
      for len = 0 to 255 do
        let off = Sim.Prng.int rng 16 in
        let buf =
          Bytes.init (off + len + Sim.Prng.int rng 16) (fun _ ->
              Char.chr (Sim.Prng.int rng 256))
        in
        ok := !ok && screen buf ~off ~len = screen_oracle buf ~off ~len;
        if len >= Codec.Rs.nparity rs then begin
          random_codeword rng buf ~off ~len;
          ok := !ok && screen buf ~off ~len && screen_oracle buf ~off ~len
        end
      done;
      !ok)

(* S0-S3 are the syndromes of a code of distance 5, so no nonzero error
   of weight 4 or less can vanish at all four roots. *)
let screen_few_errors =
  QCheck.Test.make ~name:"screen: a codeword plus 1-4 symbol errors fails"
    ~count:500
    QCheck.(triple (int_range 24 255) (int_range 1 4) (int_range 0 1_000_000))
    (fun (len, nerr, seed) ->
      let rng = Sim.Prng.create seed in
      let off = Sim.Prng.int rng 16 in
      let buf = Bytes.make (off + len + 8) '\x00' in
      random_codeword rng buf ~off ~len;
      let cw = Bytes.sub buf off len in
      corrupt rng cw (min nerr len);
      Bytes.blit cw 0 buf off len;
      not (screen buf ~off ~len))

(* x^k prod_{j <> i} (x - alpha^j) vanishes at the three other roots
   and not at alpha^i, so a screen that drops syndrome i accepts it. *)
let screen_each_syndrome =
  QCheck.Test.make ~name:"screen: an error seen by one syndrome alone fails"
    ~count:300
    QCheck.(triple (int_range 24 255) (int_range 0 251) (int_range 0 1_000_000))
    (fun (len, k, seed) ->
      let k = k mod (len - 3) in
      let rng = Sim.Prng.create seed in
      let off = Sim.Prng.int rng 16 in
      List.for_all
        (fun i ->
          let buf = Bytes.make (off + len + 8) '\x00' in
          random_codeword rng buf ~off ~len;
          (* Highest degree first: p.(t) is the coefficient of
             x^(3 - t), which sits at byte len - 4 - k + t. *)
          let p =
            List.fold_left
              (fun acc j ->
                if j = i then acc
                else Codec.Gf256.poly_mul acc [| 1; Codec.Gf256.exp j |])
              [| 1 |] [ 0; 1; 2; 3 ]
          in
          Array.iteri
            (fun t c ->
              let at = off + len - 4 - k + t in
              Bytes.set buf at (Char.chr (Char.code (Bytes.get buf at) lxor c)))
            p;
          let synd = oracle_syndromes buf ~off ~len in
          (not (screen buf ~off ~len))
          && Array.for_all Fun.id
               (Array.mapi (fun j v -> (v <> 0) = (j = i)) synd))
        [ 0; 1; 2; 3 ])

let screen_cases =
  [
    Alcotest.test_case "screen allocates nothing" `Quick (fun () ->
        let image =
          Bytes.of_string
            (Codec.Sector.encode ~pba:5 ~kind:Codec.Sector.Data ~generation:1
               (String.make 512 's'))
        in
        let sector () =
          screen image ~off:0 ~len:255
          && screen image ~off:255 ~len:255
          && screen image ~off:510 ~len:94
        in
        Alcotest.(check bool) "clean" true (sector ());
        let before = Gc.minor_words () in
        for _ = 1 to 100 do
          ignore (Sys.opaque_identity (sector ()))
        done;
        let words = Gc.minor_words () -. before in
        if words > 0. then
          Alcotest.failf "300 screens allocated %.0f words (gate 0)" words);
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

(* The encoder the library had before it built the image in one
   buffer, kept as the oracle: a Binio frame, its CRC, then slice by
   slice through {!encode_blocks}. *)
let oracle_frame ?(magic = 0x5E20) ~kind_code ~pba ~generation payload =
  let w = Codec.Binio.W.create ~capacity:532 () in
  Codec.Binio.W.u16 w magic;
  Codec.Binio.W.u8 w kind_code;
  Codec.Binio.W.u8 w 0;
  Codec.Binio.W.u64 w pba;
  Codec.Binio.W.u32 w generation;
  Codec.Binio.W.raw w payload;
  Codec.Binio.W.raw w (String.make (512 - String.length payload) '\x00');
  let crc = Codec.Crc32.string (Codec.Binio.W.contents w) in
  Codec.Binio.W.u32 w (Int32.to_int crc land 0xFFFFFFFF);
  Codec.Binio.W.contents w

let oracle_sector_encode ~pba ~kind ~generation payload =
  encode_blocks rs
    (oracle_frame ~kind_code:(Codec.Sector.kind_to_int kind) ~pba ~generation
       payload)

let sector_kinds =
  Codec.Sector.[ Data; Inode; Summary; Checkpoint; Hash_meta ]

let sector_encode_oracle =
  QCheck.Test.make
    ~name:"encode == oracle encoder: every kind, payloads 0-512, PBAs to 2^40"
    ~count:1000
    QCheck.(
      quad (string_of_size Gen.(0 -- 512)) (int_range 0 (1 lsl 40))
        (int_range 0 4) (int_range 0 0xFFFFFFFF))
    (fun (payload, pba, k, generation) ->
      let kind = List.nth sector_kinds k in
      String.equal
        (Codec.Sector.encode ~pba ~kind ~generation payload)
        (oracle_sector_encode ~pba ~kind ~generation payload))

(* {!Codec.Sector.decode} composed by hand around the RS oracle: the
   same slices, framing and checks. *)
let oracle_sector_decode image =
  let npar = Codec.Rs.nparity rs and m = Codec.Rs.max_data rs in
  let framed = Buffer.create 532 in
  let rec slices off corrected =
    let have = Buffer.length framed in
    if have = 532 then Some corrected
    else
      let take = min m (532 - have) in
      let cw = Bytes.of_string (String.sub image off (take + npar)) in
      let n =
        match Rs_oracle.decode rs cw with
        | Codec.Rs.Ok_clean -> Some 0
        | Codec.Rs.Corrected n -> Some n
        | Codec.Rs.Uncorrectable -> None
      in
      Buffer.add_subbytes framed cw 0 take;
      Option.bind n (fun n -> slices (off + take + npar) (corrected + n))
  in
  match slices 0 0 with
  | None -> Error Codec.Sector.Uncorrectable
  | Some corrected_symbols -> (
      let framed = Buffer.contents framed in
      let r = Codec.Binio.R.of_string framed in
      let magic = Codec.Binio.R.u16 r in
      let kind = Codec.Binio.R.u8 r in
      let _reserved = Codec.Binio.R.u8 r in
      let pba = Codec.Binio.R.u64 r in
      let generation = Codec.Binio.R.u32 r in
      let payload = Codec.Binio.R.raw r 512 in
      let crc = Codec.Binio.R.u32 r in
      match Codec.Sector.kind_of_int kind with
      | Some kind when magic = 0x5E20 ->
          if
            crc
            <> Int32.to_int (Codec.Crc32.string (String.sub framed 0 528))
               land 0xFFFFFFFF
          then Error Codec.Sector.Bad_crc
          else
            Ok { Codec.Sector.pba; kind; generation; payload; corrected_symbols }
      | _ -> Error Codec.Sector.Bad_header)

let sector_oracle =
  QCheck.Test.make ~name:"decode == oracle-composed decode, corrupted images"
    ~count:300
    QCheck.(
      triple (string_of_size Gen.(0 -- 512)) (int_range 0 40) (int_range 0 9999))
    (fun (payload, nerr, seed) ->
      let image =
        Bytes.of_string
          (Codec.Sector.encode ~pba:seed ~kind:Codec.Sector.Data
             ~generation:(seed mod 7) payload)
      in
      corrupt (Sim.Prng.create seed) image nerr;
      let image = Bytes.to_string image in
      Codec.Sector.decode image = oracle_sector_decode image)

(* The fast path the library had before it read the image in place,
   kept as the oracle: it copies the framed bytes out of a clean image
   (its screen is the screen oracle) and parses them with a Binio
   reader.  Anything it rejects goes to {!oracle_sector_decode}, the
   slow path composed around the RS oracle. *)
module Sector_oracle = struct
  let fast coded base =
    let m = Codec.Rs.max_data rs and npar = Codec.Rs.nparity rs in
    let clean = ref true and off = ref base and remaining = ref 532 in
    while !remaining > 0 && !clean do
      let take = min m !remaining in
      if not (screen_oracle coded ~off:!off ~len:(take + npar)) then
        clean := false
      else begin
        off := !off + take + npar;
        remaining := !remaining - take
      end
    done;
    if not !clean then None
    else begin
      let framed = Bytes.create 532 in
      let off = ref base and pos = ref 0 and remaining = ref 532 in
      while !remaining > 0 do
        let take = min m !remaining in
        Bytes.blit coded !off framed !pos take;
        off := !off + take + npar;
        pos := !pos + take;
        remaining := !remaining - take
      done;
      let framed = Bytes.unsafe_to_string framed in
      let r = Codec.Binio.R.of_string framed in
      let magic = Codec.Binio.R.u16 r in
      let kind_code = Codec.Binio.R.u8 r in
      let _reserved = Codec.Binio.R.u8 r in
      let pba = Codec.Binio.R.u64 r in
      let generation = Codec.Binio.R.u32 r in
      let payload = Codec.Binio.R.raw r 512 in
      let crc = Codec.Binio.R.u32 r in
      match Codec.Sector.kind_of_int kind_code with
      | Some kind
        when magic = 0x5E20
             && crc
                = Int32.to_int (Codec.Crc32.string (String.sub framed 0 528))
                  land 0xFFFFFFFF ->
          Some { Codec.Sector.pba; kind; generation; payload; corrected_symbols = 0 }
      | _ -> None
    end

  let decode_sub buf ~off =
    match fast buf off with
    | Some d -> Ok d
    | None -> oracle_sector_decode (Bytes.sub_string buf off 604)
end

(* Images for the decoders: clean frames of every kind, RS-clean frames
   whose header or CRC is wrong, and frames with symbol errors in one
   slice. *)
type sector_case =
  | Clean
  | Bad_magic of int
  | Bad_kind of int
  | Crc_flip of int
  | Errors of int * int

let sector_case_image rng case ~pba ~k ~generation payload =
  let frame ?magic ?(kind_code = k) () =
    Bytes.of_string (oracle_frame ?magic ~kind_code ~pba ~generation payload)
  in
  let kind = List.nth Codec.Sector.[ Data; Inode; Summary; Checkpoint; Hash_meta ] k in
  match case with
  | Clean -> Bytes.of_string (Codec.Sector.encode ~pba ~kind ~generation payload)
  | Bad_magic magic -> Bytes.of_string (encode_blocks rs (Bytes.to_string (frame ~magic ())))
  | Bad_kind kind_code ->
      Bytes.of_string (encode_blocks rs (Bytes.to_string (frame ~kind_code ())))
  | Crc_flip bit ->
      let f = frame () in
      let at = 528 + (bit / 8) in
      Bytes.set f at (Char.chr (Char.code (Bytes.get f at) lxor (1 lsl (bit mod 8))));
      Bytes.of_string (encode_blocks rs (Bytes.to_string f))
  | Errors (slice, n) ->
      let image =
        Bytes.of_string (Codec.Sector.encode ~pba ~kind ~generation payload)
      in
      let len = if slice = 2 then 94 else 255 in
      let cw = Bytes.sub image (255 * slice) len in
      corrupt rng cw n;
      Bytes.blit cw 0 image (255 * slice) len;
      image

let sector_decode_fast_oracle =
  let case =
    QCheck.Gen.(
      frequency
        [
          (4, return Clean);
          (1, map (fun m -> if m = 0x5E20 then Bad_magic 0 else Bad_magic m) (0 -- 0xFFFF));
          (1, map (fun k -> Bad_kind k) (5 -- 255));
          (1, map (fun b -> Crc_flip b) (0 -- 31));
          (2, map2 (fun s n -> Errors (s, n)) (0 -- 2) (1 -- 13));
        ])
  in
  QCheck.Test.make
    ~name:"decode_sub == oracle decoder: kinds, bad frames, symbol errors"
    ~count:1000
    QCheck.(
      pair (make case)
        (quad (string_of_size Gen.(0 -- 512)) (int_range 0 max_int) (int_range 0 4)
           (pair (int_range 0 0xFFFFFFFF) (int_range 0 1_000_000))))
    (fun (case, (payload, pba, k, (generation, seed))) ->
      let rng = Sim.Prng.create seed in
      let image = sector_case_image rng case ~pba ~k ~generation payload in
      let off = Sim.Prng.int rng 40 in
      let buf =
        Bytes.init (off + 604 + Sim.Prng.int rng 40) (fun _ ->
            Char.chr (Sim.Prng.int rng 256))
      in
      Bytes.blit image 0 buf off 604;
      let got = Codec.Sector.decode_sub buf ~off in
      got = Sector_oracle.decode_sub buf ~off
      &&
      match (case, got) with
      | Clean, Ok d -> d.Codec.Sector.pba = pba && d.Codec.Sector.generation = generation
      | Clean, Error _ -> false
      | (Bad_magic _ | Bad_kind _), r -> r = Error Codec.Sector.Bad_header
      | Crc_flip _, r -> r = Error Codec.Sector.Bad_crc
      (* Up to 12 errors a slice are corrected: only the slow path can. *)
      | Errors (_, n), Ok d -> n <= 12 && d.Codec.Sector.corrected_symbols = n
      | Errors (_, n), Error _ -> n > 12)

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

(* Appended after the older sector tests so their numbering holds. *)
let sector_encode_cases =
  [
    Alcotest.test_case "encode: every payload length equals the oracle"
      `Quick (fun () ->
        for len = 0 to 512 do
          let payload = String.init len (fun i -> Char.chr ((i * 37 + len) land 0xFF)) in
          List.iteri
            (fun k kind ->
              let pba = (len * 2_147_483_659) land ((1 lsl 40) - 1) + k in
              Alcotest.(check string)
                (Printf.sprintf "len %d kind %d" len k)
                (oracle_sector_encode ~pba ~kind ~generation:(len * 7) payload)
                (Codec.Sector.encode ~pba ~kind ~generation:(len * 7) payload))
            sector_kinds
        done);
    (* The old encoder copied the frame six times (~490 words); one
       image buffer and two closures are ~90. *)
    Alcotest.test_case "encode allocates under 200 words" `Quick (fun () ->
        let payload = String.make 512 'p' in
        let encode () =
          ignore
            (Sys.opaque_identity
               (Codec.Sector.encode ~pba:7 ~kind:Codec.Sector.Data
                  ~generation:1 payload))
        in
        encode ();
        let before = Gc.minor_words () in
        for _ = 1 to 100 do
          encode ()
        done;
        let words = (Gc.minor_words () -. before) /. 100. in
        if words >= 200. then
          Alcotest.failf "Sector.encode allocated %.0f words (gate 200)" words);
    (* The fast path reads the image in place: what a clean decode
       allocates is the payload, the record and its [Ok]. *)
    Alcotest.test_case "clean decode_sub allocates under 100 words" `Quick
      (fun () ->
        let buf = Bytes.make 700 '\x00' in
        Bytes.blit_string
          (Codec.Sector.encode ~pba:7 ~kind:Codec.Sector.Data ~generation:1
             (String.make 512 'p'))
          0 buf 33 604;
        let decode () = Sys.opaque_identity (Codec.Sector.decode_sub buf ~off:33) in
        (match decode () with
        | Ok d -> Alcotest.(check int) "pba" 7 d.Codec.Sector.pba
        | Error _ -> Alcotest.fail "clean image did not decode");
        let before = Gc.minor_words () in
        for _ = 1 to 100 do
          ignore (decode ())
        done;
        let words = (Gc.minor_words () -. before) /. 100. in
        if words >= 100. then
          Alcotest.failf "Sector.decode_sub allocated %.0f words (gate 100)" words);
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
      ("crc32", crc_cases @ [ qtest crc_detects_flip; qtest crc_update_chains ]);
      ("gf256", List.map qtest gf_tests);
      ( "reed-solomon",
        rs_cases @ rs_erasure_cases
        @ List.map qtest
            [ rs_corrects; rs_overload; rs_blocks_roundtrip;
              rs_erasures_correct; rs_erasures_plus_errors; rs_oracle_errors;
              rs_oracle_random; rs_oracle_codes; rs_parity_into;
              screen_every_length; screen_few_errors; screen_each_syndrome ]
        @ screen_cases );
      ( "sector",
        sector_cases
        @ List.map qtest
            [ sector_roundtrip; sector_error_correction; sector_oracle;
              sector_encode_oracle ]
        @ sector_encode_cases
        @ [ qtest sector_decode_fast_oracle ] );
      ("wom", wom_cases @ List.map qtest [ wom_two_generations; wom_monotone ]);
      ("binio", binio_cases @ [ qtest binio_roundtrip ]);
    ]
