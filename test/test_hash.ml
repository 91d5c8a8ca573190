(* SHA-256 against the FIPS 180-4 / NIST CAVS vectors, plus streaming
   and encoding properties. *)

let check_digest name input expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string)
        name expected
        (Hash.Sha256.to_hex (Hash.Sha256.digest_string input)))

let nist_vectors =
  [
    ( "empty",
      "",
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" );
    ( "abc",
      "abc",
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" );
    ( "448-bit",
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "896-bit",
      "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
      ^ "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
    ( "one-block-exactly (64 bytes)",
      String.make 64 'a',
      "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb" );
    ( "len-55 (padding boundary)",
      String.make 55 'b',
      "eb2c86e932179f4ba13fe8715a26124b77d6bad290b9b4c1cc140cf633300c19" );
    ( "len-56 (padding boundary)",
      String.make 56 'b',
      "a5fc6e203a4c2b657d0d153885932414b2ffc6a93f0f8bf8b3183315e5a7212c" );
  ]

let million_a =
  Alcotest.test_case "million 'a' (streaming)" `Slow (fun () ->
      let ctx = Hash.Sha256.init () in
      let chunk = String.make 1000 'a' in
      for _ = 1 to 1000 do
        Hash.Sha256.feed_string ctx chunk
      done;
      Alcotest.(check string)
        "digest"
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        (Hash.Sha256.to_hex (Hash.Sha256.finalize ctx)))

let streaming_equals_oneshot =
  QCheck.Test.make ~name:"streaming equals one-shot at any chunking" ~count:200
    QCheck.(pair (string_of_size Gen.(0 -- 500)) (int_range 1 64))
    (fun (s, chunk) ->
      let ctx = Hash.Sha256.init () in
      let rec go off =
        if off < String.length s then begin
          let take = min chunk (String.length s - off) in
          Hash.Sha256.feed_bytes ctx (Bytes.of_string s) off take;
          go (off + take)
        end
      in
      go 0;
      Hash.Sha256.equal (Hash.Sha256.finalize ctx) (Hash.Sha256.digest_string s))

let concat_matches =
  QCheck.Test.make ~name:"digest_concat = digest of concatenation" ~count:200
    QCheck.(small_list (string_of_size Gen.(0 -- 50)))
    (fun parts ->
      Hash.Sha256.equal
        (Hash.Sha256.digest_concat parts)
        (Hash.Sha256.digest_string (String.concat "" parts)))

let hex_roundtrip =
  QCheck.Test.make ~name:"to_hex/of_hex roundtrip" ~count:200
    QCheck.(string_of_size (QCheck.Gen.return 10))
    (fun s ->
      let d = Hash.Sha256.digest_string s in
      Hash.Sha256.equal d (Hash.Sha256.of_hex (Hash.Sha256.to_hex d)))

let raw_roundtrip =
  QCheck.Test.make ~name:"to_raw/of_raw roundtrip" ~count:200
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s ->
      let d = Hash.Sha256.digest_string s in
      Hash.Sha256.equal d (Hash.Sha256.of_raw (Hash.Sha256.to_raw d)))

let no_trivial_collisions =
  QCheck.Test.make ~name:"distinct inputs give distinct digests" ~count:200
    QCheck.(pair (string_of_size Gen.(0 -- 80)) (string_of_size Gen.(0 -- 80)))
    (fun (a, b) ->
      String.equal a b
      || not (Hash.Sha256.equal (Hash.Sha256.digest_string a) (Hash.Sha256.digest_string b)))

(* The SHA-256 the library had before its compression function was
   unrolled, kept as the oracle: working variables in refs, every
   rotation and sum masked to 32 bits, one round per iteration with all
   eight variables shifted. *)
module Sha256_oracle = struct
  let mask32 = 0xFFFFFFFF

  let k =
    [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
       0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
       0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
       0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
       0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
       0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
       0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
       0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
       0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
       0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
       0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

  let compress h w block off =
    for i = 0 to 15 do
      let base = off + (4 * i) in
      w.(i) <-
        (Char.code (Bytes.get block base) lsl 24)
        lor (Char.code (Bytes.get block (base + 1)) lsl 16)
        lor (Char.code (Bytes.get block (base + 2)) lsl 8)
        lor Char.code (Bytes.get block (base + 3))
    done;
    for i = 16 to 63 do
      let w15 = w.(i - 15) and w2 = w.(i - 2) in
      let s0 = rotr w15 7 lxor rotr w15 18 lxor (w15 lsr 3) in
      let s1 = rotr w2 17 lxor rotr w2 19 lxor (w2 lsr 10) in
      w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask32
    done;
    let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
    let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
    for i = 0 to 63 do
      let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
      let ch = !e land !f lxor (lnot !e land !g) in
      let t1 = (!hh + s1 + ch + k.(i) + w.(i)) land mask32 in
      let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
      let maj = !a land !b lxor (!a land !c) lxor (!b land !c) in
      let t2 = (s0 + maj) land mask32 in
      hh := !g;
      g := !f;
      f := !e;
      e := (!d + t1) land mask32;
      d := !c;
      c := !b;
      b := !a;
      a := (t1 + t2) land mask32
    done;
    List.iteri
      (fun i v -> h.(i) <- (h.(i) + v) land mask32)
      [ !a; !b; !c; !d; !e; !f; !g; !hh ]

  (* The raw 32-byte digest of [s]. *)
  let digest s =
    let h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
         0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]
    and w = Array.make 64 0 in
    let len = String.length s in
    (* Padding: 0x80, zeros, then the 64-bit big-endian bit length. *)
    let padded = ((len + 9 + 63) / 64) * 64 in
    let m = Bytes.make padded '\x00' in
    Bytes.blit_string s 0 m 0 len;
    Bytes.set m len '\x80';
    for i = 0 to 7 do
      Bytes.set m (padded - 1 - i) (Char.chr (((len * 8) lsr (8 * i)) land 0xFF))
    done;
    for blk = 0 to (padded / 64) - 1 do
      compress h w m (64 * blk)
    done;
    String.init 32 (fun i -> Char.chr ((h.(i / 4) lsr (24 - (8 * (i mod 4)))) land 0xFF))
end

let pseudo_random_bytes n seed =
  String.init n (fun i -> Char.chr (((i * 2_654_435_761) + (seed * 40_503)) lsr 13 land 0xFF))

let oracle_cases =
  [
    Alcotest.test_case "every length 0-3000 equals the oracle" `Quick
      (fun () ->
        for n = 0 to 3000 do
          let s = pseudo_random_bytes n n in
          let got = Hash.Sha256.to_raw (Hash.Sha256.digest_string s) in
          if not (String.equal got (Sha256_oracle.digest s)) then
            Alcotest.failf "length %d differs from the oracle" n
        done);
    (* A line preimage of 7 data blocks: prefix, per-block headers and
       payloads.  The parent took 105 words: the context, its block
       buffer and schedule, the padding and the digest. *)
    Alcotest.test_case "a 3656-byte digest allocates under 128 words" `Quick
      (fun () ->
        let s = pseudo_random_bytes 3656 1 in
        ignore (Hash.Sha256.digest_string s);
        let before = Gc.minor_words () in
        ignore (Sys.opaque_identity (Hash.Sha256.digest_string s));
        let words = Gc.minor_words () -. before in
        if words >= 128. then
          Alcotest.failf "digest allocated %.0f words (gate 128)" words);
  ]

(* Chunks of 1-200 bytes, each copied to a random offset of a scratch
   buffer and fed from there, so the word loads land on every
   alignment. *)
let chunked_unaligned =
  QCheck.Test.make ~name:"chunked unaligned feeds equal the oracle" ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 4200)) (int_range 0 1_000_000))
    (fun (s, seed) ->
      let rng = Random.State.make [| seed |] in
      let ctx = Hash.Sha256.init () in
      let scratch = Bytes.make 256 '\x00' in
      let rec go off =
        if off < String.length s then begin
          let take = min (1 + Random.State.int rng 200) (String.length s - off) in
          let at = Random.State.int rng (256 - take + 1) in
          Bytes.blit_string s off scratch at take;
          Hash.Sha256.feed_bytes ctx scratch at take;
          go (off + take)
        end
      in
      go 0;
      String.equal
        (Hash.Sha256.to_raw (Hash.Sha256.finalize ctx))
        (Sha256_oracle.digest s))

let misuse =
  [
    Alcotest.test_case "finalize twice raises" `Quick (fun () ->
        let ctx = Hash.Sha256.init () in
        ignore (Hash.Sha256.finalize ctx);
        Alcotest.check_raises "second finalize"
          (Invalid_argument "Sha256.finalize: finalized context") (fun () ->
            ignore (Hash.Sha256.finalize ctx)));
    Alcotest.test_case "feed after finalize raises" `Quick (fun () ->
        let ctx = Hash.Sha256.init () in
        ignore (Hash.Sha256.finalize ctx);
        Alcotest.check_raises "feed"
          (Invalid_argument "Sha256.feed_bytes: finalized context") (fun () ->
            Hash.Sha256.feed_string ctx "x"));
    Alcotest.test_case "of_raw wrong size raises" `Quick (fun () ->
        Alcotest.check_raises "of_raw"
          (Invalid_argument "Sha256.of_raw: need 32 bytes") (fun () ->
            ignore (Hash.Sha256.of_raw "short")));
    Alcotest.test_case "of_hex bad digit raises" `Quick (fun () ->
        Alcotest.check_raises "of_hex"
          (Invalid_argument "Sha256.of_hex: bad digit") (fun () ->
            ignore (Hash.Sha256.of_hex (String.make 64 'z'))));
    Alcotest.test_case "zero digest is 32 zero bytes" `Quick (fun () ->
        Alcotest.(check string)
          "raw"
          (String.make 32 '\x00')
          (Hash.Sha256.to_raw Hash.Sha256.zero));
    Alcotest.test_case "compare is a total order consistent with equal" `Quick
      (fun () ->
        let a = Hash.Sha256.digest_string "a"
        and b = Hash.Sha256.digest_string "b" in
        Alcotest.(check bool) "equal self" true (Hash.Sha256.compare a a = 0);
        Alcotest.(check bool)
          "antisym" true
          (Hash.Sha256.compare a b = -Hash.Sha256.compare b a));
  ]

let () =
  Alcotest.run "hash"
    [
      ("nist-vectors", List.map (fun (n, i, e) -> check_digest n i e) nist_vectors);
      ("large", [ million_a ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            streaming_equals_oneshot; concat_matches; hex_roundtrip;
            raw_roundtrip; no_trivial_collisions;
          ] );
      ("misuse", misuse);
      ("oracle", oracle_cases @ [ QCheck_alcotest.to_alcotest chunked_unaligned ]);
    ]
