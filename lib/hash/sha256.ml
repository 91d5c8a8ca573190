(* SHA-256 per FIPS 180-4, on native ints: OCaml ints are 63-bit on
   every platform we target, so this is both portable and faster than
   boxed Int32.  The compression function keeps a value to 32 bits only
   where it has to:

   - A rotation reads the doubled word [d = x lor (x lsl 32)] of a
     32-bit [x], which holds bits 0-62 of x * (2^32 + 1).  For n <= 31
     the low 32 bits of [d lsr n] are [rotr x n], so each of the
     Sigma/sigma functions costs one doubling, three shifts and two xors.
   - Sigma, sigma, Ch and Maj are only ever added, and a sum mod 2^32
     depends only on the low 32 bits of its addends (ints wrap mod
     2^63).  Their high bits may hold garbage; only a value that
     re-enters a rotation or is stored (each new [a], new [e] and
     schedule word) is masked.

   Eight rounds run per loop iteration with the roles of the working
   variables rotating, so a round writes only [d] and [h]. *)

type t = string (* 32 raw bytes, big-endian word order *)

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

type ctx = {
  h : int array; (* 8 chained words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total bytes absorbed *)
  w : int array; (* 64-entry message schedule, reused across blocks *)
  mutable finalized : bool;
}

let init () =
  {
    h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
         0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = Array.make 64 0;
    finalized = false;
  }

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

(* The big-endian word at [p], unchecked and unboxed. *)
let[@inline] load_be32 b p =
  let x = get32u b p in
  Int32.to_int (if Sys.big_endian then x else bswap32 x) land mask32

(* Each of these takes masked words; only the low 32 bits of the result
   are meaningful. *)
let[@inline] big_sigma0 x =
  let d = x lor (x lsl 32) in
  (d lsr 2) lxor (d lsr 13) lxor (d lsr 22)

let[@inline] big_sigma1 x =
  let d = x lor (x lsl 32) in
  (d lsr 6) lxor (d lsr 11) lxor (d lsr 25)

let[@inline] small_sigma0 x =
  let d = x lor (x lsl 32) in
  (d lsr 7) lxor (d lsr 18) lxor (x lsr 3)

let[@inline] small_sigma1 x =
  let d = x lor (x lsl 32) in
  (d lsr 17) lxor (d lsr 19) lxor (x lsr 10)

(* Round [i]'s T1 and T2, for working variables in the roles
   (a, b, c) and (e, f, g, h). *)
let[@inline] t1 w i e f g h =
  h + big_sigma1 e
  + (g lxor (e land (f lxor g)))
  + Array.unsafe_get k i + Array.unsafe_get w i

let[@inline] t2 a b c = big_sigma0 a + ((a land (b lor c)) lor (b land c))

(* [off + 64 <= Bytes.length block] is guaranteed by both callers
   (feed_bytes checks its arguments; finalize builds the padding), so
   the block and schedule accesses below are in bounds by construction
   and run unchecked. *)
let compress ctx block off =
  let w = ctx.w in
  for i = 0 to 15 do
    Array.unsafe_set w i (load_be32 block (off + (4 * i)))
  done;
  for i = 16 to 63 do
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16)
       + small_sigma0 (Array.unsafe_get w (i - 15))
       + Array.unsafe_get w (i - 7)
       + small_sigma1 (Array.unsafe_get w (i - 2)))
      land mask32)
  done;
  let h = ctx.h in
  let a = ref h.(0)
  and b = ref h.(1)
  and c = ref h.(2)
  and d = ref h.(3)
  and e = ref h.(4)
  and f = ref h.(5)
  and g = ref h.(6)
  and hh = ref h.(7) in
  for j = 0 to 7 do
    let i = 8 * j in
    let t = t1 w i !e !f !g !hh in
    d := (!d + t) land mask32;
    hh := (t + t2 !a !b !c) land mask32;
    let t = t1 w (i + 1) !d !e !f !g in
    c := (!c + t) land mask32;
    g := (t + t2 !hh !a !b) land mask32;
    let t = t1 w (i + 2) !c !d !e !f in
    b := (!b + t) land mask32;
    f := (t + t2 !g !hh !a) land mask32;
    let t = t1 w (i + 3) !b !c !d !e in
    a := (!a + t) land mask32;
    e := (t + t2 !f !g !hh) land mask32;
    let t = t1 w (i + 4) !a !b !c !d in
    hh := (!hh + t) land mask32;
    d := (t + t2 !e !f !g) land mask32;
    let t = t1 w (i + 5) !hh !a !b !c in
    g := (!g + t) land mask32;
    c := (t + t2 !d !e !f) land mask32;
    let t = t1 w (i + 6) !g !hh !a !b in
    f := (!f + t) land mask32;
    b := (t + t2 !c !d !e) land mask32;
    let t = t1 w (i + 7) !f !g !hh !a in
    e := (!e + t) land mask32;
    a := (t + t2 !b !c !d) land mask32
  done;
  h.(0) <- (h.(0) + !a) land mask32;
  h.(1) <- (h.(1) + !b) land mask32;
  h.(2) <- (h.(2) + !c) land mask32;
  h.(3) <- (h.(3) + !d) land mask32;
  h.(4) <- (h.(4) + !e) land mask32;
  h.(5) <- (h.(5) + !f) land mask32;
  h.(6) <- (h.(6) + !g) land mask32;
  h.(7) <- (h.(7) + !hh) land mask32

let feed_bytes ctx b off len =
  if ctx.finalized then invalid_arg "Sha256.feed_bytes: finalized context";
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Sha256.feed_bytes: out of bounds";
  ctx.total <- ctx.total + len;
  let pos = ref off and remaining = ref len in
  (* Top up a partially filled block buffer first. *)
  if ctx.buf_len > 0 then begin
    let need = 64 - ctx.buf_len in
    let take = min need !remaining in
    Bytes.blit b !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= 64 do
    compress ctx b !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit b !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let feed_string ctx s =
  feed_bytes ctx (Bytes.unsafe_of_string s) 0 (String.length s)

let finalize ctx =
  if ctx.finalized then invalid_arg "Sha256.finalize: finalized context";
  let bit_len = ctx.total * 8 in
  (* Padding: 0x80, zeros, then the 64-bit big-endian message length. *)
  let pad_len =
    let rem = (ctx.total + 1 + 8) mod 64 in
    if rem = 0 then 1 + 8 else 1 + 8 + (64 - rem)
  in
  let pad = Bytes.make pad_len '\x00' in
  Bytes.set pad 0 '\x80';
  for i = 0 to 7 do
    Bytes.set pad
      (pad_len - 1 - i)
      (Char.chr ((bit_len lsr (8 * i)) land 0xFF))
  done;
  (* feed_bytes updates [total], which no longer matters. *)
  feed_bytes ctx pad 0 pad_len;
  assert (ctx.buf_len = 0);
  ctx.finalized <- true;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    Bytes.set out (4 * i) (Char.chr ((v lsr 24) land 0xFF));
    Bytes.set out ((4 * i) + 1) (Char.chr ((v lsr 16) land 0xFF));
    Bytes.set out ((4 * i) + 2) (Char.chr ((v lsr 8) land 0xFF));
    Bytes.set out ((4 * i) + 3) (Char.chr (v land 0xFF))
  done;
  Bytes.unsafe_to_string out

let digest_bytes b =
  let ctx = init () in
  feed_bytes ctx b 0 (Bytes.length b);
  finalize ctx

let digest_string s = digest_bytes (Bytes.unsafe_of_string s)

let digest_concat parts =
  let ctx = init () in
  List.iter (feed_string ctx) parts;
  finalize ctx

let to_raw t = t

let of_raw s =
  if String.length s <> 32 then invalid_arg "Sha256.of_raw: need 32 bytes";
  s

let hex_digit n = "0123456789abcdef".[n land 0xF]

let to_hex t =
  String.init 64 (fun i ->
      let byte = Char.code t.[i / 2] in
      if i mod 2 = 0 then hex_digit (byte lsr 4) else hex_digit byte)

let of_hex s =
  if String.length s <> 64 then invalid_arg "Sha256.of_hex: need 64 chars";
  let nibble c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Sha256.of_hex: bad digit"
  in
  String.init 32 (fun i ->
      Char.chr ((nibble s.[2 * i] lsl 4) lor nibble s.[(2 * i) + 1]))

let equal = String.equal
let compare = String.compare
let pp ppf t = Format.fprintf ppf "%s…" (String.sub (to_hex t) 0 8)
let pp_full ppf t = Format.pp_print_string ppf (to_hex t)
let zero = String.make 32 '\x00'
