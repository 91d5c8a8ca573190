type code = {
  npar : int;
  lanes : int; (* ceil(npar / 6): 48-bit lanes holding the remainder *)
  table : int array;
      (* [rows] x 256 x [lanes]: entry ((m * 256) + u) * lanes + l is
         lane l of u * (x^(npar+m) mod g).  Eight rows for a four-lane
         code, one for any other. *)
}

let lane_bytes = 6
let mask48 = 0xFFFFFFFFFFFF

let make ~nparity =
  if nparity <= 0 || nparity >= 255 then
    invalid_arg "Rs.make: nparity must be in 1..254";
  (* g(x) = prod_{i=0}^{npar-1} (x - alpha^i) *)
  let gen = ref [| 1 |] in
  for i = 0 to nparity - 1 do
    gen := Gf256.poly_mul !gen [| 1; Gf256.exp i |]
  done;
  let gen = !gen in
  let lanes = (nparity + lane_bytes - 1) / lane_bytes in
  let rows = if lanes = 4 then 8 else 1 in
  (* [p] holds x^(npar+m) mod g, coefficient of x^(npar-1-j) at j: the
     remainder's byte order.  Row 0 is g minus its lead; each next row
     multiplies by x. *)
  let p = Array.init nparity (fun j -> gen.(j + 1)) in
  let table = Array.make (rows * 256 * lanes) 0 in
  for m = 0 to rows - 1 do
    if m > 0 then begin
      let lead = p.(0) in
      for j = 0 to nparity - 1 do
        let next = if j + 1 < nparity then p.(j + 1) else 0 in
        p.(j) <- next lxor Gf256.mul lead gen.(j + 1)
      done
    end;
    for u = 0 to 255 do
      let row = ((m * 256) + u) * lanes in
      for j = 0 to nparity - 1 do
        let l = row + (j / lane_bytes) in
        table.(l) <- table.(l) lor (Gf256.mul u p.(j) lsl (8 * (j mod lane_bytes)))
      done
    done
  done;
  { npar = nparity; lanes; table }

let nparity c = c.npar
let max_data c = 255 - c.npar

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* Polynomial long division of src[off, off+len) * x^npar by the
   generator, leaving the remainder in [rem]'s first [c.lanes] lanes.

   The remainder R_0 .. R_(npar-1), R_0 the coefficient of x^(npar-1),
   lives in little-endian 48-bit integer lanes: R_i at bits
   8 (i mod 6) of lane i / 6, pad bytes zero.  A data byte d makes the
   factor u = d xor R_0; the remainder shifts down one symbol and takes
   u * (x^npar mod g), row 0 of the table.

   Eight bytes d_0 .. d_7 at once:

     R' = (x^8 R + sum_j d_j x^(npar+7-j)) mod g
        = (R shifted down eight symbols) + sum_j u_j (x^(npar+7-j) mod g)

   with u_j = d_j xor R_j, so byte j goes through row 7 - j.  The eight
   lookups per lane do not depend on each other: the loop-carried chain
   is one lookup deep per eight bytes, where the byte step is eight. *)
let remainder c src ~off ~len rem =
  let t = c.table in
  if c.lanes = 4 then begin
    (* The sector code's shape (npar 19 to 24): four lanes in locals. *)
    let r0 = ref 0 and r1 = ref 0 and r2 = ref 0 and r3 = ref 0 in
    let head = len land 7 in
    for i = off to off + head - 1 do
      let b = (Char.code (Bytes.unsafe_get src i) lxor (!r0 land 0xFF)) lsl 2 in
      let n0 = (!r0 lsr 8) lor ((!r1 land 0xFF) lsl 40) lxor Array.unsafe_get t b
      and n1 = (!r1 lsr 8) lor ((!r2 land 0xFF) lsl 40) lxor Array.unsafe_get t (b + 1)
      and n2 = (!r2 lsr 8) lor ((!r3 land 0xFF) lsl 40) lxor Array.unsafe_get t (b + 2)
      and n3 = (!r3 lsr 8) lxor Array.unsafe_get t (b + 3) in
      r0 := n0;
      r1 := n1;
      r2 := n2;
      r3 := n3
    done;
    (* Then one 64-bit load per step, d_0 in its low byte, so [u] packs
       u_0 .. u_5 in the bit places of lane 0 and [v] u_6 and u_7 in
       those of lane 1's low two bytes.  Byte j's table entry starts at
       row 7 - j (offset (7 - j) lsl 10) plus u_j lsl 2. *)
    let j = ref (off + head) and stop = off + len in
    while !j < stop do
      let w = get64u src !j in
      let w = if Sys.big_endian then bswap64 w else w in
      let u = (Int64.to_int w lxor !r0) land mask48
      and v = (Int64.to_int (Int64.shift_right_logical w 48) lxor !r1) land 0xFFFF in
      let b0 = 0x1C00 lor ((u lsl 2) land 0x3FC)
      and b1 = 0x1800 lor ((u lsr 6) land 0x3FC)
      and b2 = 0x1400 lor ((u lsr 14) land 0x3FC)
      and b3 = 0x1000 lor ((u lsr 22) land 0x3FC)
      and b4 = 0x0C00 lor ((u lsr 30) land 0x3FC)
      and b5 = 0x0800 lor ((u lsr 38) land 0x3FC)
      and b6 = 0x0400 lor ((v lsl 2) land 0x3FC)
      and b7 = (v lsr 6) land 0x3FC in
      let n0 =
        (!r1 lsr 16) lor ((!r2 land 0xFFFF) lsl 32)
        lxor (Array.unsafe_get t b0 lxor Array.unsafe_get t b1)
        lxor (Array.unsafe_get t b2 lxor Array.unsafe_get t b3)
        lxor (Array.unsafe_get t b4 lxor Array.unsafe_get t b5)
        lxor (Array.unsafe_get t b6 lxor Array.unsafe_get t b7)
      and n1 =
        (!r2 lsr 16) lor ((!r3 land 0xFFFF) lsl 32)
        lxor (Array.unsafe_get t (b0 + 1) lxor Array.unsafe_get t (b1 + 1))
        lxor (Array.unsafe_get t (b2 + 1) lxor Array.unsafe_get t (b3 + 1))
        lxor (Array.unsafe_get t (b4 + 1) lxor Array.unsafe_get t (b5 + 1))
        lxor (Array.unsafe_get t (b6 + 1) lxor Array.unsafe_get t (b7 + 1))
      and n2 =
        (!r3 lsr 16)
        lxor (Array.unsafe_get t (b0 + 2) lxor Array.unsafe_get t (b1 + 2))
        lxor (Array.unsafe_get t (b2 + 2) lxor Array.unsafe_get t (b3 + 2))
        lxor (Array.unsafe_get t (b4 + 2) lxor Array.unsafe_get t (b5 + 2))
        lxor (Array.unsafe_get t (b6 + 2) lxor Array.unsafe_get t (b7 + 2))
      and n3 =
        Array.unsafe_get t (b0 + 3) lxor Array.unsafe_get t (b1 + 3)
        lxor (Array.unsafe_get t (b2 + 3) lxor Array.unsafe_get t (b3 + 3))
        lxor (Array.unsafe_get t (b4 + 3) lxor Array.unsafe_get t (b5 + 3))
        lxor (Array.unsafe_get t (b6 + 3) lxor Array.unsafe_get t (b7 + 3))
      in
      r0 := n0;
      r1 := n1;
      r2 := n2;
      r3 := n3;
      j := !j + 8
    done;
    rem.(0) <- !r0;
    rem.(1) <- !r1;
    rem.(2) <- !r2;
    rem.(3) <- !r3
  end
  else begin
    let n_lanes = c.lanes in
    Array.fill rem 0 n_lanes 0;
    for i = off to off + len - 1 do
      let base =
        (Char.code (Bytes.unsafe_get src i) lxor (Array.unsafe_get rem 0 land 0xFF))
        * n_lanes
      in
      for l = 0 to n_lanes - 2 do
        Array.unsafe_set rem l
          ((Array.unsafe_get rem l lsr 8)
           lor ((Array.unsafe_get rem (l + 1) land 0xFF) lsl 40)
          lxor Array.unsafe_get t (base + l))
      done;
      Array.unsafe_set rem (n_lanes - 1)
        ((Array.unsafe_get rem (n_lanes - 1) lsr 8)
        lxor Array.unsafe_get t (base + n_lanes - 1))
    done
  end

(* Byte [i] of the npar-byte remainder, highest degree first. *)
let rem_byte rem i =
  (rem.(i / lane_bytes) lsr (8 * (i mod lane_bytes))) land 0xFF

type decode_outcome = Ok_clean | Corrected of int | Uncorrectable

(* Every [Corrected k] a decoder can return, built once, so returning
   one allocates nothing. *)
let corrected = Array.init 256 (fun k -> Corrected k)

(* GF(256) in the log domain.  [exp_t] runs to 509 so that a sum of two
   logs, or a log plus an exponent below 255, needs no reduction. *)
let exp_t = Array.init 510 Gf256.exp
let log_t = Array.init 256 (fun a -> if a = 0 then 0 else Gf256.log a)
let[@inline] exp_u e = Array.unsafe_get exp_t e
let[@inline] log_u a = Array.unsafe_get log_t a
let[@inline] gmul a b = if a = 0 || b = 0 then 0 else exp_u (log_u a + log_u b)

(* [a / b], [b <> 0]. *)
let[@inline] gdiv a b = if a = 0 then 0 else exp_u (log_u a + 255 - log_u b)
let[@inline] add_mod255 e d = if e + d >= 255 then e + d - 255 else e + d

(* Per-domain work space sized for any code.  The code itself is shared
   by every domain (the sector code is a global), so it cannot carry
   mutable buffers; {!Domain.DLS.get} finds these without allocating. *)
type scratch = {
  rem : int array; (* remainder lanes *)
  synd : int array; (* S_i = r(alpha^i) *)
  lam : int array; (* error locator, lowest degree first *)
  prev : int array; (* Berlekamp–Massey's last locator before a length change *)
  tmp : int array; (* the word mod g, then [lam] across a length change *)
  omega : int array; (* Forney's evaluator: S * lam mod x^npar *)
  ex : int array; (* running exponents: Chien's terms, then the check's *)
  step : int array; (* each Chien term's degree *)
  roots : int array; (* error positions, ascending *)
  mags : int array; (* log of each root's magnitude, -1 for zero *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      let a () = Array.make 256 0 in
      {
        rem = a ();
        synd = a ();
        lam = a ();
        prev = a ();
        tmp = a ();
        omega = a ();
        ex = a ();
        step = a ();
        roots = a ();
        mags = a ();
      })

let parity_into c b ~off ~len =
  if off < 0 || len < 0 || len > max_data c || len + c.npar > Bytes.length b - off
  then invalid_arg "Rs.parity_into: out of bounds";
  let rem = (Domain.DLS.get scratch_key).rem in
  remainder c b ~off ~len rem;
  for i = 0 to c.npar - 1 do
    Bytes.unsafe_set b (off + len + i) (Char.unsafe_chr (rem_byte rem i))
  done

let parity c data =
  let len = String.length data in
  if len > max_data c then invalid_arg "Rs.parity: data too long";
  let b = Bytes.extend (Bytes.unsafe_of_string data) 0 c.npar in
  parity_into c b ~off:0 ~len;
  Bytes.sub_string b len c.npar

(* Syndromes S_i = r(alpha^i), i < npar, of the received word
   cw[off, off+n) into [s.synd]; [true] when all are zero.  Since
   r = q g + (r mod g) and g(alpha^i) = 0, S_i is the remainder
   evaluated at alpha^i, and the remainder is the data's recomputed
   parity xor the received parity: one lane-packed division plus
   npar^2 log-domain steps instead of n * npar.  A word shorter than the
   parity is its own remainder (leading zeros change no polynomial).  A
   zero remainder is a codeword: a clean word skips the table steps. *)
let syndromes c cw ~off ~n s =
  let npar = c.npar and d = s.tmp and nonzero = ref 0 in
  remainder c cw ~off ~len:(max 0 (n - npar)) s.rem;
  for m = 0 to npar - 1 do
    let j = n - npar + m in
    d.(m) <-
      rem_byte s.rem m lxor if j < 0 then 0 else Char.code (Bytes.get cw (off + j));
    nonzero := !nonzero lor d.(m)
  done;
  !nonzero = 0
  || begin
       (* Term m, D_m x^(npar-1-m), adds alpha^(log D_m + i (npar-1-m))
          to S_i: one running exponent per term, no carried chain. *)
       let synd = s.synd in
       Array.fill synd 0 npar 0;
       for m = 0 to npar - 1 do
         if d.(m) <> 0 then begin
           let e = ref (log_u d.(m)) in
           for i = 0 to npar - 1 do
             Array.unsafe_set synd i (Array.unsafe_get synd i lxor exp_u !e);
             e := add_mod255 !e (npar - 1 - m)
           done
         end
       done;
       false
     end

(* How many leading syndromes [probably_clean] evaluates. *)
let quick_syndromes = 4

(* The screen's S1-S3 travel packed one byte each in an int: S_i in
   bits 8(i-1) .. 8i-1.  Every code's generator has the roots alpha^0 ..
   alpha^(npar-1), so for npar >= 4 these syndromes are the same
   functions of the word whatever the code, and the tables are global.
   Eight bytes b_0 .. b_7 advance the Horner evaluation in one dependent
   step,

     S_i <- S_i alpha^(8i) + sum_k b_k alpha^((7-k)i),

   where [screen_byte] row k holds byte b's three terms
   b alpha^k | b alpha^(2k) lsl 8 | b alpha^(3k) lsl 16, and
   [screen_shift] row i-1 holds s alpha^(8i) already at lane i.  Built
   at module initialisation, before any worker domain exists. *)
let screen_byte =
  Array.init (8 * 256) (fun j ->
      let k = j lsr 8 and b = j land 0xFF in
      Gf256.mul b (Gf256.exp k)
      lor (Gf256.mul b (Gf256.exp (2 * k)) lsl 8)
      lor (Gf256.mul b (Gf256.exp (3 * k)) lsl 16))

let screen_shift =
  Array.init (3 * 256) (fun j ->
      let i = (j lsr 8) + 1 and s = j land 0xFF in
      Gf256.mul s (Gf256.exp (8 * i)) lsl (8 * (i - 1)))

let probably_clean c cw ~off ~len =
  if off < 0 || len < 0 || len > Bytes.length cw - off then
    invalid_arg "Rs.probably_clean: out of bounds";
  if c.npar < quick_syndromes then
    syndromes c cw ~off ~n:len (Domain.DLS.get scratch_key)
  else begin
    let pk = screen_byte and q = screen_shift in
    (* alpha^0 = 1, so syndrome 0 is a plain running XOR.  The first
       [len mod 8] bytes start from zero syndromes: byte p of them lands
       through row [head - 1 - p] with no dependent step. *)
    let head = len land 7 in
    let s0 = ref 0 and s = ref 0 in
    for p = 0 to head - 1 do
      let b = Char.code (Bytes.unsafe_get cw (off + p)) in
      s0 := !s0 lxor b;
      s := !s lxor Array.unsafe_get pk (((head - 1 - p) lsl 8) lor b)
    done;
    (* Then one 64-bit load per step, b_0 in its low byte.  [lo] holds
       b_0 .. b_3 in bits 0-31 (its bits from 32 up are never read) and
       [hi] holds b_4 .. b_7; S0 accumulates [lo lxor hi], whose bits
       0-31 are the four bytewise xors, and folds them at the end. *)
    let j = ref (off + head) and stop = off + len in
    while !j < stop do
      let p = !j in
      let w = get64u cw p in
      let w = if Sys.big_endian then bswap64 w else w in
      let lo = Int64.to_int w and hi = Int64.to_int (Int64.shift_right_logical w 32) in
      s0 := !s0 lxor lo lxor hi;
      (* The bytes' terms combine off the one dependent step. *)
      let x =
        Array.unsafe_get pk (0x700 lor (lo land 0xFF))
        lxor Array.unsafe_get pk (0x600 lor ((lo lsr 8) land 0xFF))
        lxor (Array.unsafe_get pk (0x500 lor ((lo lsr 16) land 0xFF))
             lxor Array.unsafe_get pk (0x400 lor ((lo lsr 24) land 0xFF)))
        lxor (Array.unsafe_get pk (0x300 lor (hi land 0xFF))
             lxor Array.unsafe_get pk (0x200 lor ((hi lsr 8) land 0xFF))
             lxor (Array.unsafe_get pk (0x100 lor ((hi lsr 16) land 0xFF))
                  lxor Array.unsafe_get pk (hi lsr 24)))
      in
      let v = !s in
      s :=
        Array.unsafe_get q (v land 0xFF)
        lxor Array.unsafe_get q (0x100 lor ((v lsr 8) land 0xFF))
        lxor (Array.unsafe_get q (0x200 lor (v lsr 16)) lxor x);
      j := p + 8
    done;
    let s0 = !s0 lxor (!s0 lsr 16) in
    (s0 lxor (s0 lsr 8)) land 0xFF lor !s = 0
  end

(* Berlekamp–Massey over syn.(0 .. n-1): the shortest LFSR that
   generates them.  Leaves its connection polynomial (the locator),
   lowest degree first, in s.lam.(0 .. n) and returns its length.
   [top_c] and [top_b] bound the nonzero coefficients of [c] and [b], so
   an update skips [b]'s zero tail. *)
let berlekamp_massey syn ~n s =
  let c = s.lam and b = s.prev in
  Array.fill c 0 (n + 1) 0;
  Array.fill b 0 (n + 1) 0;
  c.(0) <- 1;
  b.(0) <- 1;
  let l = ref 0 and m = ref 1 and bb = ref 1 and top_c = ref 0 and top_b = ref 0 in
  for i = 0 to n - 1 do
    let d = ref syn.(i) in
    for j = 1 to !l do
      d := !d lxor gmul c.(j) syn.(i - j)
    done;
    if !d = 0 then incr m
    else begin
      let coef = gdiv !d !bb and grow = 2 * !l <= i and last = !top_c in
      if grow then Array.blit c 0 s.tmp 0 (n + 1);
      let top = min (n - !m) !top_b in
      for j = 0 to top do
        c.(j + !m) <- c.(j + !m) lxor gmul coef b.(j)
      done;
      top_c := max !top_c (!m + top);
      if grow then begin
        l := i + 1 - !l;
        Array.blit s.tmp 0 b 0 (n + 1);
        top_b := last;
        bb := !d;
        m := 1
      end
      else incr m
    end
  done;
  !l

(* sum_k a.(first + stride k) y^(stride k) over first + stride k <= last,
   at y = alpha^ly. *)
let poly_at a ~first ~last ~stride ly =
  let step = stride * ly mod 255 in
  let acc = ref 0 and e = ref 0 and i = ref first in
  while !i <= last do
    if a.(!i) <> 0 then acc := !acc lxor exp_t.(log_t.(a.(!i)) + !e);
    e := add_mod255 !e step;
    i := !i + stride
  done;
  !acc

(* Chien search, Forney and the final check for the locator
   s.lam.(0 .. deg) of the n-byte word [cw], correcting it in place.
   Byte [p] is the coefficient of x^(n-1-p): an error there has locator
   X = alpha^(n-1-p), and lam(X^-1) = 0. *)
let correct c cw ~n s ~deg =
  let npar = c.npar and lam = s.lam in
  (* Chien, in the log domain and incremental: at byte p, term j of
     lam(X^-1) is alpha^(log lam_j - j (n-1-p)), so each step adds j to
     its exponent.  Only nonzero terms are kept.  A degree-[deg]
     locator has at most [deg] roots, so the search stops at the last. *)
  let terms = ref 0 in
  for j = 0 to deg do
    if lam.(j) <> 0 then begin
      s.ex.(!terms) <- (log_t.(lam.(j)) + (j * (256 - n))) mod 255;
      s.step.(!terms) <- j;
      incr terms
    end
  done;
  let found = ref 0 and p = ref 0 and ex = s.ex and step = s.step in
  while !found < deg && !p < n do
    let v = ref 0 in
    for t = 0 to !terms - 1 do
      let e = Array.unsafe_get ex t in
      v := !v lxor exp_u e;
      Array.unsafe_set ex t (add_mod255 e (Array.unsafe_get step t))
    done;
    if !v = 0 then begin
      s.roots.(!found) <- !p;
      incr found
    end;
    incr p
  done;
  if !found < deg then Uncorrectable
  else begin
    (* Forney: the magnitude at X is X omega(X^-1) / lam'(X^-1), and
       the formal derivative keeps lam's odd terms.  Omega's terms from
       x^deg up are lam's recurrence over the syndromes, which lam
       generates: zero. *)
    for i = 0 to deg - 1 do
      let acc = ref 0 in
      for j = 0 to i do
        acc := !acc lxor gmul lam.(j) s.synd.(i - j)
      done;
      s.omega.(i) <- !acc
    done;
    let ok = ref true in
    for r = 0 to deg - 1 do
      let lx = n - 1 - s.roots.(r) in
      let linv = (255 - lx) mod 255 in
      let num = poly_at s.omega ~first:0 ~last:(deg - 1) ~stride:1 linv
      and den = poly_at lam ~first:1 ~last:deg ~stride:2 linv in
      if den = 0 then ok := false
      else if num = 0 then s.mags.(r) <- -1
      else begin
        let ly = (lx + log_t.(num) + 255 - log_t.(den)) mod 255 in
        s.mags.(r) <- ly;
        let pos = s.roots.(r) in
        Bytes.set cw pos (Char.chr (Char.code (Bytes.get cw pos) lxor exp_t.(ly)))
      end
    done;
    (* The corrected word's syndromes, by linearity: S_i plus
       sum_r Y_r X_r^i over the magnitudes just applied. *)
    Array.blit s.mags 0 s.ex 0 deg;
    let i = ref 0 in
    while !ok && !i < npar do
      let acc = ref s.synd.(!i) in
      for r = 0 to deg - 1 do
        if s.ex.(r) >= 0 then begin
          acc := !acc lxor exp_t.(s.ex.(r));
          s.ex.(r) <- add_mod255 s.ex.(r) (n - 1 - s.roots.(r))
        end
      done;
      if !acc <> 0 then ok := false;
      incr i
    done;
    if !ok then corrected.(deg) else Uncorrectable
  end

let decode c cw =
  let n = Bytes.length cw in
  if n > 255 then invalid_arg "Rs.decode: codeword too long";
  let s = Domain.DLS.get scratch_key in
  if syndromes c cw ~off:0 ~n s then Ok_clean
  else
    let deg = berlekamp_massey s.synd ~n:c.npar s in
    if 2 * deg > c.npar then Uncorrectable else correct c cw ~n s ~deg

let nslices c data_len =
  let m = max_data c in
  (data_len + m - 1) / m

let encoded_length c data_len =
  if data_len = 0 then 0 else data_len + (nslices c data_len * c.npar)
