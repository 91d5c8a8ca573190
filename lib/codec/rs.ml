type code = {
  npar : int;
  table : string;
      (* [rows] x 256 entries of [lanes] little-endian 64-bit lanes:
         entry (m * 256) + u, at byte ((m * 256) + u) * 8 * lanes, holds
         u * (x^(npar+m) mod g), coefficient of x^(npar-1-j) at byte j.
         Eight rows for a three-lane code, one for any other. *)
}

let make ~nparity =
  if nparity <= 0 || nparity >= 255 then
    invalid_arg "Rs.make: nparity must be in 1..254";
  (* g(x) = prod_{i=0}^{npar-1} (x - alpha^i) *)
  let gen = ref [| 1 |] in
  for i = 0 to nparity - 1 do
    gen := Gf256.poly_mul !gen [| 1; Gf256.exp i |]
  done;
  let gen = !gen in
  let lanes = (nparity + 7) / 8 in
  let rows = if lanes = 3 then 8 else 1 in
  (* [p] holds x^(npar+m) mod g, coefficient of x^(npar-1-j) at j: the
     remainder's byte order.  Row 0 is g minus its lead; each next row
     multiplies by x. *)
  let p = Array.init nparity (fun j -> gen.(j + 1)) in
  let table = Bytes.make (rows * 256 * lanes * 8) '\x00' in
  for m = 0 to rows - 1 do
    if m > 0 then begin
      let lead = p.(0) in
      for j = 0 to nparity - 1 do
        let next = if j + 1 < nparity then p.(j + 1) else 0 in
        p.(j) <- next lxor Gf256.mul lead gen.(j + 1)
      done
    end;
    for u = 0 to 255 do
      let entry = ((m * 256) + u) * lanes * 8 in
      for j = 0 to nparity - 1 do
        Bytes.set table (entry + j) (Char.unsafe_chr (Gf256.mul u p.(j)))
      done
    done
  done;
  { npar = nparity; table = Bytes.unsafe_to_string table }

let nparity c = c.npar
let max_data c = 255 - c.npar

(* The kernels in codec_stubs.c.  [parity_kernel table npar b n o0 l0
   o1 l1 o2 l2] writes the parity of each of the first [n] slices
   [o_i, o_i + l_i) of [b] right after it; [remainder_kernel table npar
   src off len dst] writes the remainder of [src[off, off + len)] at
   the start of [dst]; [screen_kernel b n o0 l0 o1 l1 o2 l2] is true
   when S0-S3 of each of the first [n] words [o_i, o_i + l_i) are zero.
   The slices' dependent chains run interleaved.  Callers check every
   range first. *)
external parity_kernel :
  string -> int -> Bytes.t -> int -> int -> int -> int -> int -> int -> int -> unit
  = "sero_rs_parity_byte" "sero_rs_parity"
[@@noalloc]

external remainder_kernel : string -> int -> Bytes.t -> int -> int -> Bytes.t -> unit
  = "sero_rs_remainder_byte" "sero_rs_remainder"
[@@noalloc]

external screen_kernel :
  Bytes.t -> int -> int -> int -> int -> int -> int -> int -> bool
  = "sero_rs_screen_byte" "sero_rs_screen"
[@@noalloc]

(* Builds the screen's tables, before any worker domain exists. *)
external screen_init : unit -> unit = "sero_rs_init" [@@noalloc]

let () = screen_init ()

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
  rem : Bytes.t; (* the data's remainder, R_0 first *)
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
        rem = Bytes.create 256;
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
  parity_kernel c.table c.npar b 1 off len 0 0 0 0

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
   parity xor the received parity: one division plus
   npar^2 log-domain steps instead of n * npar.  A word shorter than the
   parity is its own remainder (leading zeros change no polynomial).  A
   zero remainder is a codeword: a clean word skips the table steps. *)
let syndromes c cw ~off ~n s =
  let npar = c.npar and d = s.tmp and nonzero = ref 0 in
  remainder_kernel c.table npar cw off (max 0 (n - npar)) s.rem;
  for m = 0 to npar - 1 do
    let j = n - npar + m in
    d.(m) <-
      Char.code (Bytes.unsafe_get s.rem m)
      lxor if j < 0 then 0 else Char.code (Bytes.get cw (off + j));
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

(* For npar >= 4 the screen is the kernel's S0-S3: every generator has
   the roots alpha^0 .. alpha^(npar-1), so these four syndromes are the
   same functions of a word whatever the code. *)
let probably_clean c cw ~off ~len =
  if off < 0 || len < 0 || len > Bytes.length cw - off then
    invalid_arg "Rs.probably_clean: out of bounds";
  if c.npar < 4 then syndromes c cw ~off ~n:len (Domain.DLS.get scratch_key)
  else screen_kernel cw 1 off len 0 0 0 0

let nslices c data_len =
  let m = max_data c in
  (data_len + m - 1) / m

let encoded_length c data_len =
  if data_len = 0 then 0 else data_len + (nslices c data_len * c.npar)

(* The image of [len] data bytes at [off]: slice [k]'s data starts at
   [off + k (max_data c + npar)] and holds [slice_len c len k] bytes.
   The first guard bounds [len], so no sum below can wrap. *)
let check_slices name c b ~off ~len =
  if off < 0 || len < 0 || len > Bytes.length b - off
     || encoded_length c len > Bytes.length b - off
  then invalid_arg name

let slice_off c off k = off + (k * (max_data c + c.npar))
let slice_len c len k = max 0 (min (max_data c) (len - (k * max_data c)))

let parity_slices c b ~off ~len =
  check_slices "Rs.parity_slices: out of bounds" c b ~off ~len;
  let slices = nslices c len in
  let k = ref 0 in
  while !k < slices do
    let k0 = !k in
    parity_kernel c.table c.npar b (min 3 (slices - k0))
      (slice_off c off k0) (slice_len c len k0)
      (slice_off c off (k0 + 1)) (slice_len c len (k0 + 1))
      (slice_off c off (k0 + 2)) (slice_len c len (k0 + 2));
    k := k0 + 3
  done

let probably_clean_slices c b ~off ~len =
  check_slices "Rs.probably_clean_slices: out of bounds" c b ~off ~len;
  let p = c.npar and slices = nslices c len in
  let k = ref 0 and clean = ref true in
  while !clean && !k < slices do
    let k0 = !k in
    if p < 4 then begin
      clean := probably_clean c b ~off:(slice_off c off k0) ~len:(slice_len c len k0 + p);
      k := k0 + 1
    end
    else begin
      clean :=
        screen_kernel b (min 3 (slices - k0))
          (slice_off c off k0) (slice_len c len k0 + p)
          (slice_off c off (k0 + 1)) (slice_len c len (k0 + 1) + p)
          (slice_off c off (k0 + 2)) (slice_len c len (k0 + 2) + p);
      k := k0 + 3
    end
  done;
  !clean

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
