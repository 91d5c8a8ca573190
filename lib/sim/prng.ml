(* The splitmix64 state is a Weyl counter: draw [n] mixes
   [s0 + n * golden].  It lives in 8 bytes rather than a mutable
   [int64] field, whose every store would box; through the unboxed
   accessors below the step allocates nothing, and every draw that
   returns an immediate ([bool], [int]) is allocation-free.  The native
   electrical-read kernel (lib/medium/erb_stubs.c) reads and writes
   these 8 native-endian state bytes too: it draws a run's bits itself
   and stores the state its draws leave. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create seed = of_state (Int64.of_int seed)
let copy = Bytes.copy

(* The splitmix64 output finalizer, used as a mixing function. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Decorrelated per-index stream: double-mixing (seed, index) places the
   streams far apart in splitmix64's state space, unlike seeding with
   [seed + index] (which would make stream [i] a one-step shift of
   stream [i+1]).  A pure function of (seed, index), so fleet shards can
   derive device streams independently of worker count or order. *)
let stream ~seed index =
  of_state (mix (Int64.logxor (Int64.of_int seed) (mix (Int64.of_int index))))

let[@inline] next t =
  let z = Int64.add (get64 t 0) golden in
  set64 t 0 z;
  mix z

let bits64 t = next t
let split t = of_state (next t)

let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod n

let[@inline] uniform t =
  (* 53 random bits scaled into [0, 1). *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int v /. 9007199254740992.

let float t x = uniform t *. x
let bool t = Int64.logand (next t) 1L = 1L

let bernoulli t p =
  if p <= 0. then false else if p >= 1. then true else uniform t < p

(* [uniform t < p] compares [v / 2^53] with [p] for the draw's top 53
   bits [v]; scaling both sides by 2^53 is exact, so for an integer [v]
   it holds exactly when [v < ceil (p * 2^53)]: no float per draw. *)
let bernoulli_mask t p mask =
  if p <= 0. then 0
  else if p >= 1. then mask
  else begin
    let bound = int_of_float (Float.ceil (p *. 9007199254740992.)) in
    let z = ref (get64 t 0) and m = ref mask and k = ref 0 and hits = ref 0 in
    while !m <> 0 do
      if !m land 1 = 1 then begin
        z := Int64.add !z golden;
        if Int64.to_int (Int64.shift_right_logical (mix !z) 11) < bound then
          hits := !hits lor (1 lsl !k)
      end;
      m := !m lsr 1;
      incr k
    done;
    set64 t 0 !z;
    !hits
  end

let exponential t mean =
  let u = 1. -. uniform t in
  -.mean *. log u

let gaussian t ~mu ~sigma =
  let u1 = 1. -. uniform t and u2 = uniform t in
  mu +. (sigma *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
