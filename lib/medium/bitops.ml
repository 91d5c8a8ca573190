type counters = {
  mutable mrb : int;
  mutable mwb : int;
  mutable ewb : int;
  mutable erb : int;
  mutable collateral : int;
}

(* How {!erb_run}'s native walk (erb_stubs.c) draws its windows:
   [Vector] where CPUID reports AVX-512DQ, checked once here. *)
type window = Scalar | Vector

external vector_present : unit -> bool = "sero_erb_vector_present" [@@noalloc]

let native_window = if vector_present () then Some Vector else None

type ctx = {
  medium : Medium.t;
  counters : counters;
  neighbour_damage_p : float;
  mutable fault : Fault.Injector.t option;
  window : window;
}

let make ?profile medium =
  let cfg = Medium.config medium in
  let profile =
    match profile with
    | Some p -> p
    | None -> Physics.Thermal.default_profile cfg.Medium.geometry
  in
  let neighbour_damage_p =
    Physics.Thermal.neighbour_damage_probability cfg.Medium.material profile
      ~pitch:cfg.Medium.geometry.pitch
  in
  {
    medium;
    counters = { mrb = 0; mwb = 0; ewb = 0; erb = 0; collateral = 0 };
    neighbour_damage_p;
    fault = None;
    window = Option.value native_window ~default:Scalar;
  }

(* Context for a cloned medium: fresh counters snapshotting the
   parent's, same physics.  A live injector is never inherited — fault
   plans hold position state (PRNG cursor, ledger) that belongs to the
   parent's history; the clone starts with [fault = None] and callers
   install a fresh injector if they want faults on the copy. *)
let clone t medium =
  let c = t.counters in
  {
    medium;
    counters =
      {
        mrb = c.mrb;
        mwb = c.mwb;
        ewb = c.ewb;
        erb = c.erb;
        collateral = c.collateral;
      };
    neighbour_damage_p = t.neighbour_damage_p;
    fault = None;
    window = t.window;
  }

let medium t = t.medium
let counters t = t.counters
let fault t = t.fault
let set_fault t inj = t.fault <- inj

(* Count one primitive op with the injector (may raise Power_cut at the
   boundary, before the op touches the medium). *)
let fault_tick t =
  match t.fault with None -> () | Some inj -> Fault.Injector.tick inj

let reset_counters t =
  t.counters.mrb <- 0;
  t.counters.mwb <- 0;
  t.counters.ewb <- 0;
  t.counters.erb <- 0;
  t.counters.collateral <- 0

let mrb t i =
  fault_tick t;
  t.counters.mrb <- t.counters.mrb + 1;
  let rng = Medium.rng t.medium in
  match Medium.get t.medium i with
  | Dot.Heated ->
      (* No perpendicular stray field left: the channel thresholds
         noise. *)
      if Sim.Prng.bool rng then Dot.Up else Dot.Down
  | Dot.Magnetised d ->
      let d = if Medium.is_defect t.medium i then Dot.invert d else d in
      (match t.fault with
      | None -> d
      | Some inj ->
          if Fault.Injector.stuck inj ~dot:i then Dot.Down
          else if Fault.Injector.flip_read inj ~dot:i then Dot.invert d
          else d)

let mwb t i d =
  fault_tick t;
  t.counters.mwb <- t.counters.mwb + 1;
  match Medium.get t.medium i with
  | Dot.Heated -> () (* write has no perpendicular axis to act on *)
  | Dot.Magnetised _ -> Medium.set t.medium i (Dot.Magnetised d)

let ewb t i =
  fault_tick t;
  let weak =
    match t.fault with
    | None -> false
    | Some inj ->
        Fault.Injector.tick_ewb inj;
        Fault.Injector.weak_pulse inj ~dot:i
  in
  t.counters.ewb <- t.counters.ewb + 1;
  if not weak then begin
    (* An underpowered pulse never reaches the Curie point: the dot
       stays magnetic and no neighbour heat spills over. *)
    Medium.note_heated t.medium i;
    if t.neighbour_damage_p > 0. then
      Medium.iter_neighbours t.medium i (fun j ->
          if
            (not (Dot.is_heated (Medium.get t.medium j)))
            && Sim.Prng.bernoulli (Medium.rng t.medium) t.neighbour_damage_p
          then begin
            Medium.note_heated t.medium j;
            t.counters.collateral <- t.counters.collateral + 1
          end)
  end

(* One invert/verify round of the paper's erb sequence.  Returns [true]
   if the dot behaved as heated (a verification failed). *)
let erb_round t i =
  let original = mrb t i in
  let inverse = Dot.invert original in
  mwb t i inverse;
  let check1 = mrb t i in
  if not (Dot.equal_direction check1 inverse) then begin
    (* Restore best-effort and report heated. *)
    mwb t i original;
    true
  end
  else begin
    mwb t i original;
    let check2 = mrb t i in
    not (Dot.equal_direction check2 original)
  end

let erb ?(cycles = 1) t i =
  if cycles <= 0 then invalid_arg "Bitops.erb: cycles must be positive";
  t.counters.erb <- t.counters.erb + 1;
  let detected = ref false in
  (try
     for _ = 1 to cycles do
       if erb_round t i then begin
         detected := true;
         raise Exit
       end
     done
   with Exit -> ());
  !detected

let primitive_ops c = c.mrb + c.mwb

(* {1 Run kernels}

   Bulk variants of mrb/mwb/erb over a run of consecutive dots.  The
   magnetic kernels move the run's bits packed MSB-first at a bit offset
   of a byte buffer, the sector image order.  Their packed path must be
   semantically invisible: it is taken only for a byte-aligned run with
   no fault injector, or one that cannot act on the run (no stuck-dot
   filter can fire there, no flip filter either unless the run is a
   magnetic read, and no power cut or tip death falls within its
   ticks), and, for reads, a zero read BER over a provably defect-free
   run.  Under those guards the only randomness the scalar path would
   draw is the heated-dot coin flips (mrb) and the heated-dot erb
   protocol reads, which the kernels reproduce in the exact same order
   from the same medium PRNG, plus a read's flip draws, which mrb_run
   replays from the injector's own PRNG; the injector's op count is
   credited in one step — so medium state, counters, the injector, its
   ledger and both PRNG streams all stay bit-identical.  Anything else
   runs a literal per-dot loop over the scalar ops. *)

(* Both guards compare without a sum that could wrap: the kernels read
   and write unchecked once they pass. *)
let check_run t start len =
  if start < 0 || len < 0 || start > Medium.size t.medium - len then
    invalid_arg "Bitops: run out of range"

let check_bits name buf pos len =
  if pos < 0 || len < 0 || pos > (8 * Bytes.length buf) - len then
    invalid_arg (name ^ ": buffer out of range")

let get_bit buf i =
  Char.code (Bytes.unsafe_get buf (i lsr 3)) land (0x80 lsr (i land 7)) <> 0

let[@inline] set_bit buf i v =
  let b = Char.code (Bytes.unsafe_get buf (i lsr 3))
  and m = 0x80 lsr (i land 7) in
  Bytes.unsafe_set buf (i lsr 3)
    (Char.unsafe_chr (if v then b lor m else b land lnot m))

let aligned ~start ~len = len > 0 && start land 7 = 0 && len land 7 = 0

(* No injector, or one inert over the run's next [ops] ticks; a [read]
   run's kernel replays its flips. *)
let unfaulted ?read t ~start ~len ~ops =
  match t.fault with
  | None -> true
  | Some inj -> Fault.Injector.inert ?read inj ~first_dot:start ~n_dots:len ~ops

(* The ticks a fast kernel made, credited as its scalar twin's. *)
let credit t n =
  match t.fault with None -> () | Some inj -> Fault.Injector.advance inj n

let fast_read_ok ?read t ~start ~len ~ops =
  unfaulted ?read t ~start ~len ~ops
  && Medium.run_defect_free t.medium ~start ~len

let mrb_run_fast t ~start ~len =
  aligned ~start ~len && fast_read_ok ~read:true t ~start ~len ~ops:len

(* Heated dots of a state byte as a mask, bit [j] = dot [j] of the
   byte. *)
let heated_mask =
  Array.init 256 (fun b ->
      let m = ref 0 in
      for j = 0 to 3 do
        m := !m lor (((b lsr ((2 * j) + 1)) land 1) lsl j)
      done;
      !m)

(* The injector's read flips over dots [d, stop) of a packed read,
   replayed as the scalar path's flip filter draws them: in address
   order, one draw per magnetised dot at its effective BER, logged at
   [op_off + dot], the op its own tick would have had.  Heated dots
   never reach the filter.  Dots go to {!Fault.Injector.flip_mask} up
   to 60 at a time (15 state bytes), as a mask of the magnetised ones.
   The injector's PRNG is not the medium's, so replaying after the
   heated-dot coin flips leaves both streams where the interleaved
   scalar path does.  Dot [dot] is bit [dot + dst_off] of [dst]. *)
let rec replay_flips inj plan ~op_off states ~base dst ~dst_off d stop =
  if d < stop then begin
    let e = Fault.Plan.region_end plan ~dot:d ~stop in
    let ber = Fault.Plan.region_ber plan ~dot:d in
    if ber > 0. then replay_window inj ~ber ~op_off states ~base dst ~dst_off d e;
    replay_flips inj plan ~op_off states ~base dst ~dst_off e stop
  end

and replay_window inj ~ber ~op_off states ~base dst ~dst_off d e =
  if d < e then begin
    let q = d land lnot 3 in
    let hi = min e (q + 60) in
    let m = ref 0 in
    for b = 0 to (hi - 1 - q) lsr 2 do
      let s = Char.code (Bigarray.Array1.unsafe_get states ((q lsr 2) + b - base)) in
      m := !m lor ((Array.unsafe_get heated_mask s lxor 15) lsl (4 * b))
    done;
    let live = ((1 lsl (hi - q)) - 1) land lnot ((1 lsl (d - q)) - 1) in
    let fired =
      Fault.Injector.flip_mask inj ~ber ~op:(op_off + q) ~dot:q (!m land live)
    in
    if fired <> 0 then
      for k = d - q to hi - q - 1 do
        if (fired lsr k) land 1 = 1 then
          set_bit dst (q + k + dst_off) (not (get_bit dst (q + k + dst_off)))
      done;
    replay_window inj ~ber ~op_off states ~base dst ~dst_off hi e
  end

(* [mrb_clean states first dst dpos n] reads the pairs 0 .. n-1 of a
   chunk (pair p: state bytes first + 2p and first + 2p + 1) into image
   bytes dpos + p of [dst], eight state bytes per step, and returns the
   index of the first word (or, past the chunk's last whole word, the
   first pair) with a heated field, or [n].  [mwb_words states first src
   spos n] writes image bytes spos + p of [src] over the pairs
   0 .. n-1, leaving every heated field as it is.  Both are in
   word_stubs.c; the caller checks the run and the buffer range. *)
external mrb_clean : Medium.states -> int -> Bytes.t -> int -> int -> int
  = "sero_mrb_clean"
[@@noalloc]

external mwb_words : Medium.states -> int -> Bytes.t -> int -> int -> unit
  = "sero_mwb_words"
[@@noalloc]

(* Builds the kernels' tables, before any worker domain exists. *)
external word_init : unit -> unit = "sero_word_init" [@@noalloc]

let () = word_init ()

(* The MSB-first image byte of the state-byte pair [s0], [s1], one bit
   per dot in address order, a heated dot's from the medium PRNG, as
   the scalar path draws it. *)
let read_pair rng s0 s1 =
  let acc = ref 0 in
  for j = 0 to 7 do
    let byte = if j < 4 then s0 else s1 in
    let c = (byte lsr (2 * (j land 3))) land 3 in
    let bit = if c < 2 then c = 1 else Sim.Prng.bool rng in
    if bit then acc := !acc lor (1 lsl (7 - j))
  done;
  !acc

let mrb_run t ~start ~len ~dst ~dst_pos =
  check_run t start len;
  check_bits "Bitops.mrb_run" dst dst_pos len;
  if dst_pos land 7 = 0 && mrb_run_fast t ~start ~len then begin
    let ops0 = match t.fault with None -> 0 | Some inj -> Fault.Injector.ops inj in
    credit t len;
    t.counters.mrb <- t.counters.mrb + len;
    let rng = Medium.rng t.medium in
    (* Segment boundaries are 8-dot-aligned, so every chunk keeps the
       byte-pair framing of the flat kernel; a chunk's words stay
       inside its segment. *)
    Medium.iter_chunks t.medium ~write:false ~start ~len
      (fun states ~base ~start:cstart ~len:clen ->
        let dpos = (dst_pos + (cstart - start)) lsr 3 in
        let first = (cstart lsr 2) - base in
        let n = clen lsr 3 in
        let b = ref 0 in
        while !b < n do
          let p = !b + mrb_clean states (first + (2 * !b)) dst (dpos + !b) (n - !b) in
          if p = n then b := n
          else begin
            (* A heated field in the word (or the last pairs' pair) at
               [p]: pair by pair, so the coin flips come in address
               order, then the kernel again from the next word. *)
            let stop = if p + 4 <= n then p + 4 else p + 1 in
            for q = p to stop - 1 do
              let i = first + (2 * q) in
              Bytes.unsafe_set dst (dpos + q)
                (Char.unsafe_chr
                   (read_pair rng
                      (Char.code (Bigarray.Array1.unsafe_get states i))
                      (Char.code (Bigarray.Array1.unsafe_get states (i + 1)))))
            done;
            b := stop
          end
        done);
    match t.fault with
    | None -> ()
    | Some inj ->
        let plan = Fault.Injector.plan inj in
        if not (Fault.Plan.flip_free plan ~first_dot:start ~n_dots:len) then begin
          (* Dot [start + k] ticked op [ops0 + k + 1]. *)
          let op_off = ops0 - start + 1 and dst_off = dst_pos - start in
          Medium.iter_chunks t.medium ~write:false ~start ~len
            (fun states ~base ~start:cstart ~len:clen ->
              replay_flips inj plan ~op_off states ~base dst ~dst_off cstart
                (cstart + clen))
        end
  end
  else
    for k = 0 to len - 1 do
      set_bit dst (dst_pos + k) (Dot.to_bool (mrb t (start + k)))
    done

let mwb_run t ~start ~len ~src ~src_pos =
  check_run t start len;
  check_bits "Bitops.mwb_run" src src_pos len;
  (* mwb ignores defects and draws no randomness, so the only guard
     besides alignment is the injector's per-op ticks. *)
  if
    src_pos land 7 = 0 && aligned ~start ~len && unfaulted t ~start ~len ~ops:len
  then begin
    credit t len;
    t.counters.mwb <- t.counters.mwb + len;
    (* [~write:true] makes each chunk's segment private before the
       first store. *)
    Medium.iter_chunks t.medium ~write:true ~start ~len
      (fun states ~base ~start:cstart ~len:clen ->
        mwb_words states ((cstart lsr 2) - base) src
          ((src_pos + (cstart - start)) lsr 3)
          (clen lsr 3))
  end
  else
    for k = 0 to len - 1 do
      mwb t (start + k) (Dot.of_bool (get_bit src (src_pos + k)))
    done

(* Clear bits [pos, pos+len) of [buf], leaving the bits around them. *)
let clear_bits buf pos len =
  if len > 0 then begin
    let first = pos lsr 3 and last = (pos + len - 1) lsr 3 in
    let head = 0xFF lsr (pos land 7)
    and tail = (0xFF00 lsr (((pos + len - 1) land 7) + 1)) land 0xFF in
    let clear i m =
      Bytes.unsafe_set buf i
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get buf i) land lnot m))
    in
    if first = last then clear first (head land tail)
    else begin
      clear first head;
      Bytes.unsafe_fill buf (first + 1) (last - first - 1) '\x00';
      clear last tail
    end
  end

(* The erb protocol on a heated dot as a function of its draws: every
   mrb is a coin flip and every mwb a no-op, so a round reads
   [original], [check1] and, unless [check1 = original] already
   detected, [check2], detecting unless [check2 = original].  Entry
   [(c - 1) * 4096 + w] is the outcome when bit [k] of [w] is the [k]-th
   draw and [cycles = c] ([c = 5] stands for every [cycles >= 5]):
   draws consumed in bits 0-3, rounds run in bits 4-6, detected in bit
   7 — or 0 when twelve draws do not settle it, which takes four
   passing rounds (probability 1/256) with [cycles > 4].  The native
   walk reads it. *)
let erb_outcomes =
  String.init (5 * 4096) (fun idx ->
      let cycles = (idx lsr 12) + 1 and w = idx land 4095 in
      let bit k = (w lsr k) land 1 in
      let rec round r pos =
        if r = cycles then pos lor (r lsl 4)
        else if pos + 3 > 12 then 0
        else if bit (pos + 1) = bit pos then
          (pos + 2) lor ((r + 1) lsl 4) lor 0x80
        else if bit (pos + 2) <> bit pos then
          (pos + 3) lor ((r + 1) lsl 4) lor 0x80
        else round (r + 1) (pos + 3)
      in
      Char.chr (round 0 0))

(* [erb_chunk states base start len dst dst_off table cycles rng acc
   vector] settles the heated dots of the chunk [start, start+len) of a
   segment (packed byte [base] first) through [table], sets bit
   [d + dst_off] of [dst] for each dot [d] it detects, advances [rng]
   by the draws it used and adds the chunk's clean dots, draws and
   heated mwb to [acc.(0)], [acc.(1)] and [acc.(2)]. *)
external erb_chunk :
  Medium.states ->
  int ->
  int ->
  int ->
  Bytes.t ->
  int ->
  string ->
  int ->
  Sim.Prng.t ->
  int array ->
  bool ->
  unit = "sero_erb_chunk_byte" "sero_erb_chunk"
[@@noalloc]

let erb_run ?(cycles = 1) t ~start ~len ~dst ~dst_pos =
  if cycles <= 0 then invalid_arg "Bitops.erb_run: cycles must be positive";
  check_run t start len;
  check_bits "Bitops.erb_run" dst dst_pos len;
  (* A round is at most 3 mrb + 2 mwb, so 5 ticks a cycle bound each
     dot's share. *)
  if not (fast_read_ok t ~start ~len ~ops:(5 * cycles * len)) then
    for k = 0 to len - 1 do
      set_bit dst (dst_pos + k) (erb ~cycles t (start + k))
    done
  else begin
    t.counters.erb <- t.counters.erb + len;
    clear_bits dst dst_pos len;
    let rng = Medium.rng t.medium in
    (* Clean dots, heated-dot draws (their mrb) and heated-dot mwb, summed
       over the chunks by the kernel. *)
    let acc = [| 0; 0; 0 |] in
    let dst_off = dst_pos - start and vector = t.window = Vector in
    Medium.iter_chunks t.medium ~write:false ~start ~len
      (fun states ~base ~start ~len ->
        erb_chunk states base start len dst dst_off erb_outcomes cycles rng acc
          vector);
    (* A healthy dot passes every round (the invert/restore writes
       cancel out), so only its op charges remain.  The charges are int
       sums, so landing them once leaves exactly the per-dot totals. *)
    let clean = acc.(0) and heated_mrb = acc.(1) and heated_mwb = acc.(2) in
    let c = t.counters in
    credit t ((5 * cycles * clean) + heated_mrb + heated_mwb);
    c.mrb <- c.mrb + (3 * cycles * clean) + heated_mrb;
    c.mwb <- c.mwb + (2 * cycles * clean) + heated_mwb
  end

module Window = struct
  type t = window

  let scalar = Scalar
  let vector = native_window
  let name = function Scalar -> "scalar" | Vector -> "avx512"
  let make w medium = { (make medium) with window = w }
end
