type counters = {
  mutable mrb : int;
  mutable mwb : int;
  mutable ewb : int;
  mutable erb : int;
  mutable collateral : int;
}

type ctx = {
  medium : Medium.t;
  counters : counters;
  profile : Physics.Thermal.profile;
  read_ber : float;
  neighbour_damage_p : float;
  mutable fault : Fault.Injector.t option;
}

let make ?profile ?(read_ber = 0.) medium =
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
    profile;
    read_ber;
    neighbour_damage_p;
    fault = None;
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
    profile = t.profile;
    read_ber = t.read_ber;
    neighbour_damage_p = t.neighbour_damage_p;
    fault = None;
  }

let medium t = t.medium
let counters t = t.counters
let profile t = t.profile
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
      let d =
        if t.read_ber > 0. && Sim.Prng.bernoulli rng t.read_ber then
          Dot.invert d
        else d
      in
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
   no fault injector installed (so there are no per-op ticks, stuck-dot
   filters or power-cut boundaries to honour) and, for reads, a zero read
   BER over a provably defect-free run.  Under those guards the only
   randomness the scalar path would draw is the heated-dot coin flips
   (mrb) and the heated-dot erb protocol reads, which the kernels
   reproduce in the exact same order from the same medium PRNG — so
   medium state, counters and the PRNG stream all stay bit-identical.
   Anything else runs a literal per-dot loop over the scalar ops. *)

let check_run t start len =
  if start < 0 || len < 0 || start + len > Medium.size t.medium then
    invalid_arg "Bitops: run out of range"

let check_bits name buf pos len =
  if pos < 0 || pos + len > 8 * Bytes.length buf then
    invalid_arg (name ^ ": buffer out of range")

let get_bit buf i =
  Char.code (Bytes.unsafe_get buf (i lsr 3)) land (0x80 lsr (i land 7)) <> 0

let set_bit buf i v =
  let b = Char.code (Bytes.unsafe_get buf (i lsr 3))
  and m = 0x80 lsr (i land 7) in
  Bytes.unsafe_set buf (i lsr 3)
    (Char.unsafe_chr (if v then b lor m else b land lnot m))

let aligned ~start ~len = len > 0 && start land 7 = 0 && len land 7 = 0

let fast_read_ok t ~start ~len =
  t.fault = None && t.read_ber = 0.
  && Medium.run_defect_free t.medium ~start ~len

let mrb_run_fast t ~start ~len =
  aligned ~start ~len && fast_read_ok t ~start ~len

(* For a state byte with no heated field (byte land 0xAA = 0), the four
   dots' logical bits (Up = code 1 = pair bit 0) reversed into the top
   or bottom nibble of an MSB-first output byte. *)
let rev_up_nibble =
  lazy
    (Array.init 256 (fun b ->
         ((b land 1) lsl 3)
         lor (((b lsr 2) land 1) lsl 2)
         lor (((b lsr 4) land 1) lsl 1)
         lor ((b lsr 6) land 1)))

let mrb_run t ~start ~len ~dst ~dst_pos =
  check_run t start len;
  check_bits "Bitops.mrb_run" dst dst_pos len;
  if dst_pos land 7 = 0 && mrb_run_fast t ~start ~len then begin
    t.counters.mrb <- t.counters.mrb + len;
    let rng = Medium.rng t.medium in
    let tbl = Lazy.force rev_up_nibble in
    (* Segment boundaries are 8-dot-aligned, so every chunk keeps the
       byte-pair framing of the flat kernel. *)
    Medium.iter_chunks t.medium ~write:false ~start ~len
      (fun states ~base ~start:cstart ~len:clen ->
        let dpos = (dst_pos + (cstart - start)) lsr 3 in
        let first = (cstart lsr 2) - base in
        for b = 0 to (clen lsr 3) - 1 do
          let s0 = Char.code (Bigarray.Array1.unsafe_get states (first + (2 * b)))
          and s1 =
            Char.code (Bigarray.Array1.unsafe_get states (first + (2 * b) + 1))
          in
          let v =
            if (s0 lor s1) land 0xAA = 0 then
              (Array.unsafe_get tbl s0 lsl 4) lor Array.unsafe_get tbl s1
            else begin
              (* A heated dot reads as a coin flip; the draws happen in
                 address order, exactly as the scalar path makes them. *)
              let acc = ref 0 in
              for j = 0 to 7 do
                let byte = if j < 4 then s0 else s1 in
                let c = (byte lsr (2 * (j land 3))) land 3 in
                let bit = if c < 2 then c = 1 else Sim.Prng.bool rng in
                if bit then acc := !acc lor (1 lsl (7 - j))
              done;
              !acc
            end
          in
          Bytes.unsafe_set dst (dpos + b) (Char.unsafe_chr v)
        done)
  end
  else
    for k = 0 to len - 1 do
      set_bit dst (dst_pos + k) (Dot.to_bool (mrb t (start + k)))
    done

(* Inverse of [rev_up_nibble]: an MSB-first nibble of logical bits
   (bit 3 = lowest dot address) as a state byte of Up/Down codes. *)
let nibble_states =
  lazy
    (Array.init 16 (fun nib ->
         ((nib lsr 3) land 1)
         lor (((nib lsr 2) land 1) lsl 2)
         lor (((nib lsr 1) land 1) lsl 4)
         lor ((nib land 1) lsl 6)))

let mwb_run t ~start ~len ~src ~src_pos =
  check_run t start len;
  check_bits "Bitops.mwb_run" src src_pos len;
  (* mwb ignores defects and draws no randomness, so the only guard
     besides alignment is the injector's per-op ticks. *)
  if src_pos land 7 = 0 && aligned ~start ~len && t.fault = None then begin
    t.counters.mwb <- t.counters.mwb + len;
    let tbl = Lazy.force nibble_states in
    Medium.iter_chunks t.medium ~write:true ~start ~len
      (fun states ~base ~start:cstart ~len:clen ->
        let spos = (src_pos + (cstart - start)) lsr 3 in
        let first = (cstart lsr 2) - base in
        for b = 0 to (clen lsr 3) - 1 do
          let v = Char.code (Bytes.unsafe_get src (spos + b)) in
          let i0 = first + (2 * b) in
          let s0 = Char.code (Bigarray.Array1.unsafe_get states i0)
          and s1 = Char.code (Bigarray.Array1.unsafe_get states (i0 + 1)) in
          if (s0 lor s1) land 0xAA = 0 then begin
            (* No heated dot in either state byte: overwrite all eight. *)
            Bigarray.Array1.unsafe_set states i0
              (Char.unsafe_chr (Array.unsafe_get tbl (v lsr 4)));
            Bigarray.Array1.unsafe_set states (i0 + 1)
              (Char.unsafe_chr (Array.unsafe_get tbl (v land 15)))
          end
          else
            (* A heated dot ignores the write (no perpendicular axis); the
               magnetised fields around it are still overwritten. *)
            for j = 0 to 7 do
              let idx = i0 + (j lsr 2) in
              let byte = Char.code (Bigarray.Array1.unsafe_get states idx) in
              let shift = 2 * (j land 3) in
              if (byte lsr shift) land 2 = 0 then begin
                let bit = (v lsr (7 - j)) land 1 in
                Bigarray.Array1.unsafe_set states idx
                  (Char.unsafe_chr
                     (byte land lnot (3 lsl shift) lor (bit lsl shift)))
              end
            done
        done)
  end
  else
    for k = 0 to len - 1 do
      mwb t (start + k) (Dot.of_bool (get_bit src (src_pos + k)))
    done

let erb_run ?(cycles = 1) t ~start ~len ~dst ~dst_pos =
  if cycles <= 0 then invalid_arg "Bitops.erb_run: cycles must be positive";
  check_run t start len;
  if dst_pos < 0 || dst_pos + len > Array.length dst then
    invalid_arg "Bitops.erb_run: destination out of range";
  if not (fast_read_ok t ~start ~len) then
    for k = 0 to len - 1 do
      Array.unsafe_set dst (dst_pos + k) (erb ~cycles t (start + k))
    done
  else begin
    t.counters.erb <- t.counters.erb + len;
    let rng = Medium.rng t.medium in
    let n_clean = ref 0 in
    (* Heated-dot charges accumulate in locals and land on the shared
       counters once, after the loop (they are int sums, so the totals
       are exactly the per-dot ones). *)
    let mrb_acc = ref 0 and mwb_acc = ref 0 in
    Medium.iter_chunks t.medium ~write:false ~start ~len
      (fun states ~base ~start:cstart ~len:clen ->
        let dpos = dst_pos + (cstart - start) in
        for k = 0 to clen - 1 do
          let i = cstart + k in
          let v =
            (Char.code (Bigarray.Array1.unsafe_get states ((i lsr 2) - base))
            lsr (2 * (i land 3)))
            land 3
          in
          if v < 2 then begin
            (* A healthy dot passes every round (the invert/restore writes
               cancel out), so only the op charges remain. *)
            incr n_clean;
            Array.unsafe_set dst (dpos + k) false
          end
          else begin
            (* The protocol on a heated dot: every mrb is a coin flip and
               every mwb is a no-op, so the rounds collapse to PRNG draws
               plus counter charges — in the scalar draw order (original,
               check1[, check2] per round, stopping at the round that
               detects; check1 = original means check1 differs from the
               written inverse, detection after 2 reads + 2 writes). *)
            let detected = ref false in
            let cyc = ref 0 in
            while (not !detected) && !cyc < cycles do
              incr cyc;
              let original = Sim.Prng.bool rng in
              let check1 = Sim.Prng.bool rng in
              if check1 = original then begin
                mrb_acc := !mrb_acc + 2;
                mwb_acc := !mwb_acc + 2;
                detected := true
              end
              else begin
                let check2 = Sim.Prng.bool rng in
                mrb_acc := !mrb_acc + 3;
                mwb_acc := !mwb_acc + 2;
                if check2 <> original then detected := true
              end
            done;
            Array.unsafe_set dst (dpos + k) !detected
          end
        done);
    t.counters.mrb <- t.counters.mrb + (3 * cycles * !n_clean) + !mrb_acc;
    t.counters.mwb <- t.counters.mwb + (2 * cycles * !n_clean) + !mwb_acc
  end
