(* The polynomial arithmetic runs on native ints (every intermediate
   fits in 32 bits, masked where a shift could carry past them) so the
   inner loop stays allocation-free; boxed [Int32] appears only in
   {!bytes} and {!string}, which wrap {!update}.  The tables are built
   at module initialisation, before any worker domain exists: a lazy
   table forced by two domains at once raises
   [CamlinternalLazy.Undefined]. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1)
        else c := !c lsr 1
      done;
      !c)

(* Slicing-by-8: tables.(k).(n) is the CRC of byte [n] followed by [k]
   zero bytes, so eight input bytes fold into eight independent lookups
   per iteration instead of eight dependent ones.  Pure table algebra
   over the same polynomial — the result is bit-identical to the
   byte-at-a-time loop, which still handles the head and tail. *)
let tables =
  let ts = Array.make 8 table in
  for k = 1 to 7 do
    ts.(k) <-
      Array.map
        (fun c -> Array.unsafe_get table (c land 0xFF) lxor (c lsr 8))
        ts.(k - 1)
  done;
  ts

let update crc b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Crc32.update: out of bounds";
  let tbl = table and ts = tables in
  let t7 = ts.(7) and t6 = ts.(6) and t5 = ts.(5) and t4 = ts.(4) in
  let t3 = ts.(3) and t2 = ts.(2) and t1 = ts.(1) in
  let c = ref (lnot crc land 0xFFFFFFFF) in
  let i = ref off in
  let stop = off + len in
  while stop - !i >= 8 do
    let p = !i in
    let x =
      !c
      lxor (Char.code (Bytes.unsafe_get b p)
           lor (Char.code (Bytes.unsafe_get b (p + 1)) lsl 8)
           lor (Char.code (Bytes.unsafe_get b (p + 2)) lsl 16)
           lor (Char.code (Bytes.unsafe_get b (p + 3)) lsl 24))
    in
    c :=
      Array.unsafe_get t7 (x land 0xFF)
      lxor Array.unsafe_get t6 ((x lsr 8) land 0xFF)
      lxor Array.unsafe_get t5 ((x lsr 16) land 0xFF)
      lxor Array.unsafe_get t4 ((x lsr 24) land 0xFF)
      lxor Array.unsafe_get t3 (Char.code (Bytes.unsafe_get b (p + 4)))
      lxor Array.unsafe_get t2 (Char.code (Bytes.unsafe_get b (p + 5)))
      lxor Array.unsafe_get t1 (Char.code (Bytes.unsafe_get b (p + 6)))
      lxor Array.unsafe_get tbl (Char.code (Bytes.unsafe_get b (p + 7)));
    i := p + 8
  done;
  while !i < stop do
    let idx = (!c lxor Char.code (Bytes.unsafe_get b !i)) land 0xFF in
    c := Array.unsafe_get tbl idx lxor (!c lsr 8);
    incr i
  done;
  lnot !c land 0xFFFFFFFF

let bytes ?(crc = 0l) b off len =
  Int32.of_int (update (Int32.to_int crc land 0xFFFFFFFF) b off len)

let string ?crc s = bytes ?crc (Bytes.unsafe_of_string s) 0 (String.length s)
