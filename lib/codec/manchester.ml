type cell = Zero | One | Blank | Tampered

let encode payload =
  let n = String.length payload in
  let dots = Array.make (16 * n) false in
  for byte = 0 to n - 1 do
    let v = Char.code payload.[byte] in
    for bit = 0 to 7 do
      let logical = (v lsr (7 - bit)) land 1 in
      let cell = (byte * 8) + bit in
      (* 0 -> HU: heat the first dot; 1 -> UH: heat the second. *)
      if logical = 0 then dots.(2 * cell) <- true
      else dots.((2 * cell) + 1) <- true
    done
  done;
  dots

(* One dot byte (eight dots, MSB first) holds four cells.  Its entry:
   the data nibble in bits 0-3 (cell 0 in bit 3), the blank mask in bits
   4-7, the tampered mask in bits 8-11, and the blank and tampered
   counts in bits 12-14 and 15-17. *)
let cells_of_dot_byte =
  Array.init 256 (fun b ->
      let e = ref 0 in
      for c = 0 to 3 do
        let m = 8 lsr c in
        match ((b lsr (7 - (2 * c))) land 1, (b lsr (6 - (2 * c))) land 1) with
        | 1, 0 -> () (* HU = 0 *)
        | 0, 1 -> e := !e lor m (* UH = 1 *)
        | 0, 0 -> e := (!e lor (m lsl 4)) + (1 lsl 12)
        | _ -> e := (!e lor (m lsl 8)) + (1 lsl 15)
      done;
      !e)

let check_dots name dots n_bytes =
  if n_bytes < 0 || Bytes.length dots < 2 * n_bytes then
    invalid_arg (name ^ ": fewer than 16 * n_bytes dots")

let entry dots j =
  Array.unsafe_get cells_of_dot_byte (Char.code (Bytes.unsafe_get dots j))

type decode_result = { payload : string; n_tampered : int; n_blank : int }

let decode dots ~n_bytes =
  check_dots "Manchester.decode" dots n_bytes;
  let out = Bytes.create n_bytes in
  let n_blank = ref 0 and n_tampered = ref 0 in
  for k = 0 to n_bytes - 1 do
    let e0 = entry dots (2 * k) and e1 = entry dots ((2 * k) + 1) in
    Bytes.unsafe_set out k
      (Char.unsafe_chr (((e0 land 15) lsl 4) lor (e1 land 15)));
    n_blank := !n_blank + ((e0 lsr 12) land 7) + ((e1 lsr 12) land 7);
    n_tampered := !n_tampered + (e0 lsr 15) + (e1 lsr 15)
  done;
  {
    payload = Bytes.unsafe_to_string out;
    n_tampered = !n_tampered;
    n_blank = !n_blank;
  }

let blank_cells dots ~n_bytes =
  check_dots "Manchester.blank_cells" dots n_bytes;
  let acc = ref [] in
  for j = (2 * n_bytes) - 1 downto 0 do
    let m = (entry dots j lsr 4) land 15 in
    if m <> 0 then
      for c = 3 downto 0 do
        if m land (8 lsr c) <> 0 then acc := ((4 * j) + c) :: !acc
      done
  done;
  !acc

let is_clean r = r.n_tampered = 0 && r.n_blank = 0

let max_adjacent_heated dots =
  let best = ref 0 and run = ref 0 in
  Array.iter
    (fun h ->
      if h then begin
        incr run;
        if !run > !best then best := !run
      end
      else run := 0)
    dots;
  !best
