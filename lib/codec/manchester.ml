type cell = Zero | One | Blank | Tampered

let encoded_length n_bytes = 16 * n_bytes

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

let is_clean r = r.tampered_cells = [] && r.blank_cells = []

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
