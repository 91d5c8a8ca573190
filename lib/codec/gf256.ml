(* Log/antilog tables for GF(256) generated once at start-up. *)

let exp_table = Array.make 512 0
let log_table = Array.make 256 0

let () =
  let x = ref 1 in
  for i = 0 to 254 do
    exp_table.(i) <- !x;
    log_table.(!x) <- i;
    x := !x lsl 1;
    if !x land 0x100 <> 0 then x := !x lxor 0x11D
  done;
  (* Duplicate so that exp (log a + log b) needs no reduction. *)
  for i = 255 to 511 do
    exp_table.(i) <- exp_table.(i - 255)
  done

let add a b = a lxor b
let exp i = exp_table.(((i mod 255) + 255) mod 255)

let log a =
  if a = 0 then invalid_arg "Gf256.log: log of zero";
  log_table.(a)

let mul a b = if a = 0 || b = 0 then 0 else exp_table.(log_table.(a) + log_table.(b))

let poly_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let out = Array.make (la + lb - 1) 0 in
    for i = 0 to la - 1 do
      for j = 0 to lb - 1 do
        out.(i + j) <- add out.(i + j) (mul a.(i) b.(j))
      done
    done;
    out
  end
