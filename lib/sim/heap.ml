type 'a t = {
  mutable keys : float array;
  mutable stamps : int array;
  mutable vals : 'a option array;
  mutable size : int;
  mutable next_stamp : int;
}

let initial_cap = 16

let create () =
  {
    keys = Array.make initial_cap 0.;
    stamps = Array.make initial_cap 0;
    vals = Array.make initial_cap None;
    size = 0;
    next_stamp = 0;
  }

let is_empty t = t.size = 0
let size t = t.size

let grow t =
  let cap = 2 * Array.length t.keys in
  let keys = Array.make cap 0.
  and stamps = Array.make cap 0
  and vals = Array.make cap None in
  Array.blit t.keys 0 keys 0 t.size;
  Array.blit t.stamps 0 stamps 0 t.size;
  Array.blit t.vals 0 vals 0 t.size;
  t.keys <- keys;
  t.stamps <- stamps;
  t.vals <- vals

let swap t i j =
  let k = t.keys.(i) and s = t.stamps.(i) and v = t.vals.(i) in
  t.keys.(i) <- t.keys.(j);
  t.stamps.(i) <- t.stamps.(j);
  t.vals.(i) <- t.vals.(j);
  t.keys.(j) <- k;
  t.stamps.(j) <- s;
  t.vals.(j) <- v

(* Lexicographic (key, insertion stamp): equal keys pop in push order,
   which is what makes the heap — and everything above it — stable. *)
let less t i j =
  t.keys.(i) < t.keys.(j)
  || (t.keys.(i) = t.keys.(j) && t.stamps.(i) < t.stamps.(j))

let push t key v =
  if t.size = Array.length t.keys then grow t;
  t.keys.(t.size) <- key;
  t.stamps.(t.size) <- t.next_stamp;
  t.next_stamp <- t.next_stamp + 1;
  t.vals.(t.size) <- Some v;
  let i = ref t.size in
  t.size <- t.size + 1;
  while !i > 0 && less t !i ((!i - 1) / 2) do
    swap t !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let min_key t =
  if t.size = 0 then invalid_arg "Heap.min_key: empty heap";
  t.keys.(0)

let min_value t =
  if t.size = 0 then invalid_arg "Heap.min_value: empty heap";
  match t.vals.(0) with Some v -> v | None -> assert false

(* Remove the root and restore the heap invariant — the shared
   allocation-free removal under {!pop} and {!drop_min}. *)
let remove_min t =
  t.size <- t.size - 1;
  t.keys.(0) <- t.keys.(t.size);
  t.stamps.(0) <- t.stamps.(t.size);
  t.vals.(0) <- t.vals.(t.size);
  t.vals.(t.size) <- None;
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.size && less t l !smallest then smallest := l;
    if r < t.size && less t r !smallest then smallest := r;
    if !smallest <> !i then begin
      swap t !i !smallest;
      i := !smallest
    end
    else continue := false
  done

let drop_min t =
  if t.size = 0 then invalid_arg "Heap.drop_min: empty heap";
  remove_min t

let pop t =
  if t.size = 0 then None
  else begin
    let key = t.keys.(0) in
    let v = match t.vals.(0) with Some v -> v | None -> assert false in
    remove_min t;
    Some (key, v)
  end
