(* Hash table over intrusive doubly-linked recency list.  [head] is the
   most-recently-used end, [tail] the eviction end. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type ('k, 'v) t = {
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  evictable : 'k -> 'v -> bool;
  capacity : int;
  mutable head : ('k, 'v) node option;
  mutable tail : ('k, 'v) node option;
}

let create ?(evictable = fun _ _ -> true) ~capacity () =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be positive";
  { tbl = Hashtbl.create 64; evictable; capacity; head = None; tail = None }

let length t = Hashtbl.length t.tbl
let mem t k = Hashtbl.mem t.tbl k

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.prev <- None;
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch t n =
  if t.head != Some n then begin
    unlink t n;
    push_front t n
  end

let is_head t k = match t.head with Some n -> n.key = k | None -> false

let find t k =
  match Hashtbl.find_opt t.tbl k with
  | None -> None
  | Some n ->
      touch t n;
      Some n.value

let peek t k =
  match Hashtbl.find_opt t.tbl k with None -> None | Some n -> Some n.value

let remove t k =
  match Hashtbl.find_opt t.tbl k with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.tbl k

(* Walk from the LRU end collecting evictable entries until [length]
   fits the capacity; pinned entries are stepped over and survive. *)
let shrink t =
  let evicted = ref [] in
  let excess = ref (length t - t.capacity) in
  let cur = ref t.tail in
  while !excess > 0 && !cur <> None do
    let n = Option.get !cur in
    cur := n.prev;
    if t.evictable n.key n.value then begin
      unlink t n;
      Hashtbl.remove t.tbl n.key;
      evicted := (n.key, n.value) :: !evicted;
      decr excess
    end
  done;
  List.rev !evicted

let add t k v =
  (match Hashtbl.find_opt t.tbl k with
  | Some n ->
      n.value <- v;
      touch t n
  | None ->
      let n = { key = k; value = v; prev = None; next = None } in
      Hashtbl.replace t.tbl k n;
      push_front t n);
  shrink t

let trim t = shrink t

let clear t =
  Hashtbl.reset t.tbl;
  t.head <- None;
  t.tail <- None

let fold f t init = Hashtbl.fold (fun k n acc -> f k n.value acc) t.tbl init
