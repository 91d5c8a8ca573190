module W = struct
  type t = Buffer.t

  let create ?(capacity = 256) () = Buffer.create capacity
  let u8 t v = Buffer.add_char t (Char.chr (v land 0xFF))

  let u16 t v =
    u8 t (v lsr 8);
    u8 t v

  let u32 t v =
    u16 t (v lsr 16);
    u16 t v

  let u64 t v =
    u32 t (v lsr 32);
    u32 t v


  let f64 t v =
    let bits = Int64.bits_of_float v in
    for i = 7 downto 0 do
      Buffer.add_char t
        (Char.chr
           (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xFF))
    done

  let raw t s = Buffer.add_string t s

  let str t s =
    u32 t (String.length s);
    raw t s

  let contents = Buffer.contents
  let length = Buffer.length
end

module R = struct
  type t = { s : string; mutable pos : int }

  exception Truncated
  exception Overflow

  let of_string ?(off = 0) s = { s; pos = off }

  let u8 t =
    if t.pos >= String.length t.s then raise Truncated;
    let v = Char.code t.s.[t.pos] in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    let hi = u8 t in
    (hi lsl 8) lor u8 t

  let u32 t =
    let hi = u16 t in
    (hi lsl 16) lor u16 t

  (* A non-negative int holds 62 bits: the top two must be clear. *)
  let u64 t =
    let hi = u32 t in
    if hi lsr 30 <> 0 then raise Overflow;
    (hi lsl 32) lor u32 t

  let f64 t =
    let bits = ref 0L in
    for _ = 0 to 7 do
      bits := Int64.logor (Int64.shift_left !bits 8) (Int64.of_int (u8 t))
    done;
    Int64.float_of_bits !bits

  let raw t n =
    if n < 0 || t.pos + n > String.length t.s then raise Truncated;
    let v = String.sub t.s t.pos n in
    t.pos <- t.pos + n;
    v

  let str t =
    let n = u32 t in
    raw t n

  let pos t = t.pos
  let remaining t = String.length t.s - t.pos
end
