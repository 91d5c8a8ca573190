(* The checksum runs in codec_stubs.c: slicing by sixteen over explicit
   little-endian loads, its tables built by [init] here at module
   initialisation, before any worker domain exists.  Boxed [Int32]
   appears only in {!bytes} and {!string}, which wrap {!update}. *)
external init : unit -> unit = "sero_crc32_init" [@@noalloc]
external kernel : int -> bytes -> int -> int -> int = "sero_crc32_update" [@@noalloc]

let () = init ()

let update crc b off len =
  if off < 0 || len < 0 || len > Bytes.length b - off then
    invalid_arg "Crc32.update: out of bounds";
  kernel crc b off len

let bytes ?(crc = 0l) b off len =
  Int32.of_int (update (Int32.to_int crc land 0xFFFFFFFF) b off len)

let string ?crc s = bytes ?crc (Bytes.unsafe_of_string s) 0 (String.length s)
