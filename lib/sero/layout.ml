type t = { n_blocks : int; line_exp : int; spare_lines : int }

let block_dots = Codec.Sector.physical_bits
let wo_area_dots = 8 * Codec.Sector.payload_bytes (* 4096 *)
let wo_area_bytes = wo_area_dots / 16 (* Manchester: 16 dots per byte *)

let create ?(spare_lines = 0) ~n_blocks ~line_exp () =
  if line_exp < 1 || line_exp > 20 then
    invalid_arg "Layout.create: line_exp must be in 1..20";
  let bpl = 1 lsl line_exp in
  if n_blocks <= 0 || n_blocks mod bpl <> 0 then
    invalid_arg "Layout.create: n_blocks must be a positive multiple of 2^N";
  if spare_lines < 0 || spare_lines >= n_blocks / bpl then
    invalid_arg "Layout.create: spare_lines must be in 0..n_lines-1";
  { n_blocks; line_exp; spare_lines }

let blocks_per_line t = 1 lsl t.line_exp
let data_blocks_per_line t = blocks_per_line t - 1
let n_lines t = t.n_blocks / blocks_per_line t
let usable_lines t = n_lines t - t.spare_lines
let is_spare_line t l = l >= usable_lines t && l < n_lines t

let check_block t pba =
  if pba < 0 || pba >= t.n_blocks then
    invalid_arg "Layout: block address out of range"

let check_line t l =
  if l < 0 || l >= n_lines t then invalid_arg "Layout: line out of range"

let line_of_block t pba =
  check_block t pba;
  pba / blocks_per_line t

let hash_block_of_line t l =
  check_line t l;
  l * blocks_per_line t

let is_hash_block t pba =
  check_block t pba;
  pba mod blocks_per_line t = 0

let data_blocks_of_line t l =
  check_line t l;
  let base = l * blocks_per_line t in
  List.init (data_blocks_per_line t) (fun i -> base + 1 + i)

let first_data_block t l =
  check_line t l;
  (l * blocks_per_line t) + 1

let iter_data_blocks t l f =
  check_line t l;
  let base = l * blocks_per_line t in
  for i = 1 to blocks_per_line t - 1 do
    f (base + i)
  done

let block_first_dot t pba =
  check_block t pba;
  pba * block_dots

let wo_first_dot t ~line = block_first_dot t (hash_block_of_line t line)

let space_overhead t = 1. /. float_of_int (blocks_per_line t)
