let payload_bytes = 512
let header_bytes = 16
let crc_bytes = 4
let framed_bytes = header_bytes + payload_bytes + crc_bytes (* 532 *)
let rs_code = Rs.make ~nparity:24
let physical_bytes = Rs.encoded_length rs_code framed_bytes (* 604 *)
let physical_bits = 8 * physical_bytes
let magic = 0x5E20 (* "SERO" sector magic *)

type kind = Data | Inode | Summary | Checkpoint | Hash_meta

let kind_to_int = function
  | Data -> 0
  | Inode -> 1
  | Summary -> 2
  | Checkpoint -> 3
  | Hash_meta -> 4

let kind_of_int = function
  | 0 -> Some Data
  | 1 -> Some Inode
  | 2 -> Some Summary
  | 3 -> Some Checkpoint
  | 4 -> Some Hash_meta
  | _ -> None


(* The image is the framed bytes cut into RS slices, each slice's data
   followed by its parity: framed byte [p] lies at image byte
   [image_pos p]. *)
let slice_data = Rs.max_data rs_code
let image_pos p = p + (p / slice_data * Rs.nparity rs_code)

(* [f p take] over framed [p, stop), one call per slice-bounded run. *)
let rec each_run f p stop =
  if p < stop then begin
    let take = min stop ((p / slice_data + 1) * slice_data) - p in
    f p take;
    each_run f (p + take) stop
  end

let set_u16 b p v = Bytes.set_uint16_be b p (v land 0xFFFF)
let get_u32 b p = (Bytes.get_uint16_be b p lsl 16) lor Bytes.get_uint16_be b (p + 2)

(* The CRC over framed [p, stop) of the image at [base], run by run;
   recursion rather than {!each_run} so that no closure is built. *)
let rec runs_crc image base crc p stop =
  if p >= stop then crc
  else
    let take = min stop ((p / slice_data + 1) * slice_data) - p in
    runs_crc image base
      (Crc32.update crc image (base + image_pos p) take)
      (p + take) stop

(* The stored checksum covers every framed byte before it. *)
let framed_crc image base = runs_crc image base 0 0 (framed_bytes - crc_bytes)

(* No intermediate copies: header and payload go straight to their
   image positions, the CRC runs over the framed runs, and the three
   slices' parity is computed in place by one kernel call. *)
let encode_into image ~pba ~kind ~generation payload =
  let len = String.length payload in
  if len > payload_bytes then
    invalid_arg "Sector.encode: payload longer than 512 bytes";
  if Bytes.length image < physical_bytes then
    invalid_arg "Sector.encode_into: buffer shorter than an image";
  Bytes.fill image 0 physical_bytes '\x00';
  (* The header lies inside slice 0; byte 3 is reserved. *)
  set_u16 image 0 magic;
  Bytes.set_uint8 image 2 (kind_to_int kind);
  set_u16 image 4 (pba lsr 48);
  set_u16 image 6 (pba lsr 32);
  set_u16 image 8 (pba lsr 16);
  set_u16 image 10 pba;
  set_u16 image 12 (generation lsr 16);
  set_u16 image 14 generation;
  each_run
    (fun p take ->
      Bytes.blit_string payload (p - header_bytes) image (image_pos p) take)
    header_bytes (header_bytes + len);
  let crc = framed_crc image 0 in
  let at = image_pos (framed_bytes - crc_bytes) in
  set_u16 image at (crc lsr 16);
  set_u16 image (at + 2) crc;
  Rs.parity_slices rs_code image ~off:0 ~len:framed_bytes

let encode ~pba ~kind ~generation payload =
  let image = Bytes.create physical_bytes in
  encode_into image ~pba ~kind ~generation payload;
  Bytes.unsafe_to_string image

type decoded = {
  pba : int;
  kind : kind;
  generation : int;
  payload : string;
  corrected_symbols : int;
}

type error = Uncorrectable | Bad_crc | Bad_header

let pp_error ppf e =
  Format.pp_print_string ppf
    (match e with
    | Uncorrectable -> "uncorrectable"
    | Bad_crc -> "bad-crc"
    | Bad_header -> "bad-header")

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* Every byte of the image at [base] is zero; the caller has checked
   that the image lies inside [b]. *)
let all_zero b base =
  let rec words i =
    if i + 8 > physical_bytes then bytes i
    else get64u b (base + i) = 0L && words (i + 8)
  and bytes i =
    i >= physical_bytes || (Bytes.unsafe_get b (base + i) = '\x00' && bytes (i + 1))
  in
  words 0

(* The fast path's answer for a blank image, built once. *)
let blank = Some (Error Bad_header)

(* Fast answer for the overwhelmingly common healthy sector, read in
   place: every RS slice passes the cheap screen (one
   {!Rs.probably_clean_slices} call over the three slices), the header
   parses at its slice-0 image positions (the PBA rebuilt as
   {!Binio.R.u64} builds it), and the CRC over the three framed runs
   matches the one stored after them.  Only the payload is copied, run
   by run, into one fresh buffer.  A blank (all-zero) image is a clean
   RS codeword whose magic is 0: the slow path can only end in
   [Bad_header] for it, so that is the answer here too.  Any other
   disagreement at any stage returns [None] and the caller falls
   through to the full slice-by-slice decode, so every error path (and
   the ~2^-32 residual of a corruption that fools the quick syndromes)
   keeps the slow path's exact semantics; a wrong accept additionally
   needs a CRC32 collision. *)
let decode_fast_sub coded base =
  if not (Rs.probably_clean_slices rs_code coded ~off:base ~len:framed_bytes)
  then None
  else
    let m = Bytes.get_uint16_be coded base in
    if m = 0 && all_zero coded base then blank
    else if m <> magic then None
    else
      match kind_of_int (Bytes.get_uint8 coded (base + 2)) with
      | None -> None
      | Some kind ->
          let stored = get_u32 coded (base + image_pos (framed_bytes - crc_bytes)) in
          let pba_hi = get_u32 coded (base + 4) in
          (* A PBA past max_int is the slow path's [Bad_header]. *)
          if pba_hi lsr 30 <> 0 || framed_crc coded base <> stored then None
          else begin
            let payload = Bytes.create payload_bytes in
            each_run
              (fun p take ->
                Bytes.blit coded (base + image_pos p) payload (p - header_bytes)
                  take)
              header_bytes (header_bytes + payload_bytes);
            Some
              (Ok
                 {
                   pba = (pba_hi lsl 32) lor get_u32 coded (base + 8);
                   kind;
                   generation = get_u32 coded (base + 12);
                   payload = Bytes.unsafe_to_string payload;
                   corrected_symbols = 0;
                 })
          end

(* Count corrections by decoding slice-by-slice ourselves.  Each slice
   is copied out before {!Rs.decode} corrects it in place, so [coded]
   itself — possibly a caller's shared span buffer — is never
   mutated. *)
let decode_slow_sub coded base =
  begin
    let m = Rs.max_data rs_code and npar = Rs.nparity rs_code in
    let out = Buffer.create framed_bytes in
    let corrected = ref 0 and failed = ref false in
    let off = ref base and remaining = ref framed_bytes in
    while !remaining > 0 && not !failed do
      let take = min m !remaining in
      let cw = Bytes.sub coded !off (take + npar) in
      (match Rs.decode rs_code cw with
      | Rs.Ok_clean -> ()
      | Rs.Corrected n -> corrected := !corrected + n
      | Rs.Uncorrectable -> failed := true);
      Buffer.add_subbytes out cw 0 take;
      off := !off + take + npar;
      remaining := !remaining - take
    done;
    if !failed then Error Uncorrectable
    else begin
      let framed = Buffer.contents out in
      let body = String.sub framed 0 (framed_bytes - crc_bytes) in
      let r = Binio.R.of_string framed in
      match
        let m = Binio.R.u16 r in
        let kind_code = Binio.R.u8 r in
        let _reserved = Binio.R.u8 r in
        let pba = Binio.R.u64 r in
        let generation = Binio.R.u32 r in
        let payload = Binio.R.raw r payload_bytes in
        let crc = Binio.R.u32 r in
        (m, kind_code, pba, generation, payload, crc)
      with
      | exception (Binio.R.Truncated | Binio.R.Overflow) -> Error Bad_header
      | m, kind_code, pba, generation, payload, crc ->
          if m <> magic then Error Bad_header
          else
            match kind_of_int kind_code with
            | None -> Error Bad_header
            | Some kind ->
                let expect = Int32.to_int (Crc32.string body) land 0xFFFFFFFF in
                if crc <> expect then Error Bad_crc
                else
                  Ok { pba; kind; generation; payload; corrected_symbols = !corrected }
    end
  end

let decode_sub buf ~off =
  if off < 0 || off > Bytes.length buf - physical_bytes then Error Bad_header
  else
    match decode_fast_sub buf off with
    | Some r -> r
    | None -> decode_slow_sub buf off

let decode image =
  if String.length image <> physical_bytes then Error Bad_header
  else decode_sub (Bytes.unsafe_of_string image) ~off:0
