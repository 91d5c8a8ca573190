exception Proto_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Proto_error s)) fmt
let version = 1

(* {1 Status bytes} *)

let st_ok = 0x00
let st_read_error = 0x41
let st_write_refused = 0x42
let st_heat_refused = 0x43
let st_tampered = 0x44
let st_not_heated = 0x46
let st_unsupported = 0x4F
let st_rejected_depth = 0x81
let st_rejected_rate = 0x82

let status_name = function
  | 0x00 -> "OK"
  | 0x41 -> "READ_ERROR"
  | 0x42 -> "WRITE_REFUSED"
  | 0x43 -> "HEAT_REFUSED"
  | 0x44 -> "TAMPERED"
  | 0x46 -> "NOT_HEATED"
  | 0x4F -> "UNSUPPORTED"
  | 0x81 -> "REJECTED_DEPTH"
  | 0x82 -> "REJECTED_RATE"
  | s -> Printf.sprintf "STATUS_%02X" s

let status_failed s = s <> st_ok

(* {1 Commands} *)

type command =
  | Read of { pba : int }
  | Write of { pba : int; payload : string }
  | Heat of { line : int; timestamp : float option }
  | Verify of { line : int }
  | Audit
  | Array_read of { vba : int }
  | Audit_line of { line : int }

type frame = { tenant : int; seq : int; cmd : command }

let opcode_of_command = function
  | Read _ -> 0x01
  | Write _ -> 0x02
  | Heat _ -> 0x03
  | Verify _ -> 0x04
  | Audit -> 0x05
  | Array_read _ -> 0x06
  | Audit_line _ -> 0x07

(* A frame or response is its body's length (u32) and the body, written
   straight into one exactly sized buffer.  Every integer field keeps
   its low bytes only, big-endian, as {!Codec.Binio.W} would write it.
   The body starts with the version, the opcode, the tenant (u16) and
   the sequence number (u32): 8 bytes at offset 4. *)
let set_u32 b p v = Bytes.set_int32_be b p (Int32.of_int v)

let create_frame ~body_len ~op ~tenant ~seq =
  let b = Bytes.create (4 + body_len) in
  set_u32 b 0 body_len;
  Bytes.set_uint8 b 4 version;
  Bytes.set_uint8 b 5 (op land 0xFF);
  Bytes.set_uint16_be b 6 (tenant land 0xFFFF);
  set_u32 b 8 seq;
  b

(* The command's bytes after that 8-byte prefix. *)
let command_length = function
  | Read _ | Verify _ | Array_read _ | Audit_line _ -> 4
  | Write { payload; _ } -> 8 + String.length payload
  | Heat { timestamp = None; _ } -> 5
  | Heat { timestamp = Some _; _ } -> 13
  | Audit -> 0

let encode_frame { tenant; seq; cmd } =
  let b =
    create_frame ~body_len:(8 + command_length cmd) ~op:(opcode_of_command cmd)
      ~tenant ~seq
  in
  (match cmd with
  | Read { pba = v } | Verify { line = v } | Array_read { vba = v }
  | Audit_line { line = v } ->
      set_u32 b 12 v
  | Write { pba; payload } ->
      let n = String.length payload in
      set_u32 b 12 pba;
      set_u32 b 16 n;
      Bytes.blit_string payload 0 b 20 n
  | Heat { line; timestamp } -> (
      set_u32 b 12 line;
      match timestamp with
      | None -> Bytes.set_uint8 b 16 0
      | Some ts ->
          Bytes.set_uint8 b 16 1;
          Bytes.set_int64_be b 17 (Int64.bits_of_float ts))
  | Audit -> ());
  Bytes.unsafe_to_string b

(* The decoders read through {!Codec.Binio.R}, whose [Truncated] the
   entry points below turn into [Proto_error]. *)
let decode_frame_at off s =
  let module R = Codec.Binio.R in
  let r = R.of_string ~off s in
  let len = R.u32 r in
  if R.remaining r < len then raise R.Truncated;
  let stop = off + 4 + len in
  let v = R.u8 r in
  if v <> version then fail "frame version %d (expected %d)" v version;
  let op = R.u8 r in
  let tenant = R.u16 r in
  let seq = R.u32 r in
  let cmd =
    match op with
    | 0x01 -> Read { pba = R.u32 r }
    | 0x02 ->
        let pba = R.u32 r in
        Write { pba; payload = R.str r }
    | 0x03 ->
        let line = R.u32 r in
        let timestamp =
          match R.u8 r with
          | 0 -> None
          | 1 -> Some (R.f64 r)
          | f -> fail "heat timestamp flag %d" f
        in
        Heat { line; timestamp }
    | 0x04 -> Verify { line = R.u32 r }
    | 0x05 -> Audit
    | 0x06 -> Array_read { vba = R.u32 r }
    | 0x07 -> Audit_line { line = R.u32 r }
    | op -> fail "unknown opcode 0x%02X" op
  in
  if R.pos r <> stop then
    fail "frame length %d does not match body (%d trailing)" len
      (stop - R.pos r);
  ({ tenant; seq; cmd }, stop)

let decode_frame ?(off = 0) s =
  match decode_frame_at off s with
  | v -> v
  | exception Codec.Binio.R.Truncated -> fail "truncated frame"

(* {1 Responses} *)

type response = {
  r_tenant : int;
  r_seq : int;
  r_op : int;  (** Echo of the command opcode. *)
  r_phases : int list;  (** One status byte per phase, in phase order. *)
  r_payload : string;
}

let response_failed r = List.exists status_failed r.r_phases

let rec set_phases b p = function
  | [] -> ()
  | s :: rest ->
      Bytes.set_uint8 b p (s land 0xFF);
      set_phases b (p + 1) rest

let encode_response r =
  let n = List.length r.r_phases and plen = String.length r.r_payload in
  let b =
    create_frame ~body_len:(13 + n + plen) ~op:r.r_op ~tenant:r.r_tenant
      ~seq:r.r_seq
  in
  (* The phase count is one byte; the phases follow it. *)
  Bytes.set_uint8 b 12 (n land 0xFF);
  set_phases b 13 r.r_phases;
  set_u32 b (13 + n) plen;
  Bytes.blit_string r.r_payload 0 b (17 + n) plen;
  Bytes.unsafe_to_string b

let decode_response_at off s =
  let module R = Codec.Binio.R in
  let r = R.of_string ~off s in
  let len = R.u32 r in
  if R.remaining r < len then raise R.Truncated;
  let stop = off + 4 + len in
  let v = R.u8 r in
  if v <> version then fail "response version %d (expected %d)" v version;
  let r_op = R.u8 r in
  let r_tenant = R.u16 r in
  let r_seq = R.u32 r in
  let n = R.u8 r in
  let r_phases = List.init n (fun _ -> R.u8 r) in
  let r_payload = R.str r in
  if R.pos r <> stop then fail "response length mismatch";
  ({ r_tenant; r_seq; r_op; r_phases; r_payload }, stop)

let decode_response ?(off = 0) s =
  match decode_response_at off s with
  | v -> v
  | exception Codec.Binio.R.Truncated -> fail "truncated response"

(* {1 Hex trace format}

   One frame per line, lowercase hex, '#' to end of line is comment,
   blank lines ignored — diff-friendly golden fixtures. *)

let to_hex s =
  String.concat "" (List.init (String.length s) (fun i ->
      Printf.sprintf "%02x" (Char.code s.[i])))

let of_hex line =
  let n = String.length line in
  if n mod 2 <> 0 then fail "odd-length hex line";
  String.init (n / 2) (fun i ->
      let d c =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | c -> fail "bad hex char %C" c
      in
      Char.chr ((d line.[2 * i] lsl 4) lor d line.[(2 * i) + 1]))

let parse_trace text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line =
           match String.index_opt line '#' with
           | Some i -> String.sub line 0 i
           | None -> line
         in
         let line = String.trim line in
         if line = "" then None
         else
           let raw = of_hex line in
           let f, stop = decode_frame raw in
           if stop <> String.length raw then fail "trailing bytes on line";
           Some f)

let print_trace frames =
  String.concat ""
    (List.map (fun f -> to_hex (encode_frame f) ^ "\n") frames)

(* {1 Pretty-printing}

   [pp_response] is the golden-trace output format: one fully
   deterministic line per response (payloads appear as length plus an
   8-hex-digit digest prefix, never raw bytes). *)

let payload_descr = function
  | "" -> "-"
  | p ->
      Printf.sprintf "%dB:%s" (String.length p)
        (String.sub (Hash.Sha256.to_hex (Hash.Sha256.digest_string p)) 0 8)

let op_name = function
  | 0x01 -> "read"
  | 0x02 -> "write"
  | 0x03 -> "heat"
  | 0x04 -> "verify"
  | 0x05 -> "audit"
  | 0x06 -> "array-read"
  | 0x07 -> "audit-line"
  | op -> Printf.sprintf "op%02X" op

let pp_command ppf = function
  | Read { pba } -> Format.fprintf ppf "read pba=%d" pba
  | Write { pba; payload } ->
      Format.fprintf ppf "write pba=%d %s" pba (payload_descr payload)
  | Heat { line; timestamp } ->
      Format.fprintf ppf "heat line=%d%s" line
        (match timestamp with
        | None -> ""
        | Some ts -> Printf.sprintf " ts=%.6f" ts)
  | Verify { line } -> Format.fprintf ppf "verify line=%d" line
  | Audit -> Format.fprintf ppf "audit"
  | Array_read { vba } -> Format.fprintf ppf "array-read vba=%d" vba
  | Audit_line { line } -> Format.fprintf ppf "audit-line line=%d" line

let pp_frame ppf f =
  Format.fprintf ppf "tenant=%d seq=%d %a" f.tenant f.seq pp_command f.cmd

let pp_response ppf r =
  Format.fprintf ppf "tenant=%d seq=%d %-10s [%s] %s" r.r_tenant r.r_seq
    (op_name r.r_op)
    (String.concat ";" (List.map status_name r.r_phases))
    (payload_descr r.r_payload)
