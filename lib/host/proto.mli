(** The wire-ish host command protocol: length-prefixed, versioned
    frames over {!Codec.Binio}, one status byte per execution phase in
    the response — the command/status-register discipline of a disk
    controller, kept byte-deterministic so golden traces can be diffed
    exactly.

    A command frame is [u32 length] wrapping
    [u8 version; u8 opcode; u16 tenant; u32 seq; args...]; a response
    echoes the opcode and carries [u8 nphases] status bytes (phase 0 is
    admission, phase 1 execution — a rejected command has only phase 0)
    and a length-prefixed payload. *)

exception Proto_error of string
(** Malformed or truncated frame, bad hex, unknown opcode, version
    mismatch: the only exception the decoders raise on any bytes. *)

val version : int

(** {1 Status bytes}

    [0x00] is success; the high bit marks admission-control rejections
    (the typed [Rejected] statuses), [0x4x] execution failures. *)

val st_ok : int
val st_read_error : int
val st_write_refused : int
val st_heat_refused : int
val st_tampered : int
val st_not_heated : int

val st_unsupported : int
(** Command not valid for this target. *)

val st_rejected_depth : int
(** Per-tenant queue depth limit hit. *)

val st_rejected_rate : int
(** Token bucket empty. *)

val status_failed : int -> bool

(** {1 Commands} *)

type command =
  | Read of { pba : int }
  | Write of { pba : int; payload : string }
  | Heat of { line : int; timestamp : float option }
      (** [timestamp] [None] = stamp with the DES clock at service. *)
  | Verify of { line : int }
  | Audit  (** Full-device tamper scan; payload is the summary line. *)
  | Array_read of { vba : int }  (** Volume targets only. *)
  | Audit_line of { line : int }
      (** One line of audit spend.  On a device target it rides the
          request queue as background traffic ({!Sero.Queue.submit_verify_line}),
          contending under the arbiter like any tenant work; on a volume
          target it runs one quorum attestation of the logical line.
          Status: OK / NOT_HEATED / TAMPERED. *)

type frame = { tenant : int; seq : int; cmd : command }

val opcode_of_command : command -> int
val encode_frame : frame -> string

val decode_frame : ?off:int -> string -> frame * int
(** [(frame, next_off)]. *)

(** {1 Responses} *)

type response = {
  r_tenant : int;
  r_seq : int;
  r_op : int;  (** Echo of the command opcode. *)
  r_phases : int list;  (** One status byte per phase, in phase order. *)
  r_payload : string;
}

val response_failed : response -> bool
(** Any phase status other than [st_ok]. *)

val encode_response : response -> string
val decode_response : ?off:int -> string -> response * int

(** {1 Hex trace format}

    Golden fixtures: one hex-encoded frame per line, ['#'] comments,
    blank lines ignored. *)

val to_hex : string -> string
val parse_trace : string -> frame list
val print_trace : frame list -> string

(** {1 Pretty-printing} *)

val pp_command : Format.formatter -> command -> unit
val pp_frame : Format.formatter -> frame -> unit

val pp_response : Format.formatter -> response -> unit
(** The golden-trace output format — one deterministic line. *)
