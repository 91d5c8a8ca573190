type status = Trusted | Suspect | Quarantined

type entry = {
  votes : int;
  agreements : int;
  divergences : int;
  convictions : int;
  unreadable : int;
  status : status;
}

let fresh =
  {
    votes = 0;
    agreements = 0;
    divergences = 0;
    convictions = 0;
    unreadable = 0;
    status = Trusted;
  }

type t = entry array

let create ~devices =
  if devices < 1 then invalid_arg "Trust.create: devices < 1";
  Array.make devices fresh

let devices = Array.length

let check t dev =
  if dev < 0 || dev >= Array.length t then
    invalid_arg (Printf.sprintf "Trust: device %d out of range" dev)

let entry t ~dev =
  check t dev;
  t.(dev)

let status t ~dev = (entry t ~dev).status

type charge = Agreement | Divergence | Conviction | Unreadable

let quarantine_threshold = 3

(* Status is derived from the counters, never stored ad hoc, so a
   replayed charge sequence reproduces the ledger exactly.  Quarantine
   is sticky: once quarantined (by counts or by fiat) a device never
   climbs back without an explicit [reset]. *)
let settle e =
  let strikes = e.divergences + e.convictions in
  let status =
    if e.status = Quarantined || strikes >= quarantine_threshold then
      Quarantined
    else if strikes > 0 then Suspect
    else e.status
  in
  { e with status }

let charge t ~dev c =
  check t dev;
  let e = t.(dev) in
  let e = { e with votes = e.votes + 1 } in
  let e =
    match c with
    | Agreement -> { e with agreements = e.agreements + 1 }
    | Divergence -> { e with divergences = e.divergences + 1 }
    | Conviction -> { e with convictions = e.convictions + 1 }
    | Unreadable -> { e with unreadable = e.unreadable + 1 }
  in
  t.(dev) <- settle e

let quarantine t ~dev =
  check t dev;
  t.(dev) <- { (t.(dev)) with status = Quarantined }

let reset t ~dev =
  check t dev;
  t.(dev) <- fresh

let restore t ~dev e =
  check t dev;
  t.(dev) <- e

let status_string = function
  | Trusted -> "trusted"
  | Suspect -> "suspect"
  | Quarantined -> "quarantined"

let pp_entry ppf e =
  Format.fprintf ppf
    "%s (votes %d, agree %d, diverge %d, convict %d, unreadable %d)"
    (status_string e.status) e.votes e.agreements e.divergences e.convictions
    e.unreadable
