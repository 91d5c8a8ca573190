type target = Device of Sero.Queue.t | Volume of Sarray.Volume.t

type limits = { max_depth : int; rate : float; burst : float }

let default_limits = { max_depth = max_int; rate = infinity; burst = infinity }

type tstate = {
  limits : limits;
  slo : Slo.t;
  mutable tokens : float;
  mutable refilled : float;
  mutable in_flight : int;
}

type t = {
  target : target;
  limits_of : int -> limits;
  tstates : (int, tstate) Hashtbl.t;
  mutable responses : Proto.response list; (* newest first *)
  mutable on_response : (Proto.response -> unit) option;
}

let des_of = function
  | Device q -> Sero.Queue.des q
  | Volume v -> Sero.Queue.des (Sarray.Volume.queue v ~dev:0)

let queues_of = function
  | Device q -> [ q ]
  | Volume v ->
      List.init (Sarray.Volume.n_devices v) (fun dev ->
          Sarray.Volume.queue v ~dev)

let create ?(limits_of = fun _ -> default_limits) target =
  {
    target;
    limits_of;
    tstates = Hashtbl.create 8;
    responses = [];
    on_response = None;
  }

let now t = Sim.Des.now (des_of t.target)

let set_policy t policy =
  List.iter (fun q -> Arbiter.install q policy) (queues_of t.target)

let tstate t tenant =
  match Hashtbl.find_opt t.tstates tenant with
  | Some ts -> ts
  | None ->
      let limits = t.limits_of tenant in
      let ts =
        {
          limits;
          slo = Slo.create ();
          tokens = limits.burst;
          refilled = now t;
          in_flight = 0;
        }
      in
      Hashtbl.add t.tstates tenant ts;
      ts

let slo t ~tenant = (tstate t tenant).slo

(* Token-bucket refill on the DES clock; [infinity] rate/burst means
   admission never rejects on rate. *)
let admit ts ~now =
  if ts.limits.rate < infinity then begin
    let dt = now -. ts.refilled in
    ts.tokens <- Float.min ts.limits.burst (ts.tokens +. (ts.limits.rate *. dt));
    ts.refilled <- now
  end;
  if ts.in_flight >= ts.limits.max_depth then Error `Depth
  else if ts.limits.rate < infinity && ts.tokens < 1. then Error `Rate
  else begin
    if ts.limits.rate < infinity then ts.tokens <- ts.tokens -. 1.;
    ts.in_flight <- ts.in_flight + 1;
    Ok ()
  end

let push t r =
  t.responses <- r :: t.responses;
  match t.on_response with None -> () | Some k -> k r

let set_on_response t k = t.on_response <- k

let finish t ts (f : Proto.frame) ~t0 ~read ~status ~payload =
  ts.in_flight <- ts.in_flight - 1;
  Slo.note_completion ts.slo ~read
    ~ok:(not (Proto.status_failed status))
    ~latency:(now t -. t0);
  push t
    {
      Proto.r_tenant = f.Proto.tenant;
      r_seq = f.Proto.seq;
      r_op = Proto.opcode_of_command f.Proto.cmd;
      r_phases = [ Proto.st_ok; status ];
      r_payload = payload;
    }

let audit_summary entries =
  let intact = ref 0 and blank = ref 0 and tampered = ref 0 in
  List.iter
    (fun e ->
      match e.Sero.Device.verdict with
      | Sero.Tamper.Intact -> incr intact
      | Sero.Tamper.Not_heated -> incr blank
      | Sero.Tamper.Tampered _ -> incr tampered)
    entries;
  ( Printf.sprintf "lines=%d intact=%d not_heated=%d tampered=%d"
      (List.length entries) !intact !blank !tampered,
    !tampered )

(* Target geometry, for refusing out-of-range addresses before anything
   is submitted: the device layers raise on them. *)
let n_blocks = function
  | Device q -> (Sero.Device.config (Sero.Queue.device q)).Sero.Device.n_blocks
  | Volume v -> Sarray.Amap.n_blocks (Sarray.Volume.map v)

let n_lines = function
  | Device q -> Sero.Layout.n_lines (Sero.Device.layout (Sero.Queue.device q))
  | Volume v -> Sarray.Amap.logical_lines (Sarray.Volume.map v)

let outside n x = x < 0 || x >= n

(* Execute an admitted command.  Queue-path commands (read/write/heat on
   a device target) are asynchronous: the response is pushed when the
   queued request completes.  Electrical-path commands (verify, audit)
   and every volume command run synchronously at submit time.  An
   address outside the target is answered at once with the op's
   failure status. *)
let execute t ts (f : Proto.frame) =
  let t0 = now t in
  let tenant = f.Proto.tenant in
  let sync ~read ~status ~payload =
    finish t ts f ~t0 ~read ~status ~payload
  in
  let unsupported () =
    sync ~read:false ~status:Proto.st_unsupported ~payload:""
  in
  match (t.target, f.Proto.cmd) with
  | Device _, Proto.Array_read _ | Volume _, (Proto.Verify _ | Proto.Audit) ->
      unsupported ()
  | target, (Proto.Read { pba = a } | Proto.Array_read { vba = a })
    when outside (n_blocks target) a ->
      sync ~read:true ~status:Proto.st_read_error ~payload:""
  | target, Proto.Write { pba; _ } when outside (n_blocks target) pba ->
      sync ~read:false ~status:Proto.st_write_refused ~payload:""
  | target, Proto.Heat { line; _ } when outside (n_lines target) line ->
      sync ~read:false ~status:Proto.st_heat_refused ~payload:""
  | target, (Proto.Verify { line } | Proto.Audit_line { line })
    when outside (n_lines target) line ->
      sync ~read:false ~status:Proto.st_read_error ~payload:""
  | Device q, Proto.Read { pba } ->
      Sero.Queue.submit_read q ~tenant ~pba (function
        | Ok payload -> finish t ts f ~t0 ~read:true ~status:Proto.st_ok ~payload
        | Error _ ->
            finish t ts f ~t0 ~read:true ~status:Proto.st_read_error ~payload:"")
  | Device q, Proto.Write { pba; payload } ->
      Sero.Queue.submit_write q ~tenant ~pba payload (function
        | Ok () -> finish t ts f ~t0 ~read:false ~status:Proto.st_ok ~payload:""
        | Error _ ->
            finish t ts f ~t0 ~read:false ~status:Proto.st_write_refused
              ~payload:"")
  | Device q, Proto.Heat { line; timestamp } ->
      let k = function
        | Ok h ->
            finish t ts f ~t0 ~read:false ~status:Proto.st_ok
              ~payload:(Hash.Sha256.to_raw h)
        | Error _ ->
            finish t ts f ~t0 ~read:false ~status:Proto.st_heat_refused
              ~payload:""
      in
      (match timestamp with
      | None -> Sero.Queue.submit_heat_line q ~tenant ~line k
      | Some timestamp ->
          Sero.Queue.submit_heat_line q ~tenant ~line ~timestamp k)
  | Device q, Proto.Verify { line } ->
      let status =
        match Sero.Device.verify_line (Sero.Queue.device q) ~line with
        | Sero.Tamper.Intact -> Proto.st_ok
        | Sero.Tamper.Not_heated -> Proto.st_not_heated
        | Sero.Tamper.Tampered _ -> Proto.st_tampered
      in
      sync ~read:false ~status ~payload:""
  | Device q, Proto.Audit ->
      let payload, tampered =
        audit_summary (Sero.Device.scan (Sero.Queue.device q))
      in
      sync ~read:false
        ~status:(if tampered > 0 then Proto.st_tampered else Proto.st_ok)
        ~payload
  | Device q, Proto.Audit_line { line } ->
      (* Audit spend is queue traffic: a background-class verify that
         contends under the arbiter like any tenant's work, so the
         defender's budget is charged in the same currency as the
         foreground it displaces. *)
      Sero.Queue.submit_verify_line q ~tenant ~line (fun v ->
          let status =
            match v with
            | Sero.Tamper.Intact -> Proto.st_ok
            | Sero.Tamper.Not_heated -> Proto.st_not_heated
            | Sero.Tamper.Tampered _ -> Proto.st_tampered
          in
          finish t ts f ~t0 ~read:false ~status ~payload:"")
  | Volume v, (Proto.Read { pba = vba } | Proto.Array_read { vba }) -> (
      match Sarray.Volume.read_block ~tenant v ~vba with
      | Ok payload -> sync ~read:true ~status:Proto.st_ok ~payload
      | Error _ -> sync ~read:true ~status:Proto.st_read_error ~payload:"")
  | Volume v, Proto.Write { pba = vba; payload } -> (
      match Sarray.Volume.write_block ~tenant v ~vba payload with
      | Ok () -> sync ~read:false ~status:Proto.st_ok ~payload:""
      | Error _ -> sync ~read:false ~status:Proto.st_write_refused ~payload:"")
  | Volume v, Proto.Heat { line; timestamp } -> (
      match Sarray.Volume.heat_line ~tenant v ~line ?timestamp () with
      | Ok h ->
          sync ~read:false ~status:Proto.st_ok
            ~payload:(Hash.Sha256.to_raw h)
      | Error _ -> sync ~read:false ~status:Proto.st_heat_refused ~payload:"")
  | Volume v, Proto.Audit_line { line } ->
      let status =
        match Sarray.Quorum.attest_line v ~line with
        | Sarray.Quorum.Attested _ -> Proto.st_ok
        | Sarray.Quorum.Line_not_heated -> Proto.st_not_heated
        | Sarray.Quorum.Tie_unattested _ | Sarray.Quorum.All_convicted _ ->
            Proto.st_tampered
        | Sarray.Quorum.Line_offline -> Proto.st_read_error
      in
      sync ~read:false ~status ~payload:""

let submit_frame t (f : Proto.frame) =
  let ts = tstate t f.Proto.tenant in
  match admit ts ~now:(now t) with
  | Error kind ->
      Slo.note_rejection ts.slo kind;
      push t
        {
          Proto.r_tenant = f.Proto.tenant;
          r_seq = f.Proto.seq;
          r_op = Proto.opcode_of_command f.Proto.cmd;
          r_phases =
            [
              (match kind with
              | `Depth -> Proto.st_rejected_depth
              | `Rate -> Proto.st_rejected_rate);
            ];
          r_payload = "";
        }
  | Ok () -> execute t ts f

let drain t =
  match t.target with
  | Device q -> Sero.Queue.drain q
  | Volume v -> Sarray.Volume.flush v

let responses t = List.rev t.responses

let tenants t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.tstates [] |> List.sort compare

let report t ~tenant =
  let ts = tstate t tenant in
  let qs = queues_of t.target in
  let energy =
    List.fold_left (fun a q -> a +. Sero.Queue.tenant_energy q tenant) 0. qs
  in
  let service =
    List.fold_left (fun a q -> a +. Sero.Queue.tenant_service q tenant) 0. qs
  in
  Slo.report ~energy ~service ts.slo

(* {1 Sessions} *)

type session = { server : t; tenant : int; mutable next_seq : int }

let session t ~tenant =
  ignore (tstate t tenant);
  { server = t; tenant; next_seq = 0 }

let next_seq s = s.next_seq

let submit s cmd =
  let seq = s.next_seq in
  s.next_seq <- seq + 1;
  submit_frame s.server { Proto.tenant = s.tenant; seq; cmd };
  seq

let call s cmd =
  let seq = submit s cmd in
  drain s.server;
  match
    List.find_opt
      (fun r -> r.Proto.r_tenant = s.tenant && r.Proto.r_seq = seq)
      s.server.responses
  with
  | Some r -> r
  | None -> assert false (* drained: the response must have been pushed *)

(* {1 Replay} *)

let replay t frames =
  let before = List.length t.responses in
  List.iter
    (fun f ->
      submit_frame t f;
      drain t)
    frames;
  let rec take n acc l =
    if n = 0 then acc
    else match l with [] -> acc | r :: rest -> take (n - 1) (r :: acc) rest
  in
  take (List.length t.responses - before) [] t.responses

let format_replay rs =
  String.concat ""
    (List.map (fun r -> Format.asprintf "%a@." Proto.pp_response r) rs)
