(* Host front-end: protocol codec round-trips, admission control,
   tenant-arbiter fairness, golden-trace conformance, and the
   single-tenant host-vs-await equivalence law.

   Run with [regen [DIR]] instead of alcotest arguments to regenerate
   the golden fixtures under DIR (default test/golden). *)

let qtest = QCheck_alcotest.to_alcotest

module P = Host.Proto

(* {1 Generators} *)

let gen_command =
  QCheck.Gen.(
    let pba = 0 -- 0xFFFFFF in
    let line = 0 -- 0xFFFF in
    let payload = string_size ~gen:printable (0 -- 64) in
    let ts = opt (map (fun i -> float_of_int i /. 16.) (0 -- 1_000_000)) in
    oneof
      [
        map (fun pba -> P.Read { pba }) pba;
        map2 (fun pba payload -> P.Write { pba; payload }) pba payload;
        map2 (fun line timestamp -> P.Heat { line; timestamp }) line ts;
        map (fun line -> P.Verify { line }) line;
        return P.Audit;
        map (fun vba -> P.Array_read { vba }) pba;
      ])

let gen_frame =
  QCheck.Gen.(
    map3
      (fun tenant seq cmd -> { P.tenant; seq; cmd })
      (0 -- 0xFFFF) (0 -- 0xFFFFFF) gen_command)

let arb_frame =
  QCheck.make ~print:(Format.asprintf "%a" P.pp_frame) gen_frame

let arb_frames =
  QCheck.make
    ~print:(fun fs ->
      String.concat "; " (List.map (Format.asprintf "%a" P.pp_frame) fs))
    QCheck.Gen.(list_size (1 -- 8) gen_frame)

let gen_response =
  QCheck.Gen.(
    let* r_tenant = 0 -- 0xFFFF in
    let* r_seq = 0 -- 0xFFFFFF in
    let* r_op = 1 -- 6 in
    let* r_phases = list_size (0 -- 3) (0 -- 255) in
    let* r_payload = string_size ~gen:char (0 -- 64) in
    return { P.r_tenant; r_seq; r_op; r_phases; r_payload })

let arb_response =
  QCheck.make ~print:(Format.asprintf "%a" P.pp_response) gen_response

(* {1 Codec round-trips} *)

let frame_roundtrip =
  QCheck.Test.make ~name:"frame encode/decode roundtrip" ~count:500 arb_frame
    (fun f ->
      let s = P.encode_frame f in
      let f', stop = P.decode_frame s in
      f = f' && stop = String.length s)

let frame_stream_roundtrip =
  QCheck.Test.make ~name:"concatenated frames decode in sequence" ~count:200
    arb_frames (fun fs ->
      let s = String.concat "" (List.map P.encode_frame fs) in
      let rec decode off acc =
        if off = String.length s then List.rev acc
        else
          let f, off = P.decode_frame ~off s in
          decode off (f :: acc)
      in
      decode 0 [] = fs)

let frame_truncation =
  QCheck.Test.make ~name:"any strict prefix raises Proto_error" ~count:200
    QCheck.(pair arb_frame small_nat) (fun (f, k) ->
      let s = P.encode_frame f in
      let prefix = String.sub s 0 (k mod String.length s) in
      match P.decode_frame prefix with
      | _ -> false
      | exception P.Proto_error _ -> true)

let frame_bad_version =
  QCheck.Test.make ~name:"wrong version raises Proto_error" ~count:100
    arb_frame (fun f ->
      let s = Bytes.of_string (P.encode_frame f) in
      Bytes.set s 4 (Char.chr (P.version + 1));
      match P.decode_frame (Bytes.to_string s) with
      | _ -> false
      | exception P.Proto_error _ -> true)

(* Hostile input: random bytes, and valid frames and responses cut short
   or with one bit flipped.  Each decoder either decodes or raises
   [Proto_error]; any other exception fails the property. *)
let gen_hostile =
  QCheck.Gen.(
    let valid =
      oneof [ map P.encode_frame gen_frame; map P.encode_response gen_response ]
    in
    oneof
      [
        string_size ~gen:char (0 -- 64);
        (let* s = valid in
         let* cut = 0 -- (String.length s - 1) in
         return (String.sub s 0 cut));
        (let* s = valid in
         let* bit = 0 -- ((8 * String.length s) - 1) in
         let b = Bytes.of_string s in
         Bytes.set_uint8 b (bit / 8)
           (Bytes.get_uint8 b (bit / 8) lxor (1 lsl (bit mod 8)));
         return (Bytes.to_string b));
      ])

let hostile_decode =
  QCheck.Test.make ~name:"hostile bytes decode or raise Proto_error" ~count:1000
    (QCheck.make ~print:P.to_hex gen_hostile) (fun s ->
      let total decode =
        match decode s with () -> true | exception P.Proto_error _ -> true
      in
      total (fun s -> ignore (P.decode_frame s))
      && total (fun s -> ignore (P.decode_response s)))

let response_roundtrip =
  QCheck.Test.make ~name:"response encode/decode roundtrip" ~count:500
    arb_response (fun r ->
      let s = P.encode_response r in
      let r', stop = P.decode_response s in
      r = r' && stop = String.length s)

let trace_roundtrip =
  QCheck.Test.make ~name:"hex trace print/parse roundtrip" ~count:200
    arb_frames (fun fs -> P.parse_trace (P.print_trace fs) = fs)

(* The Buffer-based encoders the library had before it wrote frames and
   responses into one exactly sized buffer, kept as the oracle. *)
module Proto_oracle = struct
  module W = Codec.Binio.W

  let write_body w { P.tenant; seq; cmd } =
    W.u8 w P.version;
    W.u8 w (P.opcode_of_command cmd);
    W.u16 w tenant;
    W.u32 w seq;
    match cmd with
    | P.Read { pba } -> W.u32 w pba
    | P.Write { pba; payload } ->
        W.u32 w pba;
        W.str w payload
    | P.Heat { line; timestamp } -> (
        W.u32 w line;
        match timestamp with
        | None -> W.u8 w 0
        | Some ts ->
            W.u8 w 1;
            W.f64 w ts)
    | P.Verify { line } -> W.u32 w line
    | P.Audit -> ()
    | P.Array_read { vba } -> W.u32 w vba
    | P.Audit_line { line } -> W.u32 w line

  let framed body =
    let w = W.create () in
    W.u32 w (W.length body);
    W.raw w (W.contents body);
    W.contents w

  let encode_frame f =
    let body = W.create () in
    write_body body f;
    framed body

  let encode_response r =
    let body = W.create () in
    W.u8 body P.version;
    W.u8 body r.P.r_op;
    W.u16 body r.r_tenant;
    W.u32 body r.r_seq;
    W.u8 body (List.length r.r_phases);
    List.iter (W.u8 body) r.r_phases;
    W.str body r.r_payload;
    framed body
end

(* Field values at and past the edges of their widths: the encoders
   keep the low bytes of each. *)
let gen_extreme width =
  QCheck.Gen.(
    oneof
      [
        oneofl [ 0; 1; width - 1; width; width + 1; max_int; min_int; -1 ];
        0 -- (width - 1);
        int;
      ])

let gen_any_command =
  QCheck.Gen.(
    let u32 = gen_extreme 0x1_0000_0000 in
    let payload = string_size ~gen:char (0 -- 600) in
    let ts =
      opt
        (oneof
           [ float; oneofl [ 0.; -0.; infinity; neg_infinity; nan; max_float ] ])
    in
    oneof
      [
        map (fun pba -> P.Read { pba }) u32;
        map2 (fun pba payload -> P.Write { pba; payload }) u32 payload;
        map2 (fun line timestamp -> P.Heat { line; timestamp }) u32 ts;
        map (fun line -> P.Verify { line }) u32;
        return P.Audit;
        map (fun vba -> P.Array_read { vba }) u32;
        map (fun line -> P.Audit_line { line }) u32;
      ])

let encode_frame_oracle =
  QCheck.Test.make ~name:"encode_frame == Buffer-based oracle" ~count:1000
    (QCheck.make ~print:(Format.asprintf "%a" P.pp_frame)
       QCheck.Gen.(
         map3
           (fun tenant seq cmd -> { P.tenant; seq; cmd })
           (gen_extreme 0x10000) (gen_extreme 0x1_0000_0000) gen_any_command))
    (fun f -> String.equal (P.encode_frame f) (Proto_oracle.encode_frame f))

let encode_response_oracle =
  QCheck.Test.make ~name:"encode_response == Buffer-based oracle" ~count:1000
    (QCheck.make ~print:(Format.asprintf "%a" P.pp_response)
       QCheck.Gen.(
         let* r_tenant = gen_extreme 0x10000 in
         let* r_seq = gen_extreme 0x1_0000_0000 in
         let* r_op = gen_extreme 0x100 in
         let* r_phases = list_size (oneofl [ 0; 1; 3; 255; 256; 300 ]) (gen_extreme 0x100) in
         let* r_payload = string_size ~gen:char (0 -- 600) in
         return { P.r_tenant; r_seq; r_op; r_phases; r_payload }))
    (fun r -> String.equal (P.encode_response r) (Proto_oracle.encode_response r))

(* {1 Test rig}

   The golden device geometry: 256 blocks in lines of 8 — what
   [serotool mkdev IMG --blocks 256] creates. *)

let mkdev () =
  Sero.Device.create (Sero.Device.default_config ~n_blocks:256 ~line_exp:3 ())

let data_pbas dev =
  let lay = Sero.Device.layout dev in
  List.init (Sero.Layout.n_lines lay) Fun.id
  |> List.concat_map (Sero.Layout.data_blocks_of_line lay)

let payload_of pba =
  String.init 96 (fun i -> Char.chr ((pba + (11 * i)) land 0xff))

let prefill dev =
  List.iter
    (fun pba ->
      match Sero.Device.write_block dev ~pba (payload_of pba) with
      | Ok () -> ()
      | Error _ -> assert false)
    (data_pbas dev)

let mkserver ?limits_of ?(prefilled = true) () =
  let dev = mkdev () in
  if prefilled then prefill dev;
  let des = Sim.Des.create () in
  let q = Sero.Queue.create des dev in
  let server = Host.Server.create ?limits_of (Host.Server.Device q) in
  (dev, q, server)

(* {1 Admission control} *)

let test_depth_limit () =
  let limits_of _ =
    { Host.Server.max_depth = 1; rate = infinity; burst = infinity }
  in
  let _, _, server = mkserver ~limits_of () in
  let s = Host.Server.session server ~tenant:3 in
  ignore (Host.Server.submit s (P.Read { pba = 9 }));
  ignore (Host.Server.submit s (P.Read { pba = 10 }));
  (* The second submit must bounce immediately: depth 1 is occupied. *)
  (match Host.Server.responses server with
  | [ r ] ->
      Alcotest.(check (list int))
        "rejected phases" [ P.st_rejected_depth ] r.P.r_phases;
      Alcotest.(check int) "rejected seq" 1 r.P.r_seq
  | rs -> Alcotest.failf "expected 1 immediate response, got %d" (List.length rs));
  Host.Server.drain server;
  (match Host.Server.responses server with
  | [ _; ok ] ->
      Alcotest.(check (list int)) "served phases" [ P.st_ok; P.st_ok ] ok.P.r_phases
  | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs));
  (* The slot freed at completion: a third command is admitted. *)
  let r = Host.Server.call s (P.Read { pba = 11 }) in
  Alcotest.(check (list int)) "readmitted" [ P.st_ok; P.st_ok ] r.P.r_phases;
  let rep = Host.Slo.report (Host.Server.slo server ~tenant:3) in
  Alcotest.(check int) "rejected_depth counter" 1 rep.Host.Slo.rep_rejected_depth;
  Alcotest.(check int) "completed counter" 2 rep.Host.Slo.rep_completed

let test_rate_limit () =
  let limits_of _ =
    { Host.Server.max_depth = max_int; rate = 0.; burst = 2. }
  in
  let _, _, server = mkserver ~limits_of () in
  let s = Host.Server.session server ~tenant:1 in
  ignore (Host.Server.submit s (P.Read { pba = 9 }));
  ignore (Host.Server.submit s (P.Read { pba = 10 }));
  ignore (Host.Server.submit s (P.Read { pba = 11 }));
  Host.Server.drain server;
  let rejected =
    List.filter
      (fun r -> r.P.r_phases = [ P.st_rejected_rate ])
      (Host.Server.responses server)
  in
  Alcotest.(check int) "one rate rejection" 1 (List.length rejected);
  Alcotest.(check int) "rejected seq is the third" 2
    (List.hd rejected).P.r_seq;
  let rep = Host.Slo.report (Host.Server.slo server ~tenant:1) in
  Alcotest.(check int) "rate counter" 1 rep.Host.Slo.rep_rejected_rate;
  Alcotest.(check bool) "rejection_pct"
    true
    (abs_float (rep.Host.Slo.rep_rejection_pct -. 100. /. 3.) < 1e-9)

(* {1 Arbiter fairness}

   A heavy tenant floods 12 reads at t=0; the light tenant's one read
   arrives a hair later (distinct arrival time, well before the first
   service completes).  Under arrival order the light response comes
   last; under fair share the arbiter serves the light tenant as soon
   as the sled frees up. *)

let light_index policy =
  let _, q, server = mkserver () in
  Host.Server.set_policy server policy;
  let heavy = Host.Server.session server ~tenant:2 in
  let light = Host.Server.session server ~tenant:1 in
  let pbas = Array.of_list (data_pbas (Sero.Queue.device q)) in
  for i = 0 to 11 do
    ignore (Host.Server.submit heavy (P.Read { pba = pbas.(13 * i) }))
  done;
  Sim.Des.schedule (Sero.Queue.des q) ~delay:1e-9 (fun _ ->
      ignore (Host.Server.submit light (P.Read { pba = pbas.(1) })));
  Host.Server.drain server;
  let rs = Host.Server.responses server in
  Alcotest.(check int) "all served" 13 (List.length rs);
  let rec index i = function
    | [] -> Alcotest.fail "light tenant response missing"
    | r :: _ when r.P.r_tenant = 1 -> i
    | _ :: rest -> index (i + 1) rest
  in
  index 0 rs

let test_fairness () =
  let fifo = light_index Host.Arbiter.Arrival_order in
  let wfs = light_index (Host.Arbiter.Fair_share (fun _ -> 1.)) in
  Alcotest.(check int) "arrival order serves the light tenant last" 12 fifo;
  Alcotest.(check bool)
    (Printf.sprintf "fair share serves it early (index %d)" wfs)
    true (wfs <= 2)

let test_tenant_ledgers () =
  let _, q, server = mkserver () in
  Host.Server.set_policy server (Host.Arbiter.Fair_share (fun _ -> 1.));
  let a = Host.Server.session server ~tenant:1 in
  let b = Host.Server.session server ~tenant:2 in
  for i = 0 to 5 do
    ignore (Host.Server.submit a (P.Read { pba = 9 + i }));
    ignore (Host.Server.submit b (P.Read { pba = 17 + i }))
  done;
  Host.Server.drain server;
  Alcotest.(check (list int)) "tenants" [ 1; 2 ] (Sero.Queue.tenants q);
  Alcotest.(check int) "t1 completions" 6 (Sero.Queue.tenant_completed q 1);
  Alcotest.(check int) "t2 completions" 6 (Sero.Queue.tenant_completed q 2);
  Alcotest.(check bool) "service charged" true
    (Sero.Queue.tenant_service q 1 > 0. && Sero.Queue.tenant_service q 2 > 0.);
  let rep = Host.Server.report server ~tenant:1 in
  Alcotest.(check int) "report completions" 6 rep.Host.Slo.rep_completed;
  Alcotest.(check bool) "report p99 positive" true
    (rep.Host.Slo.rep_p99_ms > 0.)

(* {1 Audit_line}

   On a device target the frame rides the request queue (async, served
   at drain); on a volume target it is one synchronous quorum
   attestation. *)

let test_audit_line_device () =
  let dev, _, server = mkserver () in
  (match Sero.Device.heat_line dev ~line:1 () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "heat 1");
  (match Sero.Device.heat_line dev ~line:2 () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "heat 2");
  let lay = Sero.Device.layout dev in
  let victim = List.hd (Sero.Layout.data_blocks_of_line lay 2) in
  Sero.Device.unsafe_write_block dev ~pba:victim "forged";
  let seen = ref [] in
  Host.Server.set_on_response server (Some (fun r -> seen := r :: !seen));
  let s = Host.Server.session server ~tenant:7 in
  ignore (Host.Server.submit s (P.Audit_line { line = 1 }));
  ignore (Host.Server.submit s (P.Audit_line { line = 2 }));
  ignore (Host.Server.submit s (P.Audit_line { line = 3 }));
  Alcotest.(check int)
    "audit rides the queue: nothing served before drain" 0
    (List.length (Host.Server.responses server));
  Host.Server.drain server;
  (match Host.Server.responses server with
  | [ intact; tampered; unheated ] ->
      Alcotest.(check (list int))
        "intact" [ P.st_ok; P.st_ok ] intact.P.r_phases;
      Alcotest.(check (list int))
        "tampered" [ P.st_ok; P.st_tampered ] tampered.P.r_phases;
      Alcotest.(check (list int))
        "not heated" [ P.st_ok; P.st_not_heated ] unheated.P.r_phases
  | rs -> Alcotest.failf "expected 3 responses, got %d" (List.length rs));
  Alcotest.(check int) "hook saw every response" 3 (List.length !seen);
  Host.Server.set_on_response server None;
  let r = Host.Server.call s (P.Audit_line { line = 1 }) in
  Alcotest.(check (list int)) "hook detached" [ P.st_ok; P.st_ok ] r.P.r_phases;
  Alcotest.(check int) "no further hook calls" 3 (List.length !seen)

let test_audit_line_volume () =
  let v =
    Sarray.Volume.create
      (Sarray.Volume.default_config ~slots:2 ~replication:2 ~spares:0
         ~member_blocks:64 ~line_exp:3 ~cache_capacity:None ())
  in
  let m = Sarray.Volume.map v in
  let dpl =
    Sero.Layout.data_blocks_per_line
      (Sero.Device.layout (Sarray.Volume.device v ~dev:0))
  in
  for line = 0 to 1 do
    for offset = 0 to dpl - 1 do
      match
        Sarray.Volume.write_block v
          ~vba:(Sarray.Amap.vba_of m ~line ~offset)
          (payload_of offset)
      with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "write"
    done
  done;
  (match Sarray.Volume.heat_line v ~line:0 () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "heat");
  let server = Host.Server.create (Host.Server.Volume v) in
  let s = Host.Server.session server ~tenant:7 in
  let attested = Host.Server.call s (P.Audit_line { line = 0 }) in
  Alcotest.(check (list int)) "attested" [ P.st_ok; P.st_ok ] attested.P.r_phases;
  let unheated = Host.Server.call s (P.Audit_line { line = 1 }) in
  Alcotest.(check (list int))
    "not heated" [ P.st_ok; P.st_not_heated ] unheated.P.r_phases;
  (* Rewrite every replica of line 0's first data block: no divergence
     between mirrors, each replica self-convicts against its burn. *)
  List.iter
    (fun slot ->
      let dev = Sarray.Volume.dev_of_slot v ~slot in
      Sero.Device.unsafe_write_block
        (Sarray.Volume.device v ~dev)
        ~pba:(Sarray.Amap.member_pba m ~vba:(Sarray.Amap.vba_of m ~line:0 ~offset:0))
        "forged")
    (Sarray.Volume.serving_slots v ~line:0);
  let split = Host.Server.call s (P.Audit_line { line = 0 }) in
  Alcotest.(check (list int))
    "mirror split" [ P.st_ok; P.st_tampered ] split.P.r_phases

(* {1 Out-of-range addresses}

   A frame naming a block or line outside the target is answered with
   its op's failure status, counted failed in the tenant's SLO ledger,
   and leaves the tenant's depth slot free: with a depth limit of 1, the
   next in-range frame is still served. *)

let check_out_of_range target ~bad ~good =
  let limits_of _ = { Host.Server.default_limits with max_depth = 1 } in
  let server = Host.Server.create ~limits_of target in
  let s = Host.Server.session server ~tenant:3 in
  List.iter
    (fun (cmd, status) ->
      let r = Host.Server.call s cmd in
      Alcotest.(check (list int))
        (Format.asprintf "%a" P.pp_command cmd)
        [ P.st_ok; status ] r.P.r_phases)
    bad;
  let slo = Host.Server.slo server ~tenant:3 in
  Alcotest.(check int) "failed in the ledger" (List.length bad)
    (Host.Slo.failed slo);
  let r = Host.Server.call s good in
  Alcotest.(check (list int)) "next frame served" [ P.st_ok; P.st_ok ]
    r.P.r_phases;
  Alcotest.(check int) "no rejection" 0 (Host.Slo.rejected slo)

let test_out_of_range_device () =
  let _, q, _ = mkserver () in
  check_out_of_range (Host.Server.Device q)
    ~bad:
      [
        (P.Read { pba = -1 }, P.st_read_error);
        (P.Read { pba = 256 }, P.st_read_error);
        (P.Write { pba = 9_999; payload = "x" }, P.st_write_refused);
        (P.Heat { line = 32; timestamp = None }, P.st_heat_refused);
        (P.Verify { line = 32 }, P.st_read_error);
        (P.Audit_line { line = -1 }, P.st_read_error);
      ]
    ~good:(P.Read { pba = 9 })

let test_out_of_range_volume () =
  let v =
    Sarray.Volume.create
      (Sarray.Volume.default_config ~slots:2 ~replication:2 ~spares:0
         ~member_blocks:64 ~line_exp:3 ())
  in
  check_out_of_range (Host.Server.Volume v)
    ~bad:
      [
        (P.Read { pba = 99_999 }, P.st_read_error);
        (P.Array_read { vba = -1 }, P.st_read_error);
        (P.Write { pba = 99_999; payload = "x" }, P.st_write_refused);
        (P.Heat { line = 9_999; timestamp = None }, P.st_heat_refused);
        (P.Audit_line { line = 9_999 }, P.st_read_error);
      ]
    ~good:(P.Write { pba = 0; payload = "in range" })

(* A well-formed burn on line 5 that names line 3: the whole-device
   Audit (a shallow scan) must convict it as Audit_line does. *)
let test_audit_forged_claim () =
  let dev, _, server = mkserver () in
  let lay = Sero.Device.layout dev in
  Sero.Device.unsafe_forge_burn dev
    ~hash_pba:(Sero.Layout.hash_block_of_line lay 5)
    ~data_pbas:(Sero.Layout.data_blocks_of_line lay 5)
    ~claim_line:3;
  let s = Host.Server.session server ~tenant:7 in
  let line = Host.Server.call s (P.Audit_line { line = 5 }) in
  Alcotest.(check (list int))
    "audit-line" [ P.st_ok; P.st_tampered ] line.P.r_phases;
  let all = Host.Server.call s P.Audit in
  Alcotest.(check (list int)) "audit" [ P.st_ok; P.st_tampered ] all.P.r_phases;
  let payload = all.P.r_payload and needle = "tampered=1" in
  let n = String.length needle in
  let rec has i =
    i + n <= String.length payload
    && (String.sub payload i n = needle || has (i + 1))
  in
  Alcotest.(check bool) (Printf.sprintf "payload %S" payload) true (has 0)

(* {1 Single-tenant equivalence}

   The law the host layer must not break: one tenant through
   [Server.call] observes byte-identical payloads, hashes, verdicts and
   completion order to the queue's own [Queue.await] — and leaves
   a byte-identical device image behind. *)

type op = OpR of int | OpW of int * string | OpH of int * float | OpV of int

let gen_op =
  QCheck.Gen.(
    let pba = map (fun i -> 9 + (i mod 32)) (0 -- 1000) in
    let line = map (fun i -> 1 + (i mod 4)) (0 -- 1000) in
    oneof
      [
        map (fun pba -> OpR pba) pba;
        map2 (fun pba s -> OpW (pba, s)) pba (string_size ~gen:printable (1 -- 32));
        map2 (fun line i -> OpH (line, float_of_int i /. 8.)) line (1 -- 64);
        map (fun line -> OpV line) line;
      ])

let arb_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | OpR p -> Printf.sprintf "R%d" p
             | OpW (p, s) -> Printf.sprintf "W%d:%S" p s
             | OpH (l, t) -> Printf.sprintf "H%d@%g" l t
             | OpV l -> Printf.sprintf "V%d" l)
           ops))
    QCheck.Gen.(list_size (1 -- 16) gen_op)

let image_bytes dev =
  let path = Filename.temp_file "sero_equiv" ".img" in
  Sero.Image.save dev path;
  let s = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  s

let host_equivalence =
  QCheck.Test.make ~name:"single tenant == sync facade (byte-identical)"
    ~count:40 arb_ops (fun ops ->
      (* Host side. *)
      let dev_h, _, server = mkserver () in
      let s = Host.Server.session server ~tenant:7 in
      let host_results =
        List.map
          (fun op ->
            let cmd =
              match op with
              | OpR pba -> P.Read { pba }
              | OpW (pba, payload) -> P.Write { pba; payload }
              | OpH (line, ts) -> P.Heat { line; timestamp = Some ts }
              | OpV line -> P.Verify { line }
            in
            Host.Server.call s cmd)
          ops
      in
      (* Direct side: Queue.await on a twin device. *)
      let dev_d = mkdev () in
      prefill dev_d;
      let q_d = Sero.Queue.create (Sim.Des.create ()) dev_d in
      let ok =
        List.for_all2
          (fun op r ->
            match op with
            | OpR pba -> (
                match
                  Sero.Queue.await q_d (fun k ->
                      Sero.Queue.submit_read q_d ~pba k)
                with
                | Ok payload ->
                    r.P.r_phases = [ P.st_ok; P.st_ok ]
                    && String.equal r.P.r_payload payload
                | Error _ -> r.P.r_phases = [ P.st_ok; P.st_read_error ])
            | OpW (pba, payload) -> (
                match
                  Sero.Queue.await q_d (fun k ->
                      Sero.Queue.submit_write q_d ~pba payload k)
                with
                | Ok () -> r.P.r_phases = [ P.st_ok; P.st_ok ]
                | Error _ -> r.P.r_phases = [ P.st_ok; P.st_write_refused ])
            | OpH (line, timestamp) -> (
                match
                  Sero.Queue.await q_d (fun k ->
                      Sero.Queue.submit_heat_line q_d ~line ~timestamp k)
                with
                | Ok h ->
                    r.P.r_phases = [ P.st_ok; P.st_ok ]
                    && String.equal r.P.r_payload (Hash.Sha256.to_raw h)
                | Error _ -> r.P.r_phases = [ P.st_ok; P.st_heat_refused ])
            | OpV line -> (
                match Sero.Device.verify_line dev_d ~line with
                | Sero.Tamper.Intact -> r.P.r_phases = [ P.st_ok; P.st_ok ]
                | Sero.Tamper.Not_heated ->
                    r.P.r_phases = [ P.st_ok; P.st_not_heated ]
                | Sero.Tamper.Tampered _ ->
                    r.P.r_phases = [ P.st_ok; P.st_tampered ]))
          ops host_results
      in
      (* Completion order: responses arrive in submission order. *)
      let in_order =
        List.mapi (fun i r -> r.P.r_seq = i) host_results
        |> List.for_all Fun.id
      in
      ok && in_order
      && String.equal (image_bytes dev_h) (image_bytes dev_d))

(* {1 Golden fixtures}

   basic.ctrace exercises every status byte a single tenant can see on
   a device target; admission.ctrace interleaves two tenants under
   [--rate 0 --burst 2] so the third command of each bounces with
   REJECTED_RATE.  The conformance test replays them in-process over
   the fixture geometry and diffs [format_replay] output exactly;
   [serotool serve-replay --expect] does the same end-to-end in CI. *)

let basic_frames =
  let fs = ref [] and seq = ref 0 in
  let add cmd =
    fs := { P.tenant = 0; seq = !seq; cmd } :: !fs;
    incr seq
  in
  List.iter
    (fun pba ->
      add (P.Write { pba; payload = Printf.sprintf "golden record %d" pba }))
    [ 9; 10; 11; 12; 13; 14; 15 ];
  add (P.Read { pba = 9 });
  add (P.Read { pba = 100 });
  add (P.Heat { line = 1; timestamp = Some 1.5 });
  add (P.Verify { line = 1 });
  add (P.Verify { line = 2 });
  add (P.Write { pba = 9; payload = "too late" });
  (* Re-heat of an unchanged line is idempotent (OK, same hash); heating
     a blank line is refused (unreadable data blocks). *)
  add (P.Heat { line = 1; timestamp = Some 2.0 });
  add (P.Heat { line = 2; timestamp = Some 2.0 });
  add (P.Array_read { vba = 0 });
  add P.Audit;
  List.rev !fs

let admission_frames =
  let fs = ref [] in
  let add tenant seq cmd = fs := { P.tenant; seq; cmd } :: !fs in
  add 1 0 (P.Write { pba = 9; payload = "tenant 1 record 0" });
  add 2 0 (P.Write { pba = 17; payload = "tenant 2 record 0" });
  add 1 1 (P.Write { pba = 10; payload = "tenant 1 record 1" });
  add 2 1 (P.Write { pba = 18; payload = "tenant 2 record 1" });
  add 1 2 (P.Write { pba = 11; payload = "tenant 1 record 2" });
  add 2 2 (P.Write { pba = 19; payload = "tenant 2 record 2" });
  List.rev !fs

let admission_limits _ =
  { Host.Server.max_depth = max_int; rate = 0.; burst = 2. }

let replay_fresh ?limits_of frames =
  let dev = mkdev () in
  let q = Sero.Queue.create (Sim.Des.create ()) dev in
  let server = Host.Server.create ?limits_of (Host.Server.Device q) in
  Host.Server.format_replay (Host.Server.replay server frames)

(* [dune runtest] runs in the test directory, beside its copy of the
   fixtures; [dune exec test/test_host.exe] runs from the root. *)
let fixture_dir =
  if Sys.file_exists "golden" then "golden" else Filename.concat "test" "golden"

let read_fixture name =
  In_channel.with_open_bin (Filename.concat fixture_dir name)
    In_channel.input_all

let test_golden_basic () =
  let frames = P.parse_trace (read_fixture "basic.ctrace") in
  Alcotest.(check int) "frame count" (List.length basic_frames)
    (List.length frames);
  Alcotest.(check string) "status lines"
    (read_fixture "basic.expected")
    (replay_fresh frames)

let test_golden_admission () =
  let frames = P.parse_trace (read_fixture "admission.ctrace") in
  Alcotest.(check string) "status lines"
    (read_fixture "admission.expected")
    (replay_fresh ~limits_of:admission_limits frames)

(* {1 Fixture regeneration} *)

let trace_text header frames =
  let b = Buffer.create 1024 in
  List.iter (fun l -> Buffer.add_string b ("# " ^ l ^ "\n")) header;
  List.iter
    (fun f ->
      Buffer.add_string b
        (Printf.sprintf "# %s\n%s\n"
           (Format.asprintf "%a" P.pp_frame f)
           (P.to_hex (P.encode_frame f))))
    frames;
  Buffer.contents b

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let regen dir =
  write_file
    (Filename.concat dir "basic.ctrace")
    (trace_text
       [
         "Golden command trace: every single-tenant status byte on a";
         "device target (256 blocks, lines of 8 — serotool mkdev IMG";
         "--blocks 256).  Regenerate with: dune exec test/test_host.exe";
         "-- regen";
       ]
       basic_frames);
  write_file
    (Filename.concat dir "basic.expected")
    (replay_fresh basic_frames);
  write_file
    (Filename.concat dir "admission.ctrace")
    (trace_text
       [
         "Golden admission trace: two tenants, three writes each, under";
         "--rate 0 --burst 2 — the third command of each tenant bounces";
         "with REJECTED_RATE.  Regenerate with: dune exec";
         "test/test_host.exe -- regen";
       ]
       admission_frames);
  write_file
    (Filename.concat dir "admission.expected")
    (replay_fresh ~limits_of:admission_limits admission_frames);
  Printf.printf "regenerated golden fixtures under %s\n" dir

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "regen" then
    regen (if Array.length Sys.argv > 2 then Sys.argv.(2) else "test/golden")
  else
    Alcotest.run "host"
      [
        ( "proto",
          [
            qtest frame_roundtrip;
            qtest frame_stream_roundtrip;
            qtest frame_truncation;
            qtest frame_bad_version;
            qtest hostile_decode;
            qtest response_roundtrip;
            qtest trace_roundtrip;
            qtest encode_frame_oracle;
            qtest encode_response_oracle;
          ] );
        ( "admission",
          [
            Alcotest.test_case "depth limit" `Quick test_depth_limit;
            Alcotest.test_case "rate limit" `Quick test_rate_limit;
          ] );
        ( "arbiter",
          [
            Alcotest.test_case "fairness" `Quick test_fairness;
            Alcotest.test_case "tenant ledgers" `Quick test_tenant_ledgers;
          ] );
        ( "audit-line",
          [
            Alcotest.test_case "device target is queue traffic" `Quick
              test_audit_line_device;
            Alcotest.test_case "volume target attests the quorum" `Quick
              test_audit_line_volume;
            Alcotest.test_case "audit convicts a burn claiming another line"
              `Quick test_audit_forged_claim;
          ] );
        ( "addresses",
          [
            Alcotest.test_case "device target answers with failures" `Quick
              test_out_of_range_device;
            Alcotest.test_case "volume target answers with failures" `Quick
              test_out_of_range_volume;
          ] );
        ("equivalence", [ qtest host_equivalence ]);
        ( "golden",
          [
            Alcotest.test_case "basic conformance" `Quick test_golden_basic;
            Alcotest.test_case "admission conformance" `Quick
              test_golden_admission;
          ] );
      ]
