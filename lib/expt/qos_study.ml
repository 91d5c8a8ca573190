(* E25 — multi-tenant QoS: tenant count x arbiter policy under Zipf
   traffic through the host front-end.

   Tenant 1 is the light tenant (one closed-loop client stream);
   every other tenant is heavy (8 streams each, same think time, so 8x
   the offered load).  Each cell is fully self-seeded — own device,
   DES clock, queue, host server and PRNGs — so the sweep fans out
   over Sim.Pool with byte-identical output for any -j. *)

let think_s = 0.005
let heavy_streams = 8
let zipf_theta = 0.9

type row = {
  cell : string;
  policy : string;
  n_tenants : int;
  tenant : int;
  streams : int;
  completed : int;
  rejected : int;
  read_p50_ms : float;
  read_p95_ms : float;
  read_p99_ms : float;
  p99_ms : float;
  energy_j : float;
  service_s : float;
}

let make_device () =
  let dev =
    Sero.Device.create (Sero.Device.default_config ~n_blocks:512 ~line_exp:3 ())
  in
  let lay = Sero.Device.layout dev in
  let data_pbas =
    List.init (Sero.Layout.n_lines lay) Fun.id
    |> List.concat_map (Sero.Layout.data_blocks_of_line lay)
    |> Array.of_list
  in
  let payload_of pba =
    String.init 256 (fun i -> Char.chr ((pba + (7 * i)) land 0xff))
  in
  Array.iter
    (fun pba ->
      match Sero.Device.write_block dev ~pba (payload_of pba) with
      | Ok () -> ()
      | Error _ -> assert false)
    data_pbas;
  (dev, data_pbas, payload_of)

(* One cell: [streams_of] maps each tenant to its client stream count,
   [limits_of] to its admission limits; every stream performs [ops]
   closed-loop Zipf operations (2/3 reads) with [think_s] between
   completion and the next submit. *)
let run_streams ~cell ~ops ~policy ~limits_of ~tenants_streams () =
  let dev, data_pbas, payload_of = make_device () in
  let des = Sim.Des.create () in
  let q = Sero.Queue.create des dev in
  let server = Host.Server.create ~limits_of (Host.Server.Device q) in
  Host.Server.set_policy server policy;
  let conts : (int * int, unit -> unit) Hashtbl.t = Hashtbl.create 64 in
  Host.Server.set_on_response server
    (Some
       (fun r ->
         let key = (r.Host.Proto.r_tenant, r.Host.Proto.r_seq) in
         match Hashtbl.find_opt conts key with
         | None -> ()
         | Some k ->
             Hashtbl.remove conts key;
             Sim.Des.schedule des ~delay:think_s (fun _ -> k ())));
  List.iter
    (fun (tenant, streams) ->
      let session = Host.Server.session server ~tenant in
      for stream = 0 to streams - 1 do
        let rng = Sim.Prng.create (0xE25 + (257 * tenant) + stream) in
        let zipf = Workload.Zipf.create ~n:(Array.length data_pbas) ~theta:zipf_theta in
        let issued = ref 0 in
        let rec spawn () =
          if !issued < ops then begin
            incr issued;
            let pba = data_pbas.(Workload.Zipf.sample zipf rng) in
            let cmd =
              if Sim.Prng.bernoulli rng 0.67 then Host.Proto.Read { pba }
              else Host.Proto.Write { pba; payload = payload_of pba }
            in
            (* Register before submitting: a rejection responds
               synchronously inside [submit]. *)
            Hashtbl.replace conts (tenant, Host.Server.next_seq session) spawn;
            ignore (Host.Server.submit session cmd)
          end
        in
        spawn ()
      done)
    tenants_streams;
  Sim.Des.run des;
  Sero.Queue.drain q;
  List.map
    (fun (tenant, streams) ->
      let rep = Host.Server.report server ~tenant in
      {
        cell;
        policy = Host.Arbiter.policy_name policy;
        n_tenants = List.length tenants_streams;
        tenant;
        streams;
        completed = rep.Host.Slo.rep_completed;
        rejected = rep.Host.Slo.rep_rejected_depth + rep.Host.Slo.rep_rejected_rate;
        read_p50_ms = rep.Host.Slo.rep_read_p50_ms;
        read_p95_ms = rep.Host.Slo.rep_read_p95_ms;
        read_p99_ms = rep.Host.Slo.rep_read_p99_ms;
        p99_ms = rep.Host.Slo.rep_p99_ms;
        energy_j = rep.Host.Slo.rep_energy_j;
        service_s = rep.Host.Slo.rep_service_s;
      })
    tenants_streams

let open_limits = Host.Server.default_limits

let run_cell ~ops ~policy ~heavy () =
  let tenants_streams =
    (1, 1) :: List.init heavy (fun i -> (i + 2, heavy_streams))
  in
  let cell =
    if heavy = 0 then "solo"
    else
      Printf.sprintf "%s x%d" (Host.Arbiter.policy_name policy) (heavy + 1)
  in
  run_streams ~cell ~ops ~policy ~limits_of:(fun _ -> open_limits)
    ~tenants_streams ()

(* The admission-control cell: one rate-limited tenant offered far more
   than its token bucket refills, so a deterministic share of its
   submissions bounce with REJECTED_RATE. *)
let run_overload ~ops () =
  let limits_of _ = { Host.Server.max_depth = 8; rate = 10.; burst = 2. } in
  run_streams ~cell:"overload" ~ops ~policy:Host.Arbiter.Tenant_blind
    ~limits_of
    ~tenants_streams:[ (1, 2) ]
    ()

type cell_spec =
  | Solo
  | Contended of Host.Arbiter.policy * int
  | Overload

let specs =
  [
    Solo;
    Contended (Host.Arbiter.Arrival_order, 1);
    Contended (Host.Arbiter.Fair_share (fun _ -> 1.), 1);
    Contended (Host.Arbiter.Arrival_order, 3);
    Contended (Host.Arbiter.Fair_share (fun _ -> 1.), 3);
    Contended (Host.Arbiter.Arrival_order, 7);
    Contended (Host.Arbiter.Fair_share (fun _ -> 1.), 7);
    Overload;
  ]

let default_ops = 40

let sweep ?(ops = default_ops) () =
  Sim.Pool.parallel_map
    (fun spec ->
      match spec with
      | Solo -> run_cell ~ops ~policy:Host.Arbiter.Tenant_blind ~heavy:0 ()
      | Contended (policy, heavy) -> run_cell ~ops ~policy ~heavy ()
      | Overload -> run_overload ~ops ())
    specs
  |> List.concat

type headline = {
  solo_p99_ms : float;
  fifo_p99_ms : float;
  wfs_p99_ms : float;
  fifo_ratio : float;
  wfs_ratio : float;
  overload_rejected : int;
  overload_rejection_pct : float;
}

let light_row rows cell =
  List.find (fun r -> r.cell = cell && r.tenant = 1) rows

let headline_of rows =
  let solo = light_row rows "solo" in
  let fifo = light_row rows "fifo x2" in
  let wfs = light_row rows "wfs x2" in
  let over = light_row rows "overload" in
  let offered = over.completed + over.rejected in
  {
    solo_p99_ms = solo.read_p99_ms;
    fifo_p99_ms = fifo.read_p99_ms;
    wfs_p99_ms = wfs.read_p99_ms;
    fifo_ratio = fifo.read_p99_ms /. solo.read_p99_ms;
    wfs_ratio = wfs.read_p99_ms /. solo.read_p99_ms;
    overload_rejected = over.rejected;
    overload_rejection_pct =
      (if offered = 0 then 0.
       else 100. *. float_of_int over.rejected /. float_of_int offered);
  }

let headline () = headline_of (sweep ())

let print ppf =
  let rows = sweep () in
  Format.fprintf ppf "E25 — multi-tenant QoS: tenants x arbiter under Zipf@.";
  Format.fprintf ppf "%s@." (String.make 78 '-');
  Format.fprintf ppf "  %-9s %-6s %7s %8s %5s %4s %9s %9s %9s %9s@." "cell"
    "policy" "tenant" "streams" "done" "rej" "rp50(ms)" "rp95(ms)" "rp99(ms)"
    "svc(s)";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "  %-9s %-6s %7d %8d %5d %4d %9.2f %9.2f %9.2f %9.4f@." r.cell
        r.policy r.tenant r.streams r.completed r.rejected r.read_p50_ms
        r.read_p95_ms r.read_p99_ms r.service_s)
    rows;
  let h = headline_of rows in
  Format.fprintf ppf
    "light tenant read p99: solo %.2f ms; vs one 8x-heavy tenant: fair-share \
     %.2f ms (%.2fx), arrival-order %.2f ms (%.2fx)@."
    h.solo_p99_ms h.wfs_p99_ms h.wfs_ratio h.fifo_p99_ms h.fifo_ratio;
  Format.fprintf ppf
    "admission control: rate-limited tenant saw %d rejections (%.1f%% of \
     offered) — typed REJECTED_RATE, not silent queueing@."
    h.overload_rejected h.overload_rejection_pct;
  Format.fprintf ppf
    "the sled's service rate is fixed by the physics; fair share at the host@.";
  Format.fprintf ppf
    "is what keeps a light tenant's tail latency from following a heavy@.";
  Format.fprintf ppf "neighbour's backlog.@."
