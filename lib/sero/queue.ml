type prio = Foreground | Background

(* A request's scheduling key is the scan offset of its first dot —
   the same key E19 feeds to [Sched.order], so measured service order
   is directly comparable to the estimator. *)
type kind =
  | KRead of { pba : int; k : (string, Device.read_error) result -> unit }
  | KOther of { exec : unit -> unit -> unit }
      (** [exec ()] performs the device operation immediately (the sled
          is committed) and returns the completion thunk that fires the
          caller's callback later. *)

type req = {
  kind : kind;
  rprio : prio;
  tenant : int;
  offset : int;
  submitted : float;
  mutable attempts : int;
      (* Service attempts so far; bounded by [read_retry_limit]. *)
}

type arbiter_view = { av_tenant : int; av_backlog : int; av_oldest : float }

(* What a service pass produced for one request: [Done] fires the
   caller's callback at completion; [Retryable] is a failed read whose
   callback is only fired if the retry budget is spent. *)
type outcome = Done of (unit -> unit) | Retryable of (unit -> unit)

(* One priority class: its pending requests and its completion
   ledger. *)
type cls = {
  mutable pending : req list; (* newest first *)
  latency : Sim.Stats.t;
  wait : Sim.Stats.t;
  mutable energy : float;
  mutable completed : int;
  mutable last_completion : float;
}

(* Per-tenant service ledger.  Service and energy are charged when the
   sled pass runs (a group is single-tenant, see [dispatch]), so an
   installed arbiter sees the work a tenant has consumed *before* it
   chooses the next one — the property fair-share needs. *)
type tenant_stats = {
  mutable t_completed : int;
  mutable t_service : float;
  mutable t_energy : float;
}

type t = {
  des : Sim.Des.t;
  dev : Device.t;
  policy : Probe.Sched.policy;
  coalesce : bool;
  read_retry_limit : int;
  retry_backoff : float;
  mutable busy : bool;
  mutable dispatch_armed : bool;
  mutable current_offset : int;
  fg : cls;
  bg : cls;
  mutable arbiter : (arbiter_view list -> int) option;
  by_tenant : (int, tenant_stats) Hashtbl.t;
  service : Sim.Stats.t;
  depth_hist : Sim.Stats.Histogram.h;
  mutable coalesced : int;
  mutable retry_pending : int;
      (* Retries scheduled on the DES but not yet re-enqueued: [idle]
         must see them or [drain] stops with the request in flight. *)
  mutable retried_reads : int;
  mutable abandoned_reads : int;
}

let cls_create name =
  {
    pending = [];
    latency = Sim.Stats.create ~name:(name ^ " latency") ();
    wait = Sim.Stats.create ~name:(name ^ " wait") ();
    energy = 0.;
    completed = 0;
    last_completion = 0.;
  }

(* Longest coalesced read span, in blocks. *)
let max_span = 8

let create ?(policy = Probe.Sched.Elevator) ?(coalesce = true)
    ?(read_retry_limit = 0) ?(retry_backoff = 1e-4) des dev =
  if read_retry_limit < 0 then
    invalid_arg "Queue.create: read_retry_limit must be >= 0";
  if retry_backoff <= 0. then
    invalid_arg "Queue.create: retry_backoff must be positive";
  {
    des;
    dev;
    policy;
    coalesce;
    read_retry_limit;
    retry_backoff;
    busy = false;
    dispatch_armed = false;
    current_offset = 0;
    fg = cls_create "fg";
    bg = cls_create "bg";
    arbiter = None;
    by_tenant = Hashtbl.create 8;
    service = Sim.Stats.create ~name:"service" ();
    depth_hist = Sim.Stats.Histogram.create ~lo:0. ~hi:64. ~bins:16;
    coalesced = 0;
    retry_pending = 0;
    retried_reads = 0;
    abandoned_reads = 0;
  }

let device t = t.dev
let des t = t.des
let cls t = function Foreground -> t.fg | Background -> t.bg
let set_arbiter t a = t.arbiter <- a

let tenant_ledger t tenant =
  match Hashtbl.find_opt t.by_tenant tenant with
  | Some ts -> ts
  | None ->
      let ts = { t_completed = 0; t_service = 0.; t_energy = 0. } in
      Hashtbl.add t.by_tenant tenant ts;
      ts

let tenants t =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.by_tenant [])

(* Read-only view of a tenant's ledger; [no_tenant] is never written. *)
let no_tenant = { t_completed = 0; t_service = 0.; t_energy = 0. }

let read_ledger t tenant =
  Option.value (Hashtbl.find_opt t.by_tenant tenant) ~default:no_tenant

let tenant_completed t tenant = (read_ledger t tenant).t_completed
let tenant_service t tenant = (read_ledger t tenant).t_service
let tenant_energy t tenant = (read_ledger t tenant).t_energy
let pending t = List.length t.fg.pending + List.length t.bg.pending

let idle t =
  (not t.busy) && t.retry_pending = 0 && t.fg.pending = [] && t.bg.pending = []

let offset_of_pba t pba =
  snd
    (Probe.Tips.locate
       (Probe.Pdevice.tips (Device.pdevice t.dev))
       (Layout.block_first_dot (Device.layout t.dev) pba))

let offset_of_line t line =
  offset_of_pba t (Layout.hash_block_of_line (Device.layout t.dev) line)

(* Remove and return the oldest pending request of [c] that satisfies
   [p]; the others keep their order.  Dispatch takes the head and every
   coalesced read through it. *)
let take_oldest c p =
  match List.find_opt p (List.rev c.pending) with
  | None -> None
  | Some r as taken ->
      c.pending <- List.filter (fun x -> x != r) c.pending;
      taken

(* Arbiter views: one per tenant with pending work in the class, sorted
   by tenant id so the arbiter's input (and thus every downstream
   decision) is deterministic. *)
let views_of pend =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
      match Hashtbl.find_opt tbl r.tenant with
      | None ->
          Hashtbl.add tbl r.tenant
            { av_tenant = r.tenant; av_backlog = 1; av_oldest = r.submitted }
      | Some v ->
          Hashtbl.replace tbl r.tenant
            {
              v with
              av_backlog = v.av_backlog + 1;
              av_oldest = min v.av_oldest r.submitted;
            })
    pend;
  List.sort
    (fun a b -> compare a.av_tenant b.av_tenant)
    (Hashtbl.fold (fun _ v acc -> v :: acc) tbl [])

(* Serve one group: execute the device operations now (they move the
   sled and charge the ledger), then schedule a completion event after
   the measured service time that fires the callbacks and re-arms the
   dispatcher. *)
let rec serve_group t group =
  let pd = Device.pdevice t.dev in
  let t0 = Probe.Pdevice.elapsed pd and e0 = Probe.Pdevice.energy pd in
  let read_outcome k r =
    match r with
    | Ok _ -> Done (fun () -> k r)
    | Error _ -> Retryable (fun () -> k r)
  in
  let outcomes =
    match group with
    | [ { kind = KOther { exec }; _ } ] -> [ Done (exec ()) ]
    | [ { kind = KRead { pba; k }; _ } ] ->
        [ read_outcome k (Device.read_block t.dev ~pba) ]
    | { kind = KRead { pba = first; _ }; _ } :: _ ->
        let results =
          Device.read_blocks t.dev ~pba:first ~n:(List.length group)
        in
        List.mapi
          (fun i r ->
            match r.kind with
            | KRead { k; _ } -> read_outcome k results.(i)
            | KOther _ -> assert false)
          group
    | _ -> assert false
  in
  let dt = Probe.Pdevice.elapsed pd -. t0
  and de = Probe.Pdevice.energy pd -. e0 in
  Sim.Stats.add t.service dt;
  (* Groups are single-tenant (coalescing never crosses tenants), so
     the whole pass is charged to the head's tenant — immediately, not
     at completion, so a fair-share arbiter sees it next dispatch. *)
  (let ts = tenant_ledger t (List.hd group).tenant in
   ts.t_service <- ts.t_service +. dt;
   ts.t_energy <- ts.t_energy +. de);
  t.coalesced <- t.coalesced + List.length group - 1;
  List.iter (fun r -> t.current_offset <- r.offset) group;
  let started = Sim.Des.now t.des in
  Sim.Des.schedule t.des ~delay:dt (fun des ->
      let now = Sim.Des.now des in
      let complete r fire =
        let c = cls t r.rprio in
        Sim.Stats.add c.latency (now -. r.submitted);
        Sim.Stats.add c.wait (started -. r.submitted);
        c.energy <- c.energy +. (de /. float_of_int (List.length group));
        c.completed <- c.completed + 1;
        c.last_completion <- now;
        let ts = tenant_ledger t r.tenant in
        ts.t_completed <- ts.t_completed + 1;
        fire ()
      in
      List.iter2
        (fun r outcome ->
          match outcome with
          | Done fire -> complete r fire
          | Retryable fire ->
              if r.attempts < t.read_retry_limit then begin
                (* Deterministic exponential backoff off the DES clock:
                   backoff * 2^(attempt-1), original submit time kept so
                   latency sees the whole ordeal. *)
                r.attempts <- r.attempts + 1;
                t.retried_reads <- t.retried_reads + 1;
                let delay =
                  t.retry_backoff *. (2. ** float_of_int (r.attempts - 1))
                in
                t.retry_pending <- t.retry_pending + 1;
                Sim.Des.schedule des ~delay (fun _ ->
                    t.retry_pending <- t.retry_pending - 1;
                    enqueue t r)
              end
              else begin
                t.abandoned_reads <-
                  t.abandoned_reads + (if t.read_retry_limit > 0 then 1 else 0);
                complete r fire
              end)
        group outcomes;
      t.busy <- false;
      arm_dispatch t)

(* Pick the next group to serve: the head of [Sched.order] over the
   pending offsets of the preferred class, restarted from the sled's
   current offset.  Re-running the policy on every dispatch reproduces
   the full-batch order head by head (greedy Sstf stays greedy, the
   elevator keeps sweeping from wherever it is, Fifo sees arrival
   order), so the service order of a settled batch equals one
   [Sched.order] call over it — the property the conformance test
   asserts. *)
and dispatch t =
  let c = if t.fg.pending <> [] then t.fg else t.bg in
  if (not t.busy) && c.pending <> [] then begin
    (* With an arbiter installed, the tenant is chosen first (fair share
       across tenants), then the sled policy orders that tenant's
       requests only.  Without one, dispatch is tenant-blind —
       bit-identical to the pre-tenant pipeline. *)
    let eligible =
      match t.arbiter with
      | None -> fun _ -> true
      | Some choose -> (
          match views_of c.pending with
          | [] | [ _ ] -> fun _ -> true
          | vs ->
              let pick = choose vs in
              let tid =
                if List.exists (fun v -> v.av_tenant = pick) vs then pick
                else (List.hd vs).av_tenant
              in
              fun r -> r.tenant = tid)
    in
    let offsets =
      List.fold_left
        (fun acc r -> if eligible r then r.offset :: acc else acc)
        [] c.pending
    in
    let ordered =
      Probe.Sched.order t.policy ~current:t.current_offset offsets
    in
    let head_off = List.hd ordered in
    let head =
      Option.get (take_oldest c (fun r -> r.offset = head_off && eligible r))
    in
    (* Coalesce: absorb follow-up reads that are both next in the
       policy's order and physically consecutive, so the group is a
       prefix of the service order and one sled pass covers it.  Never
       absorb across tenants: the pass is charged to one tenant's
       ledger, and a fair share must not smuggle another tenant's work
       into it. *)
    let group =
      match head.kind with
      | KRead { pba = first; _ } when t.coalesce ->
          let n_blocks = (Device.config t.dev).Device.n_blocks in
          let rec absorb n group last = function
            | _ when n >= max_span -> group
            | [] -> group
            | off :: rest -> (
                let next = last + 1 in
                if next >= n_blocks || off <> offset_of_pba t next then group
                else
                  let wanted r =
                    r.offset = off && r.tenant = head.tenant
                    &&
                    match r.kind with
                    | KRead { pba; _ } -> pba = next
                    | KOther _ -> false
                  in
                  match take_oldest c wanted with
                  | None -> group
                  | Some r -> absorb (n + 1) (r :: group) next rest)
          in
          List.rev (absorb 1 [ head ] first (List.tl ordered))
      | KRead _ | KOther _ -> [ head ]
    in
    t.busy <- true;
    serve_group t group
  end

and arm_dispatch t =
  if (not t.dispatch_armed) && not t.busy then begin
    t.dispatch_armed <- true;
    Sim.Des.schedule t.des ~delay:0. (fun _ ->
        t.dispatch_armed <- false;
        dispatch t)
  end

and enqueue t r =
  let c = cls t r.rprio in
  c.pending <- r :: c.pending;
  Sim.Stats.Histogram.add t.depth_hist
    (float_of_int (pending t + if t.busy then 1 else 0));
  arm_dispatch t

let submit t prio tenant offset kind =
  enqueue t
    {
      kind;
      rprio = prio;
      tenant;
      offset;
      submitted = Sim.Des.now t.des;
      attempts = 1;
    }

let submit_read t ?(prio = Foreground) ?(tenant = 0) ~pba k =
  submit t prio tenant (offset_of_pba t pba) (KRead { pba; k })

let submit_other t prio tenant offset exec =
  submit t prio tenant offset (KOther { exec })

let submit_write t ?(prio = Foreground) ?(tenant = 0) ~pba payload k =
  submit_other t prio tenant (offset_of_pba t pba) (fun () ->
      let r = Device.write_block t.dev ~pba payload in
      fun () -> k r)

let submit_write_span t ?(prio = Foreground) ?(tenant = 0) ~pba payloads k =
  let n = Array.length payloads in
  if n = 0 then invalid_arg "Queue.submit_write_span: empty span";
  if pba < 0 || pba + n > (Device.config t.dev).Device.n_blocks then
    invalid_arg "Queue.submit_write_span: PBA range out of bounds";
  (* One request, one sled pass: the span is a single non-preemptive
     service group, so a write-behind flush of n consecutive dirty
     blocks costs one queue slot instead of n. *)
  submit_other t prio tenant (offset_of_pba t pba) (fun () ->
      let rs =
        Array.mapi (fun i p -> Device.write_block t.dev ~pba:(pba + i) p)
          payloads
      in
      t.coalesced <- t.coalesced + (n - 1);
      fun () -> k rs)

let submit_heat_line t ?(prio = Foreground) ?(tenant = 0) ~line ?timestamp k =
  let timestamp =
    match timestamp with Some ts -> ts | None -> Sim.Des.now t.des
  in
  submit_other t prio tenant (offset_of_line t line) (fun () ->
      let r = Device.heat_line t.dev ~line ~timestamp () in
      fun () -> k r)

let submit_verify_line t ?(prio = Background) ?(tenant = 0) ~line k =
  submit_other t prio tenant (offset_of_line t line) (fun () ->
      let v = Device.verify_line t.dev ~line in
      fun () -> k v)

(* Run [f] every [period] simulated seconds until [stop ()] holds at a
   tick; the body runs before the next tick is scheduled. *)
let every t ~period ~stop f =
  let rec arm () =
    Sim.Des.schedule t.des ~delay:period (fun _ ->
        if not (stop ()) then begin
          f ();
          arm ()
        end)
  in
  arm ()

(* Maintenance traffic rides tenant 0 in the Background class, one
   request outstanding at a time. *)
let schedule_scrub ?config ?planner t ~period ~stop =
  let prog = Scrub.progress_create () in
  let planner =
    match planner with Some p -> p | None -> Scrub.planner t.dev
  in
  let outstanding = ref false in
  every t ~period ~stop (fun () ->
      if not !outstanding then begin
        outstanding := true;
        let line = Scrub.planner_next planner in
        submit_other t Background 0 (offset_of_line t line) (fun () ->
            Scrub.add_remapped prog (Device.service_failed_tips t.dev);
            Scrub.sweep_line ?config t.dev prog ~line;
            fun () -> outstanding := false)
      end);
  prog

let schedule_migration t ~period ~stop =
  let migrated = ref [] in
  let outstanding = ref false in
  every t ~period ~stop (fun () ->
      if not !outstanding then
        match Device.next_due t.dev with
        | None -> ()
        | Some line ->
            outstanding := true;
            submit_other t Background 0 (offset_of_line t line) (fun () ->
                let r =
                  Device.evacuate_line t.dev ~line
                    ~timestamp:(Sim.Des.now t.des) ()
                in
                fun () ->
                  (match r with
                  | Ok m -> migrated := m :: !migrated
                  | Error _ -> ());
                  outstanding := false));
  migrated

let drain t =
  while not (idle t) do
    if not (Sim.Des.step t.des) then
      failwith "Sero.Queue.drain: pending requests but no scheduled event"
  done

let await t submit =
  let cell = ref None in
  submit (fun r -> cell := Some r);
  while Option.is_none !cell do
    if not (Sim.Des.step t.des) then
      failwith "Sero.Queue.await: request cannot complete (empty DES)"
  done;
  Option.get !cell

let latency t prio = (cls t prio).latency
let wait t prio = (cls t prio).wait
let service t = t.service
let energy_spent t prio = (cls t prio).energy
let completed t prio = (cls t prio).completed
let last_completion t prio = (cls t prio).last_completion
let depth_histogram t = t.depth_hist
let coalesced_requests t = t.coalesced
let retried_reads t = t.retried_reads
let abandoned_reads t = t.abandoned_reads

let pp_summary ppf t =
  let pc name c =
    let p50, p95, p99 = Sim.Stats.quantiles c.latency in
    Format.fprintf ppf
      "  %s: %d done, lat p50=%.4g p95=%.4g p99=%.4g s, wait mean=%.4g s, \
       %.3g J@."
      name c.completed p50 p95 p99 (Sim.Stats.mean c.wait) c.energy
  in
  Format.fprintf ppf "queue [%a]: %d pending, %d coalesced, service mean=%.4g s@."
    Probe.Sched.pp_policy t.policy (pending t) t.coalesced
    (Sim.Stats.mean t.service);
  if t.read_retry_limit > 0 then
    Format.fprintf ppf "  retries: %d re-served, %d abandoned@."
      t.retried_reads t.abandoned_reads;
  pc "fg" t.fg;
  pc "bg" t.bg;
  match tenants t with
  | [] | [ 0 ] -> ()
  | ts ->
      List.iter
        (fun tid ->
          Format.fprintf ppf "  tenant %d: %d done, service %.4g s, %.3g J@."
            tid (tenant_completed t tid) (tenant_service t tid)
            (tenant_energy t tid))
        ts
