type member_state = Active | Lost | Quarantined_member

type config = {
  slots : int;
  replication : int;
  spares : int;
  member_blocks : int;
  line_exp : int;
  seed : int;
  endurance : Sero.Device.endurance;
  policy : Probe.Sched.policy;
  read_retry_limit : int;
  retry_backoff : float;
  cache_capacity : int option;
}

let default_config ?(slots = 4) ?(replication = 2) ?(spares = 1)
    ?(member_blocks = 128) ?(line_exp = 3) ?(seed = 42)
    ?(endurance = Sero.Device.active_endurance) ?(cache_capacity = Some 32) ()
    =
  {
    slots;
    replication;
    spares;
    member_blocks;
    line_exp;
    seed;
    endurance;
    policy = Probe.Sched.Elevator;
    read_retry_limit = 2;
    retry_backoff = 1e-4;
    cache_capacity;
  }

type entry = { e_dev : Sero.Device.t; e_q : Sero.Queue.t; e_bc : Sero.Bcache.t }

type t = {
  cfg : config;
  map : Amap.t;
  members : entry array;  (** Indexed by device; slots + spares. *)
  slot_dev : int array;
  mutable spare_pool : int list;
  states : member_state array;
  trust : Trust.t;
  verified : (int * int, bool) Hashtbl.t;
      (** Read-time verification verdicts per (device, local line);
          invalidated by the device's own mutation listeners. *)
  mutable ops : int;
  mutable pending : Fault.Plan.timed_event list;
  mutable reads : int;
  mutable writes : int;
  mutable heats : int;
  mutable degraded_reads : int;
  mutable read_rejects : int;
  mutable rebuilds : int;
}

let cfg v = v.cfg
let map v = v.map
let trust v = v.trust
let n_devices v = Array.length v.members

let check_dev v dev =
  if dev < 0 || dev >= n_devices v then
    invalid_arg (Printf.sprintf "Volume: device %d out of range" dev)

let device v ~dev =
  check_dev v dev;
  v.members.(dev).e_dev

let queue v ~dev =
  check_dev v dev;
  v.members.(dev).e_q

let cache v ~dev =
  check_dev v dev;
  v.members.(dev).e_bc

let check_slot v slot =
  if slot < 0 || slot >= v.cfg.slots then
    invalid_arg (Printf.sprintf "Volume: slot %d out of range" slot)

let dev_of_slot v ~slot =
  check_slot v slot;
  v.slot_dev.(slot)

let slot_of_dev v ~dev =
  check_dev v dev;
  let found = ref None in
  Array.iteri (fun s d -> if d = dev && !found = None then found := Some s)
    v.slot_dev;
  !found

let spare_pool v = v.spare_pool
let member_states v = Array.copy v.states

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let wrap_device cfg dev =
  let des = Sim.Des.create () in
  let q =
    Sero.Queue.create ~policy:cfg.policy
      ~read_retry_limit:cfg.read_retry_limit ~retry_backoff:cfg.retry_backoff
      des dev
  in
  let capacity = Option.value cfg.cache_capacity ~default:0 in
  { e_dev = dev; e_q = q; e_bc = Sero.Bcache.create ~capacity q }

let make_map cfg lay =
  Amap.create ~slots:cfg.slots ~replication:cfg.replication
    ~member_lines:(Sero.Layout.usable_lines lay)
    ~blocks_per_line:(Sero.Layout.blocks_per_line lay)

let member_config cfg i =
  let base =
    Sero.Device.default_config ~n_blocks:cfg.member_blocks
      ~line_exp:cfg.line_exp ()
  in
  {
    base with
    Sero.Device.seed = cfg.seed + i;
    ras = Sero.Device.active_ras;
    endurance = cfg.endurance;
  }

(* Any medium mutation (writes, burns, torn completions, the attacker
   surface) drops the affected lines' cached read-time verdicts, so the
   next read through the volume re-verifies exactly what changed. *)
let arm_verify_invalidation v =
  let bpl = v.map.Amap.blocks_per_line in
  Array.iteri
    (fun dev e ->
      Sero.Device.add_mutation_listener e.e_dev (fun ~pba ~n ->
          for local = pba / bpl to (pba + n - 1) / bpl do
            Hashtbl.remove v.verified (dev, local)
          done))
    v.members;
  v

let of_devices cfg ~devices ~slot_dev ~spare_pool ~states =
  let n = Array.length devices in
  if n < cfg.slots then invalid_arg "Volume.of_devices: too few devices";
  if Array.length slot_dev <> cfg.slots then
    invalid_arg "Volume.of_devices: slot_dev length <> slots";
  if Array.length states <> n then
    invalid_arg "Volume.of_devices: states length <> devices";
  (* Every slot and every pooled spare names its own device. *)
  let claimed = Array.make n false in
  let claim what d =
    if d < 0 || d >= n then
      invalid_arg (Printf.sprintf "Volume.of_devices: %s range" what);
    if claimed.(d) then
      invalid_arg
        (Printf.sprintf "Volume.of_devices: device %d named twice" d);
    claimed.(d) <- true
  in
  Array.iter (claim "slot_dev") slot_dev;
  List.iter (claim "spare") spare_pool;
  let lay0 = Sero.Device.layout devices.(0) in
  Array.iter
    (fun d ->
      let lay = Sero.Device.layout d in
      if
        Sero.Layout.usable_lines lay <> Sero.Layout.usable_lines lay0
        || Sero.Layout.blocks_per_line lay <> Sero.Layout.blocks_per_line lay0
      then invalid_arg "Volume.of_devices: member geometry mismatch")
    devices;
  let members = Array.map (wrap_device cfg) devices in
  arm_verify_invalidation
    {
      cfg;
      map = make_map cfg lay0;
      members;
      slot_dev = Array.copy slot_dev;
      spare_pool;
      states = Array.copy states;
      trust = Trust.create ~devices:n;
      verified = Hashtbl.create 64;
      ops = 0;
      pending = [];
      reads = 0;
      writes = 0;
      heats = 0;
      degraded_reads = 0;
      read_rejects = 0;
      rebuilds = 0;
    }

let create cfg =
  if cfg.spares < 0 then invalid_arg "Volume.create: spares < 0";
  let n = cfg.slots + cfg.spares in
  of_devices cfg
    ~devices:(Array.init n (fun i -> Sero.Device.create (member_config cfg i)))
    ~slot_dev:(Array.init cfg.slots Fun.id)
    ~spare_pool:(List.init cfg.spares (fun i -> cfg.slots + i))
    ~states:(Array.make n Active)

(* ------------------------------------------------------------------ *)
(* Member state                                                        *)

let serving_dev v dev =
  v.states.(dev) = Active && Trust.status v.trust ~dev <> Trust.Quarantined

let serving v slot = serving_dev v v.slot_dev.(slot)

let writable v slot =
  serving v slot
  && Sero.Device.device_state v.members.(v.slot_dev.(slot)).e_dev
     <> Sero.Device.Read_only

let serving_slots v ~line =
  let order = List.filter (serving v) (Amap.read_order v.map line) in
  (* Trusted replicas answer first; Suspect ones are the fallback. *)
  let trusted, suspect =
    List.partition
      (fun s -> Trust.status v.trust ~dev:v.slot_dev.(s) = Trust.Trusted)
      order
  in
  trusted @ suspect

type volume_state = Optimal | Degraded | Critical

let volume_state v =
  let all = ref true and dead_group = ref false in
  for g = 0 to Amap.groups v.map - 1 do
    let n =
      List.length
        (List.filter (serving v)
           (List.init v.cfg.replication (fun i -> (g * v.cfg.replication) + i)))
    in
    if n = 0 then dead_group := true;
    if n < v.cfg.replication then all := false
  done;
  if !dead_group then Critical else if !all then Optimal else Degraded

let pp_volume_state ppf s =
  Format.pp_print_string ppf
    (match s with
    | Optimal -> "optimal"
    | Degraded -> "degraded"
    | Critical -> "critical")

let pp_member_state ppf s =
  Format.pp_print_string ppf
    (match s with
    | Active -> "active"
    | Lost -> "lost"
    | Quarantined_member -> "quarantined")

let fail_slot v ~slot =
  let dev = dev_of_slot v ~slot in
  if v.states.(dev) = Active then v.states.(dev) <- Lost

let quarantine_dev v ~dev =
  check_dev v dev;
  if v.states.(dev) <> Quarantined_member then begin
    v.states.(dev) <- Quarantined_member;
    Trust.quarantine v.trust ~dev
  end

(* ------------------------------------------------------------------ *)
(* Fault plan clock                                                    *)

let ops v = v.ops

let apply_event v (e : Fault.Plan.array_event) =
  match e with
  | Fault.Plan.Member_loss { member } -> fail_slot v ~slot:member
  | Fault.Plan.Replica_tamper { member; line } ->
      (* [member] is a replica ordinal within the line's mirror group,
         so the attack always lands on a device that actually holds a
         replica of [line]. *)
      let slot = List.nth (Amap.slots_of_line v.map line) member in
      let dev = dev_of_slot v ~slot in
      let d = v.members.(dev).e_dev in
      let lay = Sero.Device.layout d in
      let pba = Sero.Layout.first_data_block lay (Amap.local_line v.map line) in
      (* The attacker's mws: rewrite one replica's data block under its
         burned hash.  Mutation listeners fire, so the member's cache
         cannot mask the verdict. *)
      Sero.Device.unsafe_write_block d ~pba
        (Printf.sprintf "tampered replica: slot %d line %d" slot line);
      Sero.Device.refresh_heated_cache d

let tick v =
  let rec fire = function
    | ({ Fault.Plan.at_op; event } : Fault.Plan.timed_event) :: rest
      when at_op <= v.ops ->
        apply_event v event;
        fire rest
    | rest -> v.pending <- rest
  in
  fire v.pending;
  v.ops <- v.ops + 1

let install_plan v events =
  List.iter
    (fun ({ Fault.Plan.at_op; event } : Fault.Plan.timed_event) ->
      if at_op < 0 then invalid_arg "Volume.install_plan: at_op < 0";
      match event with
      | Fault.Plan.Member_loss { member } ->
          if member < 0 || member >= v.cfg.slots then
            invalid_arg "Volume.install_plan: event member out of range"
      | Fault.Plan.Replica_tamper { member; line } ->
          if line < 0 || line >= Amap.logical_lines v.map then
            invalid_arg "Volume.install_plan: tamper line out of range";
          if member < 0 || member >= v.cfg.replication then
            invalid_arg "Volume.install_plan: tamper replica out of range")
    events;
  v.pending <-
    List.stable_sort
      (fun (a : Fault.Plan.timed_event) b -> compare a.at_op b.at_op)
      events

(* ------------------------------------------------------------------ *)
(* Volume IO                                                           *)

type replica_fault =
  | Device_error of Sero.Device.read_error
  | Failed_verify

type read_error =
  | Volume_blank
  | Volume_offline
  | Replica_errors of (int * replica_fault) list

type write_error =
  | No_writable_replica
  | Rejected of Sero.Device.write_error

type heat_error =
  | Heat_offline
  | Replica_heat_errors of (int * Sero.Device.heat_error) list
  | Heat_diverged of (int * Hash.Sha256.t) list

(* Verify-on-first-read: a replica of a heated line must pass local
   verification before the volume serves its data, so a tampered
   replica never leaks wrong bytes — even if its mirrors (and their
   audit evidence) die later.  Verdicts are cached per (device, local
   line) and dropped by mutation listeners, so a line re-verifies
   exactly when its medium changed.  No trust charge here: read-time
   rejection is triage; convictions stay the quorum's job. *)
let replica_cleared v ~dev ~local =
  match Hashtbl.find_opt v.verified (dev, local) with
  | Some ok -> ok
  | None ->
      let ok =
        match
          Sero.Device.read_hash_block v.members.(dev).e_dev ~line:local
        with
        | `Not_heated -> true
        | `Burned _ ->
            Sero.Bcache.verify_line v.members.(dev).e_bc ~line:local
            = Sero.Tamper.Intact
        | `Torn _ | `Tampered _ -> false
      in
      Hashtbl.replace v.verified (dev, local) ok;
      ok

let read_block ?(tenant = 0) v ~vba =
  tick v;
  v.reads <- v.reads + 1;
  let line = Amap.line_of_vba v.map vba in
  let local = Amap.local_line v.map line in
  let pba = Amap.member_pba v.map ~vba in
  let preferred = Amap.preferred_slot v.map line in
  match serving_slots v ~line with
  | [] -> Error Volume_offline
  | order ->
      let rec go errs = function
        | [] ->
            let errs = List.rev errs in
            if
              List.for_all
                (fun (_, e) -> e = Device_error Sero.Device.Blank)
                errs
            then Error Volume_blank
            else Error (Replica_errors errs)
        | slot :: rest ->
            let dev = v.slot_dev.(slot) in
            if not (replica_cleared v ~dev ~local) then begin
              v.read_rejects <- v.read_rejects + 1;
              go ((slot, Failed_verify) :: errs) rest
            end
            else (
              match
                Sero.Bcache.read_block ~tenant v.members.(dev).e_bc ~pba
              with
              | Ok payload ->
                  if slot <> preferred then
                    v.degraded_reads <- v.degraded_reads + 1;
                  Ok payload
              | Error e -> go ((slot, Device_error e) :: errs) rest)
      in
      go [] order

let write_block ?(tenant = 0) v ~vba payload =
  tick v;
  v.writes <- v.writes + 1;
  let line = Amap.line_of_vba v.map vba in
  let pba = Amap.member_pba v.map ~vba in
  let targets = List.filter (writable v) (Amap.slots_of_line v.map line) in
  let wrote = ref 0 and refusal = ref None in
  List.iter
    (fun slot ->
      match
        Sero.Bcache.write_block ~tenant v.members.(v.slot_dev.(slot)).e_bc ~pba
          payload
      with
      | Ok () -> incr wrote
      | Error Sero.Device.Read_only_device -> ()
      | Error e -> if !refusal = None then refusal := Some e)
    targets;
  if !wrote > 0 then Ok ()
  else
    match !refusal with
    | Some e -> Error (Rejected e)
    | None -> Error No_writable_replica

let heat_line ?(tenant = 0) v ~line ?timestamp () =
  tick v;
  v.heats <- v.heats + 1;
  let local = Amap.local_line v.map line in
  match List.filter (serving v) (Amap.slots_of_line v.map line) with
  | [] -> Error Heat_offline
  | targets ->
      (* One shared timestamp: the burned areas must be byte-comparable
         across the mirror group, and the timestamp is part of the
         burned metadata. *)
      let ts =
        match timestamp with
        | Some t -> t
        | None ->
            Probe.Pdevice.elapsed
              (Sero.Device.pdevice
                 v.members.(v.slot_dev.(List.hd targets)).e_dev)
      in
      let results =
        List.map
          (fun slot ->
            let dev = v.slot_dev.(slot) in
            let r =
              match
                Sero.Bcache.heat_line ~tenant v.members.(dev).e_bc ~line:local
                  ~timestamp:ts ()
              with
              | Ok h -> Ok h
              | Error Sero.Device.Already_heated -> (
                  (* A crash between replicas leaves some already burned;
                     idempotent restart is fine iff the old burn matches. *)
                  match
                    Sero.Device.read_hash_block v.members.(dev).e_dev
                      ~line:local
                  with
                  | `Burned m -> Ok m.Sero.Device.hash
                  | _ -> Error Sero.Device.Already_heated)
              | Error e -> Error e
            in
            (slot, r))
          targets
      in
      let errs =
        List.filter_map
          (fun (s, r) -> match r with Error e -> Some (s, e) | Ok _ -> None)
          results
      in
      if errs <> [] then Error (Replica_heat_errors errs)
      else
        let hashes =
          List.filter_map
            (fun (s, r) -> match r with Ok h -> Some (s, h) | _ -> None)
            results
        in
        let _, h0 = List.hd hashes in
        if List.for_all (fun (_, h) -> Hash.Sha256.equal h h0) hashes then
          Ok h0
        else Error (Heat_diverged hashes)

let is_line_heated v ~line =
  let local = Amap.local_line v.map line in
  List.exists
    (fun slot ->
      Sero.Device.is_line_heated v.members.(v.slot_dev.(slot)).e_dev
        ~line:local)
    (List.filter (serving v) (Amap.slots_of_line v.map line))

let flush v = Array.iter (fun e -> Sero.Bcache.sync e.e_bc) v.members

(* ------------------------------------------------------------------ *)
(* Rebuild bookkeeping                                                 *)

let swap_in_spare v ~slot ~spare =
  check_dev v spare;
  if not (List.mem spare v.spare_pool) then
    invalid_arg "Volume.swap_in_spare: device is not a pooled spare";
  check_slot v slot;
  v.spare_pool <- List.filter (fun d -> d <> spare) v.spare_pool;
  v.slot_dev.(slot) <- spare;
  v.states.(spare) <- Active;
  Trust.reset v.trust ~dev:spare

let note_rebuilt v = v.rebuilds <- v.rebuilds + 1

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

type stats = {
  v_state : volume_state;
  devices : int;
  active_members : int;
  spares_left : int;
  logical_lines : int;
  data_blocks : int;
  heated_lines : int;
  reads : int;
  writes : int;
  heats : int;
  degraded_reads : int;
  read_rejects : int;
  rebuilds : int;
}

let stats v =
  let heated = ref 0 in
  for line = 0 to Amap.logical_lines v.map - 1 do
    if is_line_heated v ~line then incr heated
  done;
  {
    v_state = volume_state v;
    devices = n_devices v;
    active_members =
      Array.fold_left
        (fun acc s -> if s = Active then acc + 1 else acc)
        0 v.states;
    spares_left = List.length v.spare_pool;
    logical_lines = Amap.logical_lines v.map;
    data_blocks = Amap.n_blocks v.map;
    heated_lines = !heated;
    reads = v.reads;
    writes = v.writes;
    heats = v.heats;
    degraded_reads = v.degraded_reads;
    read_rejects = v.read_rejects;
    rebuilds = v.rebuilds;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "volume %a: %d devices (%d active, %d spare), %d lines (%d heated), %d \
     data blocks@ io: %d reads (%d degraded, %d verify-rejected), %d \
     writes, %d heats, %d rebuilds"
    pp_volume_state s.v_state s.devices s.active_members s.spares_left
    s.logical_lines s.heated_lines s.data_blocks s.reads s.degraded_reads
    s.read_rejects s.writes s.heats s.rebuilds
