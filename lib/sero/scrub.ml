type config = {
  correction_threshold : int;
  period : float;
  deep_verify : bool;
}

let default_config =
  { correction_threshold = 6; period = 3600.; deep_verify = false }

type report = {
  lines_swept : int;
  sectors_checked : int;
  rewritten : int;
  unrecoverable : int list;
  tips_remapped : int;
  torn_completed : int list;
  tamper_found : (int * Tamper.verdict) list;
  retired_skipped : int;
}

(* Erased-block detection: a written sector carries header, CRC and RS
   parity, so its image is dense in set bits.  A handful of set bits is
   a blank block that caught stray flips, not a destroyed sector. *)
let effectively_blank b =
  let popcount = ref 0 in
  Bytes.iter
    (fun c ->
      let v = ref (Char.code c) in
      while !v <> 0 do
        v := !v land (!v - 1);
        incr popcount
      done)
    b;
  !popcount < 32

type progress = {
  mutable p_lines_swept : int;
  mutable p_sectors_checked : int;
  mutable p_rewritten : int;
  mutable p_unrecoverable : int list; (* reversed *)
  mutable p_tips_remapped : int;
  mutable p_torn_completed : int list; (* reversed *)
  mutable p_tamper_found : (int * Tamper.verdict) list; (* reversed *)
  mutable p_retired_skipped : int;
}

let progress_create () =
  {
    p_lines_swept = 0;
    p_sectors_checked = 0;
    p_rewritten = 0;
    p_unrecoverable = [];
    p_tips_remapped = 0;
    p_torn_completed = [];
    p_tamper_found = [];
    p_retired_skipped = 0;
  }

let add_remapped p n = p.p_tips_remapped <- p.p_tips_remapped + n

let report_of_progress p =
  {
    lines_swept = p.p_lines_swept;
    sectors_checked = p.p_sectors_checked;
    rewritten = p.p_rewritten;
    unrecoverable = List.rev p.p_unrecoverable;
    tips_remapped = p.p_tips_remapped;
    torn_completed = List.rev p.p_torn_completed;
    tamper_found = List.rev p.p_tamper_found;
    retired_skipped = p.p_retired_skipped;
  }

let sweep_line ?(config = default_config) dev prog ~line =
  let lay = Device.layout dev in
  (* The spare region is the endurance layer's: pristine spares are
     blank by construction and quarantined carcasses are frozen
     evidence — refreshing either would defeat its purpose. *)
  if Layout.is_spare_line lay line then
    prog.p_retired_skipped <- prog.p_retired_skipped + 1
  else begin
  prog.p_lines_swept <- prog.p_lines_swept + 1;
  match Device.read_hash_block dev ~line with
  | `Not_heated ->
      (* WMRM territory: refresh decaying sectors before the RS
         budget runs out. *)
      Layout.iter_data_blocks lay line (fun pba ->
          (* A scratch view, decoded in place — the view is consumed
             before the next device call could overwrite it. *)
          let image = Device.read_raw_view dev ~pba in
          if not (effectively_blank image) then begin
            prog.p_sectors_checked <- prog.p_sectors_checked + 1;
            match Codec.Sector.decode_sub image ~off:0 with
            | Ok d when d.Codec.Sector.pba = pba ->
                (* The scrubber's direct decode bypasses the device read
                   path, so feed the health ledger here too. *)
                Health.note_decode (Device.health dev) ~line
                  ~corrected:d.Codec.Sector.corrected_symbols;
                if
                  d.Codec.Sector.corrected_symbols
                  >= config.correction_threshold
                then begin
                  Device.scrub_rewrite_block dev ~pba
                    d.Codec.Sector.payload;
                  prog.p_rewritten <- prog.p_rewritten + 1
                end
            | Ok _ | Error _ -> (
                (* Undecodable in one shot: give the device's RAS
                   read path (retry + remap) a chance. *)
                match Device.read_block dev ~pba with
                | Ok payload ->
                    Device.scrub_rewrite_block dev ~pba payload;
                    prog.p_rewritten <- prog.p_rewritten + 1
                | Error Device.Blank -> ()
                | Error _ ->
                    prog.p_unrecoverable <- pba :: prog.p_unrecoverable)
          end)
  | `Torn _ -> (
      match Device.heat_line dev ~line () with
      | Ok _ -> prog.p_torn_completed <- line :: prog.p_torn_completed
      | Error _ ->
          prog.p_tamper_found <-
            (line, Tamper.Tampered [ Tamper.Partially_burned ])
            :: prog.p_tamper_found)
  | `Burned _ ->
      if config.deep_verify then (
        match Device.verify_line dev ~line with
        | Tamper.Intact -> ()
        | v -> prog.p_tamper_found <- (line, v) :: prog.p_tamper_found)
  | `Tampered evs ->
      prog.p_tamper_found <-
        (line, Tamper.Tampered evs) :: prog.p_tamper_found
  end

(* ------------------------------------------------------------------ *)
(* Sweep planners                                                      *)

type policy = Sequential | Weakest_first | Sampled of int

type planner = {
  pol : policy;
  pdev : Device.t;
  prng : Sim.Prng.t option;
  mutable todo : int list;
}

let planner ?(policy = Sequential) dev =
  {
    pol = policy;
    pdev = dev;
    prng =
      (match policy with
      | Sampled seed -> Some (Sim.Prng.create seed)
      | Sequential | Weakest_first -> None);
    todo = [];
  }

let refill p =
  let n = Layout.n_lines (Device.layout p.pdev) in
  match p.pol with
  | Sequential -> p.todo <- List.init n Fun.id
  | Weakest_first ->
      (* One full round per refill, weakest margins first: every line is
         still visited each round (no starvation), but the ones closest
         to exhausting their RS budget are verified soonest.  The sort
         is stable with line-ascending input, so ties break low. *)
      let h = Device.health p.pdev in
      p.todo <-
        List.stable_sort
          (fun a b -> compare (Health.margin h ~line:a) (Health.margin h ~line:b))
          (List.init n Fun.id)
  | Sampled _ ->
      (* Memoryless uniform sampling: each slot draws a fresh line from
         the planner's private stream, so an adversary cannot predict
         coverage from the sweep history. *)
      p.todo <- [ Sim.Prng.int (Option.get p.prng) n ]

let planner_position p =
  if p.todo = [] then refill p;
  List.hd p.todo

let planner_next p =
  let line = planner_position p in
  p.todo <- List.tl p.todo;
  line

let pass ?(config = default_config) dev =
  let lay = Device.layout dev in
  let prog = progress_create () in
  (* Remap first so the sweep itself reads through healthy spares. *)
  prog.p_tips_remapped <- Device.service_failed_tips dev;
  for line = 0 to Layout.n_lines lay - 1 do
    sweep_line ~config dev prog ~line
  done;
  report_of_progress prog

let pp_report ppf r =
  Format.fprintf ppf
    "scrub: %d lines, %d sectors checked, %d rewritten, %d unrecoverable, %d \
     tips remapped, %d torn completed, %d tampered, %d retired skipped"
    r.lines_swept r.sectors_checked r.rewritten
    (List.length r.unrecoverable)
    r.tips_remapped
    (List.length r.torn_completed)
    (List.length r.tamper_found)
    r.retired_skipped

let schedule ?(config = default_config) des dev ~on_pass =
  let rec arm () =
    Sim.Des.schedule des ~delay:config.period (fun _ ->
        on_pass (pass ~config dev);
        arm ())
  in
  arm ()
