type error = No_spare | Slot_healthy | No_source of int

type report = {
  r_slot : int;
  r_old_dev : int;
  r_new_dev : int;
  lines_scanned : int;
  heated_rebuilt : int;
  data_blocks_copied : int;
  blanks_skipped : int;
  unattested_skipped : int list;
  reattest_failed : (int * string) list;
}

exception Abort of error

let bg = Sero.Queue.Background

(* First Ok wins across the agreeing sources; queue-level retry/backoff
   already absorbed transients before an Error surfaces here. *)
let read_from_sources v ~sources ~pba =
  let rec go all_blank = function
    | [] -> if all_blank then `Blank else `Unreadable
    | slot :: rest -> (
        let dev = Volume.dev_of_slot v ~slot in
        match
          Sero.Bcache.read_block (Volume.cache v ~dev) ~prio:bg ~pba
        with
        | Ok payload -> `Data payload
        | Error Sero.Device.Blank -> go all_blank rest
        | Error _ -> go false rest)
  in
  go true sources

let heat_spare v ~spare ~line ~timestamp =
  let q = Volume.queue v ~dev:spare in
  Sero.Queue.await q (fun k ->
      Sero.Queue.submit_heat_line q ~prio:bg ~line ~timestamp k)

(* Copy one local line onto the spare and, when the sources' mini-quorum
   yields a majority burn, re-burn the original hash + timestamp. *)
let rebuild_line v ~slot ~spare ~local acc =
  let m = Volume.map v in
  let vline = Amap.line_of_local m ~slot ~local in
  let lay = Sero.Device.layout (Volume.device v ~dev:spare) in
  let data_pbas = Sero.Layout.data_blocks_of_line lay local in
  let copied = ref 0 and blanks = ref 0 in
  let failed = ref [] and unattested = ref [] and heated = ref 0 in
  let copy_from sources =
    let payloads =
      List.map (fun pba -> (pba, read_from_sources v ~sources ~pba)) data_pbas
    in
    let unreadable =
      List.filter_map
        (fun (pba, r) -> if r = `Unreadable then Some pba else None)
        payloads
    in
    (* Contiguous runs of real data go out as single span requests. *)
    let flush_run start run =
      if run <> [] then
        let arr = Array.of_list (List.rev run) in
        let q = Volume.queue v ~dev:spare in
        Array.iter
          (function
            | Ok () -> incr copied
            | Error e ->
                failed :=
                  ( vline,
                    Format.asprintf "spare refused write: %a"
                      Sero.Device.pp_write_error e )
                  :: !failed)
          (Sero.Queue.await q (fun k ->
               Sero.Queue.submit_write_span q ~prio:bg ~pba:start arr k))
    in
    let rec walk start run = function
      | [] -> flush_run start run
      | (pba, `Data payload) :: rest ->
          if run = [] then walk pba [ payload ] rest
          else walk start (payload :: run) rest
      | (pba, (`Blank | `Unreadable)) :: rest ->
          flush_run start run;
          incr blanks;
          ignore pba;
          walk 0 [] rest
    in
    walk 0 [] payloads;
    unreadable
  in
  (match Quorum.source_meta v ~line:vline ~exclude_slot:slot with
  | `No_source -> raise (Abort (No_source vline))
  | `Majority (meta, agreeing) -> (
      (* Idempotent restart: a spare line already burned from an earlier
         interrupted rebuild is accepted iff it reproduces the majority
         hash; anything else is surfaced, never overwritten. *)
      match Sero.Device.read_hash_block (Volume.device v ~dev:spare) ~line:local with
      | `Burned b ->
          if Hash.Sha256.equal b.Sero.Device.hash meta.Sero.Device.hash then
            incr heated
          else
            failed :=
              (vline, "spare already burned with a different hash") :: !failed
      | `Tampered _ ->
          failed := (vline, "spare line is tamper-evident") :: !failed
      | `Not_heated | `Torn _ -> (
          let unreadable = copy_from agreeing in
          if unreadable <> [] then
            failed :=
              ( vline,
                Printf.sprintf "source data unreadable at %d block(s)"
                  (List.length unreadable) )
              :: !failed
          else
            match
              heat_spare v ~spare ~line:local
                ~timestamp:meta.Sero.Device.timestamp
            with
            | Ok h ->
                if Hash.Sha256.equal h meta.Sero.Device.hash then incr heated
                else
                  failed :=
                    (vline, "re-burn produced a different hash") :: !failed
            | Error e ->
                failed :=
                  ( vline,
                    Format.asprintf "re-burn failed: %a"
                      Sero.Device.pp_heat_error e )
                  :: !failed))
  | `Not_heated sources -> ignore (copy_from sources)
  | `Unattested sources ->
      (* Disputed line: carry the bytes of whoever still answers, but
         burn nothing — re-attesting one side of a tie would forge the
         very evidence the quorum refused to settle. *)
      ignore (copy_from sources);
      unattested := vline :: !unattested);
  {
    acc with
    lines_scanned = acc.lines_scanned + 1;
    heated_rebuilt = acc.heated_rebuilt + !heated;
    data_blocks_copied = acc.data_blocks_copied + !copied;
    blanks_skipped = acc.blanks_skipped + !blanks;
    unattested_skipped = acc.unattested_skipped @ List.rev !unattested;
    reattest_failed = acc.reattest_failed @ List.rev !failed;
  }

let rebuild_slot ?(force = false) v ~slot =
  let old_dev = Volume.dev_of_slot v ~slot in
  let states = Volume.member_states v in
  let healthy =
    states.(old_dev) = Volume.Active
    && Trust.status (Volume.trust v) ~dev:old_dev = Trust.Trusted
  in
  match Volume.spare_pool v with
  | [] -> Error No_spare
  | spare :: _ -> (
      if healthy && not force then Error Slot_healthy
      else begin
        (* An Active-but-suspect source must not vote for its own
           replacement's contents. *)
        if states.(old_dev) = Volume.Active then
          Volume.quarantine_dev v ~dev:old_dev;
        let zero =
          {
            r_slot = slot;
            r_old_dev = old_dev;
            r_new_dev = spare;
            lines_scanned = 0;
            heated_rebuilt = 0;
            data_blocks_copied = 0;
            blanks_skipped = 0;
            unattested_skipped = [];
            reattest_failed = [];
          }
        in
        match
          List.fold_left
            (fun acc local -> rebuild_line v ~slot ~spare ~local acc)
            zero
            (List.init (Volume.map v).Amap.member_lines (fun l -> l))
        with
        | report ->
            Sero.Device.refresh_heated_cache (Volume.device v ~dev:spare);
            Volume.swap_in_spare v ~slot ~spare;
            Volume.note_rebuilt v;
            Volume.log_event v
              (Printf.sprintf
                 "rebuild: slot %d done (%d lines, %d re-burned, %d blocks \
                  copied, %d unattested, %d failed)"
                 slot report.lines_scanned report.heated_rebuilt
                 report.data_blocks_copied
                 (List.length report.unattested_skipped)
                 (List.length report.reattest_failed));
            Ok report
        | exception Abort e -> Error e
      end)

let pp_report ppf r =
  Format.fprintf ppf
    "rebuild slot %d: device %d -> %d, %d lines scanned, %d re-burned, %d \
     blocks copied, %d blanks, %d unattested%s"
    r.r_slot r.r_old_dev r.r_new_dev r.lines_scanned r.heated_rebuilt
    r.data_blocks_copied r.blanks_skipped
    (List.length r.unattested_skipped)
    (match r.reattest_failed with
    | [] -> ""
    | l ->
        Printf.sprintf ", %d REATTEST FAILURES (%s)" (List.length l)
          (String.concat "; "
             (List.map (fun (ln, why) -> Printf.sprintf "line %d: %s" ln why) l)))
