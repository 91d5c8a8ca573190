type row = {
  clustering : bool;
  in_place : bool;
  snapshots : int;
  heated_fraction : float;
  partially_heated : int;
  collateral_frozen : int;
  updates_blocked : int;
  relocated_blocks : int;
  cleaner_copies : int;
  fs_block_writes : int;
  write_amplification : float;
  wall_s : float;
  utilisation : float list;
}

let run_point ?(strategy = Lfs.Heat.Auto) ~clustering ~snapshots () =
  let device = Sero.Device.default_config ~n_blocks:8192 ~line_exp:3 () in
  let cfg = { Workload.Dbwork.default_config with Workload.Dbwork.snapshots } in
  let r = Workload.Dbwork.run ~strategy ~clustering ~device cfg in
  let s = r.Workload.Dbwork.fs_stats in
  let m = s.Lfs.Fs.metrics in
  let data_segments =
    s.Lfs.Fs.free_segments + s.Lfs.Fs.closed_segments + s.Lfs.Fs.heated_segments
  in
  let user_blocks =
    (m.Lfs.State.user_bytes_written + 511) / 512
  in
  {
    clustering;
    in_place = (strategy = Lfs.Heat.Never_relocate);
    snapshots;
    heated_fraction =
      float_of_int s.Lfs.Fs.heated_segments /. float_of_int (max 1 data_segments);
    partially_heated = s.Lfs.Fs.partially_heated_segments;
    collateral_frozen = m.Lfs.State.collateral_frozen;
    updates_blocked = r.Workload.Dbwork.updates_blocked;
    relocated_blocks = m.Lfs.State.heat_relocations;
    cleaner_copies = m.Lfs.State.cleaner_copies;
    fs_block_writes = m.Lfs.State.fs_block_writes;
    write_amplification =
      float_of_int m.Lfs.State.fs_block_writes /. float_of_int (max 1 user_blocks);
    wall_s = r.Workload.Dbwork.wall;
    utilisation = s.Lfs.Fs.live_utilisation;
  }

let sweep ?(snapshot_counts = [ 2; 4; 8; 16 ]) () =
  List.concat_map
    (fun snapshots ->
      [
        run_point ~clustering:true ~snapshots ();
        run_point ~clustering:false ~snapshots ();
        run_point ~strategy:Lfs.Heat.Never_relocate ~clustering:false
          ~snapshots ();
      ])
    snapshot_counts

let print ppf =
  Format.fprintf ppf
    "E9 — LFS under the DB-snapshot workload: clustering vs single log head@.";
  Format.fprintf ppf "%s@." (String.make 94 '-');
  Format.fprintf ppf
    "  %-6s %-6s %-9s %-9s %-8s %-11s %-8s %-10s %-9s %-7s %-8s@."
    "snaps" "clust" "in-place" "heated%" "partial" "collateral" "blocked"
    "relocated" "cleaner" "W-amp" "wall(s)";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "  %-6d %-6b %-9b %7.1f%% %-8d %-11d %-8d %-10d %-9d %-7.2f %-8.1f@."
        r.snapshots r.clustering r.in_place
        (100. *. r.heated_fraction)
        r.partially_heated r.collateral_frozen r.updates_blocked
        r.relocated_blocks r.cleaner_copies r.write_amplification r.wall_s)
    (sweep ());
  Format.fprintf ppf
    "paper: clustering lets lines be heated in the right place -- no copies,@.";
  Format.fprintf ppf
    "no partially-heated segments, no foreign blocks frozen.  Without it the@.";
  Format.fprintf ppf
    "choice is relocation copies (W-amp) or fragmentation + collateral.@."
