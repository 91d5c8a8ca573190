(* Regenerates every figure and experiment series of the paper; see
   DESIGN.md for the experiment index and EXPERIMENTS.md for the
   paper-vs-measured record. *)

let std = Format.std_formatter

let experiments =
  [
    ("fig1", "Figure 1: MFM read-back, heated dot peak vanishes", Expt.Figures.fig1);
    ("fig2", "Figure 2: bit state transitions", Expt.Figures.fig2);
    ("fig3", "Figure 3: heated-line medium layout", Expt.Figures.fig3);
    ("fig7", "Figure 7: anisotropy vs annealing temperature", Expt.Figures.fig7);
    ("fig8", "Figure 8: low-angle XRD", Expt.Figures.fig8);
    ("fig9", "Figure 9: high-angle XRD", Expt.Figures.fig9);
    ("ops", "E7: operation cost hierarchy", Expt.Ops.print);
    ("heat", "E8: heat cost & overhead vs line size", Expt.Heatcost.print);
    ("security", "E10: attack/outcome matrix", Expt.Security_matrix.print);
    ("worm", "E11: WORM technology comparison", Expt.Worm_compare.print);
    ("archive", "E12: Venti & fossilised index", Expt.Archive.print);
    ("thermal", "E13: neighbour thermal damage", Expt.Thermal_study.print);
    ("coding", "E14: write-once coding efficiency", Expt.Coding.print);
    ("aging", "E15: device lifetime, WMRM shrink to read-only", Expt.Aging.print);
    ("erb", "E16: erb protocol reliability (reproduction finding)", Expt.Erb_study.print);
    ("media", "E17: media reliability vs the sector ECC budget", Expt.Reliability.print);
    ("fault", "E18: fault injection and RAS recovery", Expt.Fault_study.print);
    ("seek", "E19: sled scheduling for random IO", Expt.Seek_study.print);
    ("queue", "E20: request queueing (depth x policy x scrub)", Expt.Queue_study.print);
    ("cache", "E21: buffer cache (size x read-ahead x Zipf skew)", Expt.Cache_study.print);
    ("endure", "E22: endurance lifecycle (health ledger x migration)", Expt.Endurance_study.print);
    ("array", "E23: sharded array (quorum x degraded mode x rebuild)", Expt.Array_study.print);
    ("qos", "E25: multi-tenant QoS (tenants x arbiter under Zipf)", Expt.Qos_study.print);
    ("fleet", "E26: fleet fan-out (CoW clones x PRNG streams)", Expt.Fleet_study.print);
    ("campaign", "E27: insider campaigns vs a bounded audit budget", Expt.Campaign_study.print);
    ("lfs", "E9: LFS clustering/bimodality study (slowest)", Expt.Lfs_study.print);
  ]

let set_jobs = function None -> () | Some n -> Sim.Pool.set_jobs n

let run_one jobs name =
  set_jobs jobs;
  match List.find_opt (fun (n, _, _) -> String.equal n name) experiments with
  | Some (_, _, f) ->
      f std;
      Format.pp_print_flush std ();
      `Ok ()
  | None -> `Error (false, Printf.sprintf "unknown experiment %S" name)

let run_all jobs () =
  set_jobs jobs;
  List.iter
    (fun (name, _, f) ->
      Format.fprintf std "@.===== %s =====@." name;
      f std)
    experiments;
  Format.pp_print_flush std ();
  `Ok ()

open Cmdliner

let jobs_arg =
  let doc =
    "Worker domains for the parallel sweeps (E13, E16, E17, E18).  \
     Defaults to $(b,SERO_JOBS) or the core count; the output is \
     bit-identical for any value."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let list_cmd =
  let doc = "List the available experiments." in
  Cmd.v (Cmd.info "list" ~doc)
    (Term.(
       const (fun () ->
           List.iter
             (fun (n, d, _) -> Printf.printf "%-10s %s\n" n d)
             experiments;
           `Ok ())
       $ const ())
    |> Term.ret)

let run_cmd =
  let name_arg =
    let doc = "Experiment to run (see $(b,list))." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc)
  in
  let doc = "Run one experiment and print its series." in
  Cmd.v (Cmd.info "run" ~doc) Term.(ret (const run_one $ jobs_arg $ name_arg))

let all_cmd =
  let doc = "Run every experiment in order." in
  Cmd.v (Cmd.info "all" ~doc) Term.(ret (const run_all $ jobs_arg $ const ()))

let () =
  let doc = "regenerate the figures and experiments of the SERO paper" in
  let info = Cmd.info "experiments" ~version:"1.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ list_cmd; run_cmd; all_cmd ]))
