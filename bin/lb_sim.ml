(* lb_sim — experiment driver reproducing each table/figure of
   Zhu & Hu, "Towards Efficient Load Balancing in Structured P2P
   Systems" (IPDPS 2004).  One subcommand per experiment. *)

module E = P2plb.Experiments
module Chaos = P2plb_chaos.Chaos
module Par = P2plb_sim.Par
module Obs = P2plb_obs.Obs
module Trace = P2plb_obs.Trace
module Registry = P2plb_obs.Registry
module Spantree = P2plb_obs.Spantree
module Timeseries = P2plb_obs.Timeseries

open Cmdliner

let seed_arg =
  let doc = "Random seed (experiments are deterministic in the seed)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

(* Size and parallelism flags must be >= 1: a one-line message and
   exit 2, not an uncaught exception from deep inside a run. *)
let at_least_one flag v =
  if v < 1 then begin
    prerr_endline ("lb_sim: " ^ flag ^ " must be >= 1");
    exit 2
  end
  else v

(* A network larger than its generated topology's end hosts is the
   same kind of usage error: every topology-sized run goes through
   this handler. *)
let sized f =
  match f () with
  | x -> x
  | exception P2plb.Scenario.Too_few_stubs { n_nodes; stub_vertices } ->
    Printf.eprintf
      "lb_sim: --nodes too large: %d overlay nodes need as many stub \
       vertices, the topology has %d\n"
      n_nodes stub_vertices;
    exit 2

let nodes_arg default =
  let doc = "Number of overlay (physical DHT) nodes." in
  Term.(
    const (at_least_one "--nodes")
    $ Arg.(value & opt int default & info [ "nodes"; "n" ] ~docv:"N" ~doc))

let graphs_arg =
  let doc = "Topology instances to aggregate (the paper uses 10)." in
  Term.(
    const (at_least_one "--graphs")
    $ Arg.(value & opt int E.paper_graphs & info [ "graphs" ] ~docv:"G" ~doc))

let pool_arg =
  let doc =
    "Run independent tasks (graph instances, sweep points, fault rows, \
     chaos seeds) on $(docv) domains.  Output — tables, traces, metrics, \
     time-series — is byte-identical for every job count; the default is \
     sequential."
  in
  Term.(
    const (fun jobs -> Par.create ~jobs:(at_least_one "--jobs" jobs))
    $ Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc))

let csv_arg =
  let doc =
    "Also write machine-readable CSV series into $(docv) (created if \
     missing)."
  in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)

(* ---- observability sinks ---------------------------------------------- *)

let trace_out_arg =
  let doc =
    "Write the run's structured trace to $(docv) as JSONL: one event per \
     line, stamped with simulated time, byte-identical across same-seed \
     runs.  Render it with $(b,lb_sim trace-analyze)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let metrics_out_arg =
  let doc =
    "Write the run's metrics registry (sorted, digest-stable \
     $(i,name = value) lines) to $(docv)."
  in
  Arg.(
    value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let series_out_arg =
  let doc =
    "Write the run's per-round load time-series (JSONL, one sample per \
     balancing round, digest-stable) to $(docv), for diffing or plotting \
     outside lb_sim; no subcommand reads it back."
  in
  Arg.(
    value & opt (some string) None & info [ "series-out" ] ~docv:"FILE" ~doc)

let sink_arg =
  Term.(
    const (fun t m s -> (t, m, s))
    $ trace_out_arg $ metrics_out_arg $ series_out_arg)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* Runs [f] with an observability bundle when either sink is requested
   and flushes the sinks afterwards (even if [f] raises), creating
   target directories as needed.  Size errors exit 2 ({!sized}). *)
let sinked f (trace_out, metrics_out, series_out) =
  sized @@ fun () ->
  match (trace_out, metrics_out, series_out) with
  | None, None, None -> f None
  | _ ->
    let obs = Obs.create () in
    Fun.protect
      ~finally:(fun () ->
        let flush_to path write =
          mkdir_p (Filename.dirname path);
          write ~path;
          Printf.eprintf "wrote %s\n" path
        in
        Option.iter
          (fun p -> flush_to p (Trace.write_jsonl (Obs.trace obs)))
          trace_out;
        Option.iter
          (fun p -> flush_to p (Registry.write (Obs.metrics obs)))
          metrics_out;
        Option.iter
          (fun p -> flush_to p (Timeseries.write (Obs.series obs)))
          series_out)
      (fun () -> f (Some obs))

let write_csv dir files =
  mkdir_p dir;
  List.iter
    (fun (name, contents) ->
      let path = Filename.concat dir name in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc contents);
      Printf.eprintf "wrote %s\n" path)
    files

(* ---- the experiment catalogue -------------------------------------------

   One subcommand per {!E.catalogue} entry, offering exactly the flags
   the entry declares, and [all], which runs every entry in catalogue
   order with one observability bundle threaded through. *)

let args_term (e : E.entry) =
  let nodes =
    match e.E.size with
    | E.Fixed -> Term.const 0
    | E.Default n | E.Capped n -> nodes_arg n
  in
  let graphs = if e.E.takes_graphs then graphs_arg else Term.const 1 in
  let pool = if e.E.takes_jobs then pool_arg else Term.const Par.sequential in
  Term.(
    const (fun seed nodes graphs pool -> { E.pool; obs = None; seed; nodes; graphs })
    $ seed_arg $ nodes $ graphs $ pool)

let run_entry (e : E.entry) args csv sinks =
  sinked
    (fun obs ->
      let out = e.E.report { args with E.obs } in
      print_string out.E.text;
      Option.iter (fun dir -> write_csv dir out.E.csv) csv)
    sinks

let run_all seed graphs nodes pool sinks =
  sinked
    (fun obs ->
      List.iteri
        (fun i (e : E.entry) ->
          if i > 0 then print_newline ();
          print_string
            (e.E.report
               { E.pool; obs; seed; nodes = E.entry_nodes e nodes; graphs })
              .E.text)
        E.catalogue)
    sinks

(* ---- bespoke commands ---------------------------------------------------- *)

let do_verify obs seed n_nodes =
  let module Scenario = P2plb.Scenario in
  let module Ktree = P2plb_ktree.Ktree in
  let module Dht = P2plb_chord.Dht in
  let s = Scenario.build ~seed { Scenario.default with n_nodes } in
  let total = Dht.total_load s.Scenario.dht in
  let tree = Ktree.build ~k:2 s.Scenario.dht in
  let step name result =
    match result with
    | Ok () -> Printf.printf "%-40s ok\n" name
    | Error e ->
      Printf.printf "%-40s FAILED: %s\n" name e;
      exit 1
  in
  step "fresh network invariants"
    (P2plb.Invariants.all ~tree ~expected_total:total s.Scenario.dht);
  let r = P2plb.Multiround.run ?obs s in
  Printf.printf "%-40s %d round(s), stop=%s, final heavy=%d\n"
    "load balancing"
    (List.length r.P2plb.Multiround.rounds)
    (P2plb.Multiround.stop_to_string r.P2plb.Multiround.stop)
    r.P2plb.Multiround.final_heavy;
  Ktree.refresh tree s.Scenario.dht;
  step "post-balance invariants"
    (P2plb.Invariants.all ~tree ~expected_total:total s.Scenario.dht);
  Scenario.crash_nodes s (n_nodes / 10);
  Scenario.join_nodes s (n_nodes / 10);
  Ktree.refresh tree s.Scenario.dht;
  step "post-churn invariants"
    (P2plb.Invariants.all ~tree ~expected_total:total s.Scenario.dht);
  print_endline "all checks passed"

let do_chaos ~pool obs base_seed seeds n_nodes max_rounds replay =
  match replay with
  | Some seed ->
    print_string (Chaos.replay ?obs ~n_nodes ~max_rounds ~seed ())
  | None ->
    let r = Chaos.soak ~pool ?obs ~n_nodes ~max_rounds ~seeds ~base_seed () in
    print_string (Chaos.render r);
    if Chaos.failed r then exit 1

let do_scale ~pool obs seed sizes rounds =
  let rows = E.scale_run ~pool ?obs ~seed ~sizes ~rounds () in
  print_string (E.render_scale rows);
  let failed =
    List.filter_map
      (fun r ->
        match r.E.sc_stop with
        | P2plb.Multiround.Violation (round, e) -> Some (r, round, e)
        | Converged | Fixed_point | Budget -> None)
      rows
  in
  List.iter
    (fun (r, round, e) ->
      Printf.printf
        "INVARIANT VIOLATION: %d nodes, %s workload, after round %d: %s\n\
        \  replay: lb_sim scale --sizes %d --rounds %d --seed %d\n"
        r.E.sc_nodes r.E.sc_workload round e r.E.sc_nodes rounds r.E.sc_seed)
    failed;
  if not (List.is_empty failed) then exit 1

let run_chaos seed seeds n rounds replay pool sinks =
  sinked (fun obs -> do_chaos ~pool obs seed seeds n rounds replay) sinks

let run_verify seed n sinks = sinked (fun obs -> do_verify obs seed n) sinks

let run_scale seed sizes rounds pool sinks =
  sinked (fun obs -> do_scale ~pool obs seed sizes rounds) sinks

(* ---- trace analytics ---------------------------------------------------- *)

(* A plain [string] positional, not cmdliner's [file] converter: the
   converter rejects a missing path with its own exit code (124) before
   our code runs, while the contract here is exit 1 with a one-line
   diagnostic for missing and truncated inputs alike. *)
let trace_file_arg =
  let doc = "Trace to render (JSONL, as written by $(b,--trace-out))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let run_trace_analyze file phase round json =
  match Trace.load_jsonl file with
  | Error e ->
    prerr_endline ("trace-analyze: " ^ e);
    exit 1
  | Ok evs -> (
    match Spantree.of_events evs with
    | Error e ->
      prerr_endline ("trace-analyze: " ^ e);
      exit 1
    | Ok forest ->
      if json then print_string (Spantree.to_jsonl ?phase ?round forest)
      else print_string (Spantree.render ?phase ?round forest))

(* ---- convergence -------------------------------------------------------- *)

let run_convergence seed n_nodes max_rounds epsilon_rel chaos_seed json
    series_out =
  sized @@ fun () ->
  let module Scenario = P2plb.Scenario in
  let module Controller = P2plb.Controller in
  let module Multiround = P2plb.Multiround in
  let module Faults = P2plb_sim.Faults in
  let obs = Obs.create () in
  let config = { Controller.default with Controller.epsilon_rel } in
  let faults =
    Option.map
      (fun cs -> Faults.create ~seed:cs (Chaos.derive_config ~seed:cs))
      chaos_seed
  in
  let s = Scenario.build ~seed { Scenario.default with Scenario.n_nodes } in
  let r = Multiround.run ~config ?faults ~obs ~max_rounds s in
  let series = Obs.series obs in
  let samples = Timeseries.samples series in
  if json then print_string (Timeseries.jsonl_of_samples samples)
  else begin
    print_string (Timeseries.render samples);
    Printf.printf "stop: %s\n" (Multiround.stop_to_string r.Multiround.stop);
    Printf.printf "series digest: %s\n" (Timeseries.digest series)
  end;
  Option.iter
    (fun path ->
      mkdir_p (Filename.dirname path);
      Timeseries.write series ~path;
      Printf.eprintf "wrote %s\n" path)
    series_out

(* ---- command set ------------------------------------------------------- *)

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

let entry_cmd (e : E.entry) =
  let csv = if e.E.takes_csv then csv_arg else Term.const None in
  cmd e.E.name e.E.doc Term.(const (run_entry e) $ args_term e $ csv $ sink_arg)

let chaos_cmd =
  let seeds_arg =
    let doc = "Number of consecutive seeds to soak." in
    Arg.(value & opt int 64 & info [ "seeds" ] ~docv:"N" ~doc)
  in
  let rounds_arg =
    let doc = "Maximum balancing rounds per seed." in
    Arg.(value & opt int 3 & info [ "rounds" ] ~docv:"R" ~doc)
  in
  let replay_arg =
    let doc =
      "Replay a single seed verbosely (as named by a failing soak report) \
       instead of soaking."
    in
    Arg.(value & opt (some int) None & info [ "replay" ] ~docv:"SEED" ~doc)
  in
  cmd "chaos"
    "Chaos soak: per-seed randomized crash/loss/duplication/partition mixes, \
     all invariants (incl. VS conservation) checked after every round; exits \
     non-zero naming the first failing seed."
    Term.(
      const run_chaos $ seed_arg $ seeds_arg $ nodes_arg 256 $ rounds_arg
      $ replay_arg $ pool_arg $ sink_arg)

let verify_cmd =
  cmd "verify" "Run whole-system invariant checks through LB and churn."
    Term.(const run_verify $ seed_arg $ nodes_arg 512 $ sink_arg)

let scale_cmd =
  let sizes_arg =
    let doc =
      "Comma-separated overlay sizes to sweep (each runs both the Gaussian \
       and the Pareto workload to convergence)."
    in
    Arg.(
      value & opt (list int) E.scale_sizes & info [ "sizes" ] ~docv:"N,.." ~doc)
  in
  let rounds_arg =
    let doc = "Maximum balancing rounds per run." in
    Arg.(value & opt int 8 & info [ "rounds" ] ~docv:"R" ~doc)
  in
  cmd "scale"
    "Scale tier: run the balancer to convergence at 32k/65k/131k nodes \
     (distance accounting off until this tier checks the proximity \
     claims) and report rounds, residual heavies, moved load."
    Term.(const run_scale $ seed_arg $ sizes_arg $ rounds_arg $ pool_arg $ sink_arg)

let all_cmd =
  cmd "all" "Run every experiment in sequence."
    Term.(
      const run_all $ seed_arg $ graphs_arg $ nodes_arg E.paper_nodes $ pool_arg
      $ sink_arg)

let trace_analyze_cmd =
  let phase_arg =
    let doc =
      "Keep only the span rows named $(docv) (e.g. $(b,phase/vst)); the \
       point-event and hop-cost tables still cover every kept round."
    in
    Arg.(
      value & opt (some string) None & info [ "phase" ] ~docv:"NAME" ~doc)
  in
  let round_arg =
    let doc =
      "Keep only balancing round $(docv): its span rows, point events and \
       hop costs."
    in
    Arg.(value & opt (some int) None & info [ "round" ] ~docv:"R" ~doc)
  in
  let json_arg =
    let doc =
      "Emit the machine-readable JSONL report (byte-stable) instead of \
       tables."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  cmd "trace-analyze"
    "Report a recorded trace: per-round span tables (count, point events, \
     summed numeric attributes such as each phase's messages), point-event \
     counts, and the hop-cost distribution rebuilt from vst/transfer events."
    Term.(
      const run_trace_analyze $ trace_file_arg $ phase_arg $ round_arg
      $ json_arg)

let convergence_cmd =
  let rounds_arg =
    let doc = "Maximum balancing rounds." in
    Arg.(value & opt int 10 & info [ "rounds" ] ~docv:"R" ~doc)
  in
  let epsilon_arg =
    let doc = "Relative balance slack: converged once max/avg <= 1+$(docv)." in
    Arg.(
      value & opt float 0.05 & info [ "epsilon-rel" ] ~docv:"EPS" ~doc)
  in
  let chaos_arg =
    let doc =
      "Run under the chaos fault mix derived from $(docv) (same derivation \
       as $(b,lb_sim chaos))."
    in
    Arg.(
      value & opt (some int) None & info [ "chaos-seed" ] ~docv:"SEED" ~doc)
  in
  let json_arg =
    let doc = "Emit the raw sample JSONL (byte-stable) instead of tables." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  cmd "convergence"
    "Run multi-round balancing and report the per-round load time-series \
     (max/avg utilization, Gini, overloaded fraction, cumulative moved load) \
     plus the convergence verdict."
    Term.(
      const run_convergence $ seed_arg $ nodes_arg E.paper_nodes $ rounds_arg
      $ epsilon_arg $ chaos_arg $ json_arg $ series_out_arg)

let () =
  let info =
    Cmd.info "lb_sim" ~version:"1.0.0"
      ~doc:
        "Reproduction experiments for proximity-aware load balancing in \
         structured P2P systems (Zhu & Hu, IPDPS 2004)"
  in
  let group =
    Cmd.group info
      (List.map entry_cmd E.catalogue
      @ [
          chaos_cmd;
          scale_cmd;
          verify_cmd;
          all_cmd;
          trace_analyze_cmd;
          convergence_cmd;
        ])
  in
  exit (Cmd.eval group)
