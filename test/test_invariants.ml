(* Tests of Multiround, Invariants and Csv: the maintenance/tooling
   layer around the core scheme. *)

module TS = P2plb_topology.Transit_stub
module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree
module Scenario = P2plb.Scenario
module Multiround = P2plb.Multiround
module Invariants = P2plb.Invariants
module Csv = P2plb_metrics.Csv
module Histogram = P2plb_metrics.Histogram
module W = P2plb_workload.Workload
module Obs = P2plb_obs.Obs
module Timeseries = P2plb_obs.Timeseries

let check = Alcotest.check

let small_config =
  {
    Scenario.default with
    n_nodes = 200;
    topology =
      {
        TS.ts5k_large with
        TS.transit_domains = 3;
        transit_nodes_per_domain = 2;
        stub_domains_per_transit = 3;
        mean_stub_size = 15;
      };
  }

(* ---- invariants --------------------------------------------------------- *)

let test_fresh_network_passes_all () =
  let s = Scenario.build ~seed:1 small_config in
  let tree = Ktree.build ~k:2 s.Scenario.dht in
  let total = Dht.total_load s.Scenario.dht in
  (match Invariants.all ~tree ~expected_total:total s.Scenario.dht with
  | Ok () -> ()
  | Error e -> Alcotest.fail e)

let test_invariants_hold_through_lb_and_churn () =
  let s = Scenario.build ~seed:2 small_config in
  let total = Dht.total_load s.Scenario.dht in
  ignore (P2plb.Controller.run s);
  Scenario.crash_nodes s 20;
  Scenario.join_nodes s 20;
  ignore (P2plb.Controller.run s);
  (match Invariants.all ~expected_total:total s.Scenario.dht with
  | Ok () -> ()
  | Error e -> Alcotest.fail e)

(* Churn never crashes a node hosting every VS: two nodes, node 0 takes
   all of node 1's VSs, and crash draws pick node 0 (skipped) or node 1
   (crashed, nothing to absorb) until one node is left. *)
let test_crash_spares_sole_host () =
  let spared = ref 0 in
  for seed = 1 to 8 do
    let s = Scenario.build ~seed { small_config with Scenario.n_nodes = 2 } in
    let dht = s.Scenario.dht in
    List.iter
      (fun v -> Dht.transfer_vs dht ~vs_id:v.Dht.vs_id ~to_node:0)
      (Dht.node dht 1).Dht.vss;
    let total = Dht.total_load dht in
    Scenario.crash_nodes s 1;
    if Dht.n_nodes dht = 2 then incr spared;
    Scenario.crash_nodes s 3;
    check Alcotest.bool "sole host alive" true (Dht.is_alive dht 0);
    match
      Invariants.all ~tree:(Ktree.build ~k:2 dht) ~expected_total:total dht
    with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  done;
  check Alcotest.bool "some draw hit the sole host" true (!spared > 0)

let test_conservation_detects_drift () =
  let s = Scenario.build ~seed:3 small_config in
  let total = Dht.total_load s.Scenario.dht in
  match
    Invariants.load_conservation ~expected_total:(total +. 1.0)
      s.Scenario.dht
  with
  | Ok () -> Alcotest.fail "should have caught the missing load"
  | Error _ -> ()

let test_ring_partition_ok () =
  let s = Scenario.build ~seed:4 small_config in
  check Alcotest.bool "partition" true
    (Result.is_ok (Invariants.ring_partition s.Scenario.dht))

(* ---- vs conservation ---------------------------------------------------- *)

(* Balancing moves virtual servers between owners but never creates or
   destroys one: the snapshot ids all survive a full LB round. *)
let test_vs_conservation_after_balancing () =
  let s = Scenario.build ~seed:9 small_config in
  let dht = s.Scenario.dht in
  let before = Invariants.vs_snapshot dht in
  ignore (P2plb.Controller.run s);
  check Alcotest.bool "owners actually changed" true
    (not (before = Invariants.vs_snapshot dht));
  match Invariants.vs_conservation ~before ~crashes:0 dht with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* Crash absorption is the only legal way for a VS to vanish: the same
   disappearance is a violation with a zero crash budget and fine with
   the budget that explains it. *)
let test_vs_conservation_crash_budget () =
  let s = Scenario.build ~seed:10 small_config in
  let dht = s.Scenario.dht in
  let before = Invariants.vs_snapshot dht in
  Scenario.crash_nodes s 1;
  check Alcotest.bool "a VS was absorbed" true
    (List.length (Invariants.vs_snapshot dht) < List.length before);
  (match Invariants.vs_conservation ~before ~crashes:0 dht with
  | Ok () -> Alcotest.fail "absorbed VS must violate a zero crash budget"
  | Error _ -> ());
  match Invariants.vs_conservation ~before ~crashes:1 dht with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* A VS id that did not exist at snapshot time is a birth (or a
   double-apply): never excused, crash budget or not. *)
let test_vs_conservation_detects_birth () =
  let s = Scenario.build ~seed:11 small_config in
  let dht = s.Scenario.dht in
  let before = Invariants.vs_snapshot dht in
  Scenario.join_nodes s 1;
  match Invariants.vs_conservation ~before ~crashes:5 dht with
  | Ok () -> Alcotest.fail "joined VS must read as a birth"
  | Error _ -> ()

(* ---- multiround --------------------------------------------------------- *)

let test_multiround_converges_gaussian () =
  let s = Scenario.build ~seed:5 small_config in
  let r = Multiround.run s in
  check Alcotest.bool "converged" true r.Multiround.converged;
  check Alcotest.int "no heavy left" 0 r.Multiround.final_heavy;
  check Alcotest.bool "first round does the work" true
    ((List.hd r.Multiround.rounds).Multiround.moved_load
    > 0.9 *. r.Multiround.total_moved)

let test_multiround_pareto_converges_within_cap () =
  let config = { small_config with Scenario.workload = W.default_pareto } in
  let s = Scenario.build ~seed:6 config in
  let r = Multiround.run ~max_rounds:5 s in
  check Alcotest.bool "rounds bounded" true
    (List.length r.Multiround.rounds <= 5);
  check Alcotest.bool "heavy nearly gone" true (r.Multiround.final_heavy <= 3)

let test_multiround_round_indices () =
  let s = Scenario.build ~seed:7 small_config in
  let r = Multiround.run s in
  List.iteri
    (fun i round -> check Alcotest.int "indices sequential" i round.Multiround.index)
    r.Multiround.rounds

let test_multiround_quiescent_network () =
  let s = Scenario.build ~seed:8 small_config in
  ignore (Multiround.run s);
  (* run again on the already-balanced network: one trivial round *)
  let r = Multiround.run s in
  check Alcotest.int "single round" 1 (List.length r.Multiround.rounds);
  check Alcotest.bool "converged" true r.Multiround.converged

(* ---- stop reasons -------------------------------------------------------- *)

let stop_t =
  Alcotest.testable
    (fun fmt stop -> Format.pp_print_string fmt (Multiround.stop_to_string stop))
    (fun a b ->
      match (a, b) with
      | Multiround.Violation (i, e), Multiround.Violation (j, f) ->
        i = j && String.equal e f
      | Converged, Converged | Fixed_point, Fixed_point | Budget, Budget -> true
      | _ -> false)

let pareto = { small_config with Scenario.workload = W.default_pareto }

let test_stop_converged () =
  let r = Multiround.run (Scenario.build ~seed:5 small_config) in
  check stop_t "gaussian converges" Multiround.Converged r.Multiround.stop;
  check Alcotest.bool "converged derived" true r.Multiround.converged

let test_stop_fixed_point () =
  let r = Multiround.run ~max_rounds:10 (Scenario.build ~seed:1 pareto) in
  check stop_t "pareto stalls" Multiround.Fixed_point r.Multiround.stop;
  check Alcotest.bool "heavies remain" true (r.Multiround.final_heavy > 0);
  check Alcotest.int "last round moved nothing" 0
    (List.nth r.Multiround.rounds (List.length r.Multiround.rounds - 1))
      .Multiround.transfers;
  check Alcotest.bool "converged derived" true r.Multiround.converged

let test_stop_budget () =
  let r = Multiround.run ~max_rounds:1 (Scenario.build ~seed:1 pareto) in
  check stop_t "one round is not enough" Multiround.Budget r.Multiround.stop;
  check Alcotest.bool "heavies remain" true (r.Multiround.final_heavy > 0);
  check Alcotest.bool "not converged" false r.Multiround.converged

let test_stop_violation () =
  let r =
    Multiround.run ~max_rounds:5
      ~check:(fun round ->
        if round.Multiround.index = 0 then Error "boom" else Ok ())
      (Scenario.build ~seed:5 small_config)
  in
  check stop_t "first failing check" (Multiround.Violation (0, "boom"))
    r.Multiround.stop;
  check Alcotest.int "stops at once" 1 (List.length r.Multiround.rounds);
  check Alcotest.bool "not converged" false r.Multiround.converged

(* Fault-free, [Converged] (no heavy node) and the time-series
   criterion (max/avg <= 1 + eps) are the same test on the same round. *)
let test_stop_agrees_with_timeseries () =
  List.iter
    (fun (name, config, seed) ->
      let obs = Obs.create () in
      let r = Multiround.run ~obs ~max_rounds:10 (Scenario.build ~seed config) in
      let last = List.length r.Multiround.rounds - 1 in
      let ts_round =
        match Timeseries.convergence (Timeseries.samples (Obs.series obs)) with
        | Timeseries.Converged { c_round; _ } -> Some c_round
        | Timeseries.No_data | Timeseries.Not_converged _ -> None
      in
      let stop_round =
        match r.Multiround.stop with
        | Multiround.Converged -> Some last
        | Fixed_point | Budget | Violation _ -> None
      in
      check
        Alcotest.(option int)
        (Printf.sprintf "%s seed %d" name seed)
        stop_round ts_round)
    (List.concat_map
       (fun seed -> [ ("gaussian", small_config, seed); ("pareto", pareto, seed) ])
       [ 1; 2; 3; 10 ])

(* ---- csv ---------------------------------------------------------------- *)

let test_csv_escaping () =
  check Alcotest.string "plain" "abc" (Csv.escape_field "abc");
  check Alcotest.string "comma" "\"a,b\"" (Csv.escape_field "a,b");
  check Alcotest.string "quote" "\"a\"\"b\"" (Csv.escape_field "a\"b");
  check Alcotest.string "newline" "\"a\nb\"" (Csv.escape_field "a\nb")

let test_csv_to_string () =
  let out = Csv.to_string ~header:[ "x"; "y" ] [ [ "1"; "2" ]; [ "3"; "4" ] ] in
  check Alcotest.string "layout" "x,y\n1,2\n3,4\n" out;
  Alcotest.check_raises "arity"
    (Invalid_argument "Csv.to_string: row arity mismatch") (fun () ->
      ignore (Csv.to_string ~header:[ "x" ] [ [ "1"; "2" ] ]))

let test_csv_histogram () =
  let h = Histogram.create () in
  Histogram.add h ~bin:1 ~weight:1.0;
  Histogram.add h ~bin:3 ~weight:3.0;
  let out = Csv.of_histogram h in
  let lines = String.split_on_char '\n' out |> List.filter (fun l -> not (String.equal l "")) in
  check Alcotest.int "header + 2 bins" 3 (List.length lines);
  check Alcotest.string "header" "bin,weight,fraction,cdf" (List.hd lines)

let test_csv_roundtrip_file () =
  let path = Filename.temp_file "p2plb" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv.write_file ~path ~header:[ "a" ] [ [ "1" ]; [ "2" ] ];
      let ic = open_in path in
      let content = really_input_string ic (in_channel_length ic) in
      close_in ic;
      check Alcotest.string "file content" "a\n1\n2\n" content)

let prop_csv_field_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"escaped fields parse back" ~count:300
       QCheck.printable_string
       (fun s ->
         let e = Csv.escape_field s in
         (* unescape: strip outer quotes, undouble inner *)
         let unescaped =
           if String.length e >= 2 && e.[0] = '"' then begin
             let inner = String.sub e 1 (String.length e - 2) in
             let buf = Buffer.create (String.length inner) in
             let i = ref 0 in
             while !i < String.length inner do
               if inner.[!i] = '"' then incr i;
               if !i < String.length inner then Buffer.add_char buf inner.[!i];
               incr i
             done;
             Buffer.contents buf
           end
           else e
         in
         unescaped = s))

let () =
  Alcotest.run "invariants"
    [
      ( "invariants",
        [
          Alcotest.test_case "fresh network" `Quick
            test_fresh_network_passes_all;
          Alcotest.test_case "post LB+churn" `Quick
            test_invariants_hold_through_lb_and_churn;
          Alcotest.test_case "crash spares the sole host" `Quick
            test_crash_spares_sole_host;
          Alcotest.test_case "detects drift" `Quick
            test_conservation_detects_drift;
          Alcotest.test_case "ring partition" `Quick test_ring_partition_ok;
        ] );
      ( "vs conservation",
        [
          Alcotest.test_case "survives balancing" `Quick
            test_vs_conservation_after_balancing;
          Alcotest.test_case "crash budget" `Quick
            test_vs_conservation_crash_budget;
          Alcotest.test_case "detects birth" `Quick
            test_vs_conservation_detects_birth;
        ] );
      ( "multiround",
        [
          Alcotest.test_case "gaussian converges" `Quick
            test_multiround_converges_gaussian;
          Alcotest.test_case "pareto bounded" `Quick
            test_multiround_pareto_converges_within_cap;
          Alcotest.test_case "indices" `Quick test_multiround_round_indices;
          Alcotest.test_case "quiescent" `Quick
            test_multiround_quiescent_network;
        ] );
      ( "stop reason",
        [
          Alcotest.test_case "converged" `Quick test_stop_converged;
          Alcotest.test_case "fixed point" `Quick test_stop_fixed_point;
          Alcotest.test_case "round budget" `Quick test_stop_budget;
          Alcotest.test_case "violation" `Quick test_stop_violation;
          Alcotest.test_case "agrees with the time-series" `Quick
            test_stop_agrees_with_timeseries;
        ] );
      ( "csv",
        [
          Alcotest.test_case "escaping" `Quick test_csv_escaping;
          Alcotest.test_case "to_string" `Quick test_csv_to_string;
          Alcotest.test_case "histogram" `Quick test_csv_histogram;
          Alcotest.test_case "file roundtrip" `Quick test_csv_roundtrip_file;
          prop_csv_field_roundtrip;
        ] );
    ]
