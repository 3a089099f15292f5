(* The paper's headline comparison on one network: identical loads
   balanced twice, once with the proximity-aware VSA (landmark vectors
   -> Hilbert keys -> identifier-space rendezvous) and once with the
   proximity-ignorant VSA, then the moved-load-vs-distance CDFs side
   by side.

   Run with: dune exec examples/proximity_comparison.exe *)

module TS = P2plb_topology.Transit_stub
module Histogram = P2plb_metrics.Histogram
module Report = P2plb_metrics.Report
module Scenario = P2plb.Scenario
module Controller = P2plb.Controller

let () =
  let config =
    {
      Scenario.default with
      n_nodes = 768;
      topology = { TS.ts5k_large with TS.mean_stub_size = 20 };
    }
  in
  let run proximity =
    (* Same seed: identical network, loads and landmark space. *)
    let s = Scenario.build ~seed:4242 config in
    let cc = { Controller.default with Controller.proximity } in
    Controller.run ~config:cc s
  in
  let aware = run true and ignorant = run false in

  let ha, _, _ = aware.Controller.census_after in
  let hi, _, _ = ignorant.Controller.census_after in
  Printf.printf
    "both schemes balance (heavy after: aware=%d, ignorant=%d) and move the \
     same load (%.1f%% vs %.1f%%)\n\n"
    ha hi
    (100.0 *. Controller.moved_fraction aware)
    (100.0 *. Controller.moved_fraction ignorant);

  let h_aware = aware.Controller.vst.P2plb.Vst.hist in
  let h_ignorant = ignorant.Controller.vst.P2plb.Vst.hist in
  let rows =
    List.filter_map
      (fun hops ->
        let ca = Histogram.cumulative_fraction h_aware hops in
        let ci = Histogram.cumulative_fraction h_ignorant hops in
        Some
          [
            string_of_int hops;
            Report.percent_cell ca;
            Report.percent_cell ci;
          ])
      [ 1; 2; 4; 6; 8; 10; 14; 18; 22 ]
  in
  print_string
    (Report.table
       ~title:"cumulative share of moved load within N underlay hops"
       ~header:[ "hops"; "proximity-aware"; "proximity-ignorant" ]
       rows);
  Printf.printf
    "\nload-weighted mean transfer distance: aware %.2f hops, ignorant %.2f \
     hops\n"
    (Histogram.mean h_aware) (Histogram.mean h_ignorant);
  print_newline ();
  let cdf h = List.map (fun (b, f) -> (float_of_int b, f)) (Histogram.to_cdf h) in
  print_string
    (Report.ascii_plot ~title:"CDF of moved load vs transfer distance"
       ~x_label:"hops" ~y_label:"CDF"
       ~series:
         [ ("proximity-aware", cdf h_aware); ("proximity-ignorant", cdf h_ignorant) ]
       ())
