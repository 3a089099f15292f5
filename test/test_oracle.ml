(* Graph.Oracle: the exact hierarchical distance oracle.

   Three claims under test.  Exactness: on transit-stub underlays
   (random small instances, every pair; the paper's topologies and the
   scale tier's, sampled pairs; both metrics) every distance equals
   what the reference memoising Dijkstra oracle (dijkstra_oracle.ml)
   returns, and with an all-core cluster map the oracle is plain
   Dijkstra on any graph.  The checked precondition: [create] rejects
   a cluster map whose clusters are not single-homed.  The probe
   contract: probes count distinct sources queried, exactly as the
   reference's Dijkstra runs did. *)

module Prng = P2plb_prng.Prng
module Graph = P2plb_topology.Graph
module TS = P2plb_topology.Transit_stub
module Ref = Dijkstra_oracle

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* A connected random graph: a ring (guarantees connectivity, so no
   max_int distances muddy the comparison) plus random chords, with
   random small weights throughout. *)
let random_graph rng ~n ~extra =
  let b = Graph.create_builder ~n in
  for i = 0 to n - 1 do
    Graph.add_edge b i ((i + 1) mod n) ~weight:(1 + Prng.int rng 3)
  done;
  for _ = 1 to extra do
    let u = Prng.int rng n and v = Prng.int rng n in
    if u <> v then Graph.add_edge b u v ~weight:(1 + Prng.int rng 3)
  done;
  Graph.freeze b

let all_core g = Graph.Oracle.create g ~cluster:(Array.make (Graph.n_vertices g) (-1))

(* The hop-metric and latency-metric oracles of a topology. *)
let oracles t =
  let cluster = TS.stub_domain_map t in
  [
    ("hop", t.TS.graph, Graph.Oracle.create t.TS.graph ~cluster);
    ("latency", t.TS.latency_graph, Graph.Oracle.create t.TS.latency_graph ~cluster);
  ]

let test_agrees_with_dijkstra () =
  let rng = Prng.create ~seed:0x0a1e in
  for _ = 1 to 20 do
    let n = 8 + Prng.int rng 25 in
    let g = random_graph rng ~n ~extra:(n / 2) in
    let o = all_core g in
    for _ = 1 to 30 do
      let src = Prng.int rng n and dst = Prng.int rng n in
      check Alcotest.int
        (Printf.sprintf "distance %d -> %d" src dst)
        (Graph.distance g ~src ~dst)
        (Graph.Oracle.distance o ~src ~dst)
    done
  done

(* Small random transit-stub parameters, reaching the corners the
   paper's settings never visit: one-vertex stubs, zero-latency
   intra-stub edges, zero-weight attachments, transit-only graphs. *)
let random_params rng =
  {
    TS.intra_latency = Prng.int rng 3;
    transit_domains = 1 + Prng.int rng 3;
    transit_nodes_per_domain = 1 + Prng.int rng 3;
    stub_domains_per_transit = Prng.int rng 3;
    mean_stub_size = 1 + Prng.int rng 5;
    top_edge_prob = Prng.unit_float rng;
    transit_edge_prob = Prng.unit_float rng;
    stub_edge_prob = Prng.unit_float rng;
    attachment_weight = Prng.int rng 5;
    interdomain_weight_spread = Prng.int rng 16;
    rtt_scale = 1 + Prng.int rng 4;
  }

let prop_random_transit_stub =
  QCheck.Test.make ~name:"random transit-stub: every pair = Dijkstra" ~count:60
    QCheck.small_nat (fun seed ->
      let rng = Prng.create ~seed in
      let t = TS.generate rng (random_params rng) in
      List.for_all
        (fun (metric, g, o) ->
          let r = Ref.create g in
          let n = Graph.n_vertices g in
          for src = 0 to n - 1 do
            for dst = 0 to n - 1 do
              let want = Ref.distance r ~src ~dst in
              let got = Graph.Oracle.distance o ~src ~dst in
              if got <> want then
                QCheck.Test.fail_reportf "%s metric, %d -> %d: oracle %d, Dijkstra %d"
                  metric src dst got want
            done
          done;
          true)
        (oracles t))

(* Sampled sources (transit and stub alike), every destination. *)
let check_sampled ~seed name params =
  let rng = Prng.create ~seed in
  let t = TS.generate rng params in
  let n = Graph.n_vertices t.TS.graph in
  List.iter
    (fun (metric, g, o) ->
      let r = Ref.create g in
      let sources =
        Array.append
          (Array.init 5 (fun _ -> Prng.choose rng t.TS.transit_vertices))
          (Array.init 20 (fun _ -> Prng.choose rng t.TS.stub_vertices))
      in
      Array.iter
        (fun src ->
          for dst = 0 to n - 1 do
            let want = Ref.distance r ~src ~dst in
            if Graph.Oracle.distance o ~src ~dst <> want then
              Alcotest.failf "%s %s metric, %d -> %d: oracle %d, Dijkstra %d" name
                metric src dst (Graph.Oracle.distance o ~src ~dst) want
          done)
        sources;
      check Alcotest.int
        (Printf.sprintf "%s %s: probes = reference probes" name metric)
        (Ref.probes r) (Graph.Oracle.probes o))
    (oracles t)

let test_paper_underlays () =
  check_sampled ~seed:1 "ts5k-large" TS.ts5k_large;
  check_sampled ~seed:2 "ts5k-small" TS.ts5k_small;
  check_sampled ~seed:3 "scaled-4096" (TS.scaled ~n:4096)

(* Core vertex 0 and 1; cluster 0 = {2, 3}, cluster 1 = {4}. *)
let tiny edges =
  let b = Graph.create_builder ~n:5 in
  List.iter (fun (u, v) -> Graph.add_edge b u v ~weight:1) edges;
  Graph.freeze b

let cluster = [| -1; -1; 0; 0; 1 |]

let test_rejects_not_single_homed () =
  let base = [ (0, 1); (2, 3); (4, 1) ] in
  let o = Graph.Oracle.create (tiny ((2, 0) :: base)) ~cluster in
  check Alcotest.int "3 -> 4 through both gateways" 4
    (Graph.Oracle.distance o ~src:3 ~dst:4);
  let rejects what edges =
    match Graph.Oracle.create (tiny edges) ~cluster with
    | _ -> Alcotest.failf "accepted %s" what
    | exception Invalid_argument _ -> ()
  in
  rejects "a stub with two up-links" ((2, 0) :: (3, 1) :: base);
  rejects "a stub with one vertex on two transits" ((2, 0) :: (2, 1) :: base);
  rejects "a stub-to-stub edge" ((2, 0) :: (3, 4) :: base);
  rejects "a stub with no up-link" base;
  match Graph.Oracle.create (tiny base) ~cluster:[| -1; 0 |] with
  | _ -> Alcotest.fail "accepted a short cluster map"
  | exception Invalid_argument _ -> ()

let test_one_probe_per_source () =
  let t = TS.generate (Prng.create ~seed:0x0a1f) TS.ts5k_large in
  let o =
    Graph.Oracle.create t.TS.graph ~cluster:(TS.stub_domain_map t)
  in
  let n = Graph.n_vertices t.TS.graph in
  check Alcotest.int "fresh oracle has probed nothing" 0 (Graph.Oracle.probes o);
  (* Many queries, one source (a stub vertex): exactly one probe. *)
  let src = t.TS.stub_vertices.(5) in
  for dst = 0 to n - 1 do
    ignore (Graph.Oracle.distance o ~src ~dst)
  done;
  check Alcotest.int "one source, one probe" 1 (Graph.Oracle.probes o);
  check Alcotest.int "one source counted" 1 (Graph.Oracle.sources_computed o);
  (* Repeating every query adds nothing. *)
  for dst = 0 to n - 1 do
    ignore (Graph.Oracle.distance o ~src ~dst)
  done;
  check Alcotest.int "repeated queries add nothing" 1 (Graph.Oracle.probes o);
  (* A second source (a transit vertex) adds exactly one more. *)
  ignore (Graph.Oracle.distance o ~src:0 ~dst:src);
  ignore (Graph.Oracle.distance o ~src:0 ~dst:1);
  ignore (Graph.Oracle.distance o ~src ~dst:7);
  check Alcotest.int "two sources, two probes" 2 (Graph.Oracle.probes o);
  check Alcotest.int "two sources counted" 2 (Graph.Oracle.sources_computed o)

let test_probes_match_sources () =
  let rng = Prng.create ~seed:0x0a20 in
  let t = TS.generate rng { TS.ts5k_large with TS.transit_domains = 2 } in
  let g = t.TS.graph in
  let o = Graph.Oracle.create g ~cluster:(TS.stub_domain_map t) in
  let r = Ref.create g in
  let n = Graph.n_vertices g in
  (* Random query mix over a few sources: however the queries
     interleave, the probe count is the number of distinct sources
     seen, exactly the reference's Dijkstra runs. *)
  let sources = Array.init 24 (fun _ -> Prng.int rng n) in
  let seen = Array.make n false in
  for _ = 1 to 400 do
    let src = Prng.choose rng sources and dst = Prng.int rng n in
    seen.(src) <- true;
    ignore (Graph.Oracle.distance o ~src ~dst);
    ignore (Ref.distance r ~src ~dst)
  done;
  let distinct = Array.fold_left (fun a b -> if b then a + 1 else a) 0 seen in
  check Alcotest.int "probes = distinct sources" distinct (Graph.Oracle.probes o);
  check Alcotest.int "sources_computed agrees" distinct
    (Graph.Oracle.sources_computed o);
  check Alcotest.int "probes = reference probes" (Ref.probes r)
    (Graph.Oracle.probes o)

(* Regression bound for the proximity experiments: re-building a
   scenario with [?base] donates the oracle, so transfer-cost
   accounting across both modes of one graph instance pays one probe
   per distinct source — never one per (mode, pair).  Setup (the
   landmark space) probes a separate oracle, so a fresh scenario's
   count is 0. *)
let test_shared_base_probe_bound () =
  let module Scenario = P2plb.Scenario in
  let module Controller = P2plb.Controller in
  let topology =
    {
      TS.ts5k_large with
      TS.transit_domains = 3;
      transit_nodes_per_domain = 2;
      stub_domains_per_transit = 3;
      mean_stub_size = 20;
    }
  in
  let config = { Scenario.default with n_nodes = 128; topology } in
  let s = Scenario.build ~seed:7 config in
  check Alcotest.int "setup probes nothing" 0 (Graph.Oracle.probes s.Scenario.oracle);
  let o1 =
    Controller.run
      ~config:{ Controller.default with Controller.proximity = true }
      s
  in
  let probes_aware = Graph.Oracle.probes s.Scenario.oracle in
  let s2 = Scenario.build ~base:s ~seed:7 config in
  check Alcotest.bool "base donates the oracle" true
    (s2.Scenario.oracle == s.Scenario.oracle);
  let o2 =
    Controller.run
      ~config:{ Controller.default with Controller.proximity = false }
      s2
  in
  let probes_both = Graph.Oracle.probes s2.Scenario.oracle in
  ignore o1;
  ignore o2;
  (* Sources are node underlay vertices, so the probe count across both
     modes is bounded by the node count; without the shared base the
     second run would re-pay every source. *)
  check Alcotest.bool "aware mode probed" true (probes_aware > 0);
  check Alcotest.bool "probes bounded by n_nodes" true
    (probes_both <= config.Scenario.n_nodes);
  check Alcotest.bool "second mode reuses the count" true
    (probes_both >= probes_aware);
  check Alcotest.int "probes = distinct sources" probes_both
    (Graph.Oracle.sources_computed s.Scenario.oracle)

let () =
  Alcotest.run "oracle"
    [
      ( "oracle",
        [
          Alcotest.test_case "agrees with Graph.distance" `Quick
            test_agrees_with_dijkstra;
          Alcotest.test_case "paper underlays: sampled pairs = Dijkstra" `Slow
            test_paper_underlays;
          Alcotest.test_case "rejects stubs not single-homed" `Quick
            test_rejects_not_single_homed;
          Alcotest.test_case "one probe per source" `Quick
            test_one_probe_per_source;
          Alcotest.test_case "probes = distinct sources" `Quick
            test_probes_match_sources;
          Alcotest.test_case "shared base: one probe per source" `Quick
            test_shared_base_probe_bound;
        ] );
      ("properties", [ qtest prop_random_transit_stub ]);
    ]
