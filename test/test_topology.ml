module Graph = P2plb_topology.Graph
module TS = P2plb_topology.Transit_stub
module Prng = P2plb_prng.Prng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---- Graph ------------------------------------------------------------- *)

let line_graph n =
  let b = Graph.create_builder ~n in
  for i = 0 to n - 2 do
    Graph.add_edge b i (i + 1) ~weight:1
  done;
  Graph.freeze b

let test_build_basics () =
  let b = Graph.create_builder ~n:4 in
  Graph.add_edge b 0 1 ~weight:2;
  Graph.add_edge b 1 2 ~weight:3;
  Graph.add_edge b 0 1 ~weight:9 (* duplicate ignored *);
  let g = Graph.freeze b in
  check Alcotest.int "vertices" 4 (Graph.n_vertices g);
  check Alcotest.int "edges" 2 (Graph.n_edges g);
  check Alcotest.int "degree 1" 2 (Graph.degree g 1);
  check Alcotest.int "degree 3" 0 (Graph.degree g 3)

let test_add_edge_validation () =
  let b = Graph.create_builder ~n:3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self loop")
    (fun () -> Graph.add_edge b 1 1 ~weight:1);
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Graph.add_edge: negative weight") (fun () ->
      Graph.add_edge b 0 1 ~weight:(-1));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.add_edge: vertex out of range") (fun () ->
      Graph.add_edge b 0 3 ~weight:1)

let test_dijkstra_line () =
  let g = line_graph 6 in
  let d = Graph.dijkstra g ~src:0 in
  check Alcotest.(array int) "distances" [| 0; 1; 2; 3; 4; 5 |] d

let test_dijkstra_weights () =
  let b = Graph.create_builder ~n:4 in
  Graph.add_edge b 0 1 ~weight:10;
  Graph.add_edge b 0 2 ~weight:1;
  Graph.add_edge b 2 3 ~weight:1;
  Graph.add_edge b 3 1 ~weight:1;
  let g = Graph.freeze b in
  (* 0->1 direct costs 10, via 2,3 costs 3 *)
  check Alcotest.int "shortest picks detour" 3 (Graph.distance g ~src:0 ~dst:1)

let test_dijkstra_unreachable () =
  let b = Graph.create_builder ~n:3 in
  Graph.add_edge b 0 1 ~weight:1;
  let g = Graph.freeze b in
  check Alcotest.int "unreachable" max_int (Graph.dijkstra g ~src:0).(2)

let test_dijkstra_zero_weights () =
  let b = Graph.create_builder ~n:3 in
  Graph.add_edge b 0 1 ~weight:0;
  Graph.add_edge b 1 2 ~weight:5;
  let g = Graph.freeze b in
  check Alcotest.int "zero edge" 0 (Graph.distance g ~src:0 ~dst:1);
  check Alcotest.int "through zero" 5 (Graph.distance g ~src:0 ~dst:2)

let test_connectivity () =
  check Alcotest.bool "line connected" true (Graph.is_connected (line_graph 10));
  let b = Graph.create_builder ~n:4 in
  Graph.add_edge b 0 1 ~weight:1;
  Graph.add_edge b 2 3 ~weight:1;
  check Alcotest.bool "two components" false (Graph.is_connected (Graph.freeze b))

(* With an all-core cluster map the oracle is a memoised Dijkstra over
   the whole graph. *)
let test_oracle_caches () =
  let g = line_graph 8 in
  let o = Graph.Oracle.create g ~cluster:(Array.make 8 (-1)) in
  check Alcotest.int "d(1,5)" 4 (Graph.Oracle.distance o ~src:1 ~dst:5);
  check Alcotest.int "d(1,7)" 6 (Graph.Oracle.distance o ~src:1 ~dst:7);
  check Alcotest.int "one source cached" 1 (Graph.Oracle.sources_computed o);
  ignore (Graph.Oracle.distance o ~src:2 ~dst:0);
  check Alcotest.int "two sources" 2 (Graph.Oracle.sources_computed o)

(* Brute-force Bellman-Ford for cross-checking Dijkstra. *)
let bellman_ford edges n src =
  let dist = Array.make n max_int in
  dist.(src) <- 0;
  for _ = 1 to n do
    List.iter
      (fun (u, v, w) ->
        if dist.(u) <> max_int && dist.(u) + w < dist.(v) then
          dist.(v) <- dist.(u) + w;
        if dist.(v) <> max_int && dist.(v) + w < dist.(u) then
          dist.(u) <- dist.(v) + w)
      edges
  done;
  dist

let prop_dijkstra_matches_bellman_ford =
  QCheck.Test.make ~name:"dijkstra = bellman-ford on random graphs" ~count:100
    QCheck.(small_int)
    (fun seed ->
      let rng = Prng.create ~seed in
      let n = 2 + Prng.int rng 12 in
      let b = Graph.create_builder ~n in
      let edges = ref [] in
      let n_edges = Prng.int rng (2 * n) in
      for _ = 1 to n_edges do
        let u = Prng.int rng n and v = Prng.int rng n in
        if u <> v && not (Graph.has_edge b u v) then begin
          let w = Prng.int rng 10 in
          Graph.add_edge b u v ~weight:w;
          edges := (u, v, w) :: !edges
        end
      done;
      let g = Graph.freeze b in
      let src = Prng.int rng n in
      Graph.dijkstra g ~src = bellman_ford !edges n src)

(* ---- Transit-stub ------------------------------------------------------ *)

let small_params =
  {
    TS.ts5k_large with
    TS.transit_domains = 3;
    transit_nodes_per_domain = 2;
    stub_domains_per_transit = 2;
    mean_stub_size = 5;
  }

let test_ts_structure () =
  let rng = Prng.create ~seed:1 in
  let t = TS.generate rng small_params in
  check Alcotest.int "transit count" 6 (Array.length t.TS.transit_vertices);
  check Alcotest.bool "has stubs" true (Array.length t.TS.stub_vertices > 0);
  check Alcotest.int "total"
    (Array.length t.TS.transit_vertices + Array.length t.TS.stub_vertices)
    (Graph.n_vertices t.TS.graph);
  check Alcotest.bool "hop graph connected" true (Graph.is_connected t.TS.graph);
  check Alcotest.bool "latency graph connected" true
    (Graph.is_connected t.TS.latency_graph);
  check Alcotest.int "same structure" (Graph.n_edges t.TS.graph)
    (Graph.n_edges t.TS.latency_graph)

let test_ts_roles () =
  let rng = Prng.create ~seed:2 in
  let t = TS.generate rng small_params in
  Array.iter
    (fun v ->
      match t.TS.roles.(v) with
      | TS.Transit _ -> ()
      | TS.Stub _ -> Alcotest.fail "transit vertex with stub role")
    t.TS.transit_vertices;
  Array.iter
    (fun v ->
      match t.TS.roles.(v) with
      | TS.Stub { transit_of; _ } ->
        check Alcotest.bool "transit_of is a transit vertex" true
          (transit_of >= 0 && transit_of < Array.length t.TS.transit_vertices)
      | TS.Transit _ -> Alcotest.fail "stub vertex with transit role")
    t.TS.stub_vertices

let test_ts_stub_domain_of () =
  let rng = Prng.create ~seed:3 in
  let t = TS.generate rng small_params in
  check Alcotest.bool "transit has no stub domain" true
    (TS.stub_domain_of t t.TS.transit_vertices.(0) = None);
  check Alcotest.bool "stub has domain" true
    (TS.stub_domain_of t t.TS.stub_vertices.(0) <> None)

let test_ts_expected_sizes () =
  let rng = Prng.create ~seed:4 in
  let t = TS.generate rng TS.ts5k_large in
  let n = Graph.n_vertices t.TS.graph in
  (* 15 transit + ~75 stubs x ~60 = ~4500; allow generous slack *)
  check Alcotest.bool "ts5k-large size plausible" true (n > 3000 && n < 7000);
  let rng = Prng.create ~seed:5 in
  let t = TS.generate rng TS.ts5k_small in
  let n = Graph.n_vertices t.TS.graph in
  (* 600 transit + 2400 stubs x ~2 = ~5400 *)
  check Alcotest.bool "ts5k-small size plausible" true (n > 3500 && n < 8000)

let test_ts_weights () =
  let rng = Prng.create ~seed:6 in
  let t = TS.generate rng small_params in
  (* hop-metric weights are only 1 (intra) or 3 (inter) *)
  for v = 0 to Graph.n_vertices t.TS.graph - 1 do
    Array.iter
      (fun (_, w) ->
        check Alcotest.bool "hop weight is 1 or 3" true (w = 1 || w = 3))
      (Graph.neighbors t.TS.graph v)
  done

let test_ts_same_domain_short_distance () =
  let rng = Prng.create ~seed:7 in
  let t = TS.generate rng TS.ts5k_large in
  (* dense stub domains: same-domain pairs should average < 4 units *)
  let g = t.TS.graph in
  let by_domain = Hashtbl.create 128 in
  Array.iter
    (fun v ->
      match TS.stub_domain_of t v with
      | Some d ->
        Hashtbl.replace by_domain d
          (v :: Option.value ~default:[] (Hashtbl.find_opt by_domain d))
      | None -> ())
    t.TS.stub_vertices;
  let total = ref 0 and cnt = ref 0 in
  let domains =
    (* sorted by domain id so the 30 sampled pairs are stable *)
    let ds = Hashtbl.fold (fun d vs acc -> (d, vs) :: acc) by_domain [] in
    List.sort (fun (a, _) (b, _) -> Int.compare a b) ds
  in
  List.iter
    (fun (_, vs) ->
      match vs with
      | a :: b :: _ when !cnt < 30 ->
        total := !total + Graph.distance g ~src:a ~dst:b;
        incr cnt
      | _ -> ())
    domains;
  let avg = float_of_int !total /. float_of_int !cnt in
  check Alcotest.bool "same-domain close" true (avg < 4.0)

let test_ts_determinism () =
  let t1 = TS.generate (Prng.create ~seed:42) small_params in
  let t2 = TS.generate (Prng.create ~seed:42) small_params in
  check Alcotest.int "same vertex count" (Graph.n_vertices t1.TS.graph)
    (Graph.n_vertices t2.TS.graph);
  check Alcotest.int "same edge count" (Graph.n_edges t1.TS.graph)
    (Graph.n_edges t2.TS.graph)

let prop_ts_always_connected =
  QCheck.Test.make ~name:"generated topologies are connected" ~count:30
    QCheck.small_int
    (fun seed ->
      let rng = Prng.create ~seed in
      let t = TS.generate rng small_params in
      Graph.is_connected t.TS.graph && Graph.is_connected t.TS.latency_graph)

let () =
  Alcotest.run "topology"
    [
      ( "graph",
        [
          Alcotest.test_case "build" `Quick test_build_basics;
          Alcotest.test_case "validation" `Quick test_add_edge_validation;
          Alcotest.test_case "dijkstra line" `Quick test_dijkstra_line;
          Alcotest.test_case "dijkstra weights" `Quick test_dijkstra_weights;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "zero weights" `Quick test_dijkstra_zero_weights;
          Alcotest.test_case "connectivity" `Quick test_connectivity;
          Alcotest.test_case "oracle" `Quick test_oracle_caches;
        ] );
      ( "transit-stub",
        [
          Alcotest.test_case "structure" `Quick test_ts_structure;
          Alcotest.test_case "roles" `Quick test_ts_roles;
          Alcotest.test_case "stub_domain_of" `Quick test_ts_stub_domain_of;
          Alcotest.test_case "sizes" `Slow test_ts_expected_sizes;
          Alcotest.test_case "hop weights" `Quick test_ts_weights;
          Alcotest.test_case "same-domain distance" `Slow
            test_ts_same_domain_short_distance;
          Alcotest.test_case "determinism" `Quick test_ts_determinism;
        ] );
      ( "properties",
        [ qtest prop_dijkstra_matches_bellman_ford; qtest prop_ts_always_connected ]
      );
    ]
