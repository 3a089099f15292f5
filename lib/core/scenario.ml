module Prng = P2plb_prng.Prng
module Dht = P2plb_chord.Dht
module Graph = P2plb_topology.Graph
module Transit_stub = P2plb_topology.Transit_stub
module Landmark = P2plb_landmark.Landmark
module Workload = P2plb_workload.Workload

type config = {
  n_nodes : int;
  vs_per_node : int;
  topology : Transit_stub.params;
  workload : Workload.config;
  landmark_m : int;
}

let default =
  {
    n_nodes = 4096;
    vs_per_node = 5;
    topology = Transit_stub.ts5k_large;
    workload = Workload.default_gaussian;
    landmark_m = 15;
  }

type t = {
  rng : Prng.t;
  dht : Dht.t;
  topo : Transit_stub.t;
  oracle : Graph.Oracle.t;
  space : Landmark.space;
  config : config;
}

exception Too_few_stubs of { n_nodes : int; stub_vertices : int }

let build ?base ~seed config =
  if config.n_nodes < 1 then invalid_arg "Scenario.build: n_nodes < 1";
  let master = Prng.create ~seed in
  let topo_rng = Prng.split master in
  let member_rng = Prng.split master in
  let load_rng = Prng.split master in
  let landmark_rng = Prng.split master in
  let lb_rng = Prng.split master in
  (* The topology, distance oracle and landmark space depend only on
     [seed] and [config] (each on its own split stream), so a caller
     re-building the same scenario — e.g. the proximity experiments
     running aware and ignorant modes over one graph instance — can
     donate them from a previous build.  The donated oracle keeps its
     probe count and memoised rows across runs: one probe per distinct
     source per graph, not per mode.  Landmark vectors are measured on
     the latency graph — what real RTT probes would see; transfer
     costs stay on the hop graph.  The latency oracle is a separate
     object, dropped after setup, so the hop oracle's probe count
     measures balancing alone. *)
  let topo, oracle, space =
    match base with
    | Some b -> (b.topo, b.oracle, b.space)
    | None ->
      let topo = Transit_stub.generate topo_rng config.topology in
      let cluster = Transit_stub.stub_domain_map topo in
      let latency = topo.Transit_stub.latency_graph in
      let landmarks =
        Landmark.select_random landmark_rng latency ~m:config.landmark_m
      in
      ( topo,
        Graph.Oracle.create topo.Transit_stub.graph ~cluster,
        Landmark.make_space (Graph.Oracle.create latency ~cluster) ~landmarks )
  in
  let stubs = topo.Transit_stub.stub_vertices in
  if Array.length stubs < config.n_nodes then
    raise
      (Too_few_stubs
         { n_nodes = config.n_nodes; stub_vertices = Array.length stubs });
  (* Overlay nodes are end hosts: distinct random stub vertices. *)
  let picks =
    Prng.sample_distinct member_rng ~n:config.n_nodes
      ~universe:(Array.length stubs)
  in
  let dht = Dht.create ~seed:(seed lxor 0x5bd1e995) in
  Array.iter
    (fun i ->
      let capacity = Workload.sample_capacity member_rng in
      ignore
        (Dht.join dht ~capacity ~underlay:stubs.(i) ~n_vs:config.vs_per_node))
    picks;
  Workload.assign_loads load_rng config.workload dht;
  { rng = lb_rng; dht; topo; oracle; space; config }

let join_nodes t n =
  let stubs = t.topo.Transit_stub.stub_vertices in
  for _ = 1 to n do
    let capacity = Workload.sample_capacity t.rng in
    let underlay = stubs.(Prng.int t.rng (Array.length stubs)) in
    ignore
      (Dht.join t.dht ~capacity ~underlay ~n_vs:t.config.vs_per_node)
  done

let crash_nodes t n =
  for _ = 1 to n do
    let n_alive = Dht.n_nodes t.dht in
    if n_alive > 1 then begin
      let victim = Dht.alive_nth t.dht (Prng.int t.rng n_alive) in
      let victim = victim.Dht.node_id in
      if Dht.can_crash t.dht victim then Dht.crash t.dht victim
    end
  done

let unit_loads t =
  Array.of_list
    (List.map Dht.node_unit_load (Dht.alive_nodes t.dht))

let loads_by_capacity t =
  Array.of_list
    (List.map
       (fun n -> (n.Dht.capacity, Dht.node_load n))
       (Dht.alive_nodes t.dht))
