(* The original memoising distance oracle, retained verbatim as the
   reference implementation for the hierarchical Graph.Oracle.

   One full-graph Dijkstra per distinct source, cached.  The production
   oracle's contract is that every distance it returns is EXACTLY what
   this one returns, and that its probe count equals this one's (one
   per distinct source); test_oracle checks both on random and
   paper-sized transit-stub underlays. *)

module Graph = P2plb_topology.Graph

type t = {
  g : Graph.t;
  cache : (int, int array) Hashtbl.t;
  mutable probes : int;
}

let create g = { g; cache = Hashtbl.create 64; probes = 0 }

let distance o ~src ~dst =
  let dists =
    match Hashtbl.find_opt o.cache src with
    | Some d -> d
    | None ->
      o.probes <- o.probes + 1;
      let d = Graph.dijkstra o.g ~src in
      Hashtbl.add o.cache src d;
      d
  in
  dists.(dst)

let sources_computed o = Hashtbl.length o.cache
let probes o = o.probes
