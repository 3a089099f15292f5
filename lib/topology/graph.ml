type builder = {
  bn : int;
  adj : (int * int) list array; (* neighbor, weight *)
  edges : (int * int, unit) Hashtbl.t; (* canonical (min, max) pairs *)
  mutable m : int;
}

(* Compressed adjacency: the neighbours of [v] sit at indices
   [first.(v) .. first.(v + 1) - 1] of [adj] (vertex) and [wt]
   (weight), in the builder's order. *)
type t = {
  n : int;
  first : int array;
  adj : int array;
  wt : int array;
}

let create_builder ~n =
  if n < 0 then invalid_arg "Graph.create_builder: n < 0";
  { bn = n; adj = Array.make n []; edges = Hashtbl.create (4 * n); m = 0 }

let canon u v = if u < v then (u, v) else (v, u)

let has_edge b u v = Hashtbl.mem b.edges (canon u v)

let add_edge b u v ~weight =
  if u < 0 || u >= b.bn || v < 0 || v >= b.bn then
    invalid_arg "Graph.add_edge: vertex out of range";
  if u = v then invalid_arg "Graph.add_edge: self loop";
  if weight < 0 then invalid_arg "Graph.add_edge: negative weight";
  if not (has_edge b u v) then begin
    Hashtbl.add b.edges (canon u v) ();
    b.adj.(u) <- (v, weight) :: b.adj.(u);
    b.adj.(v) <- (u, weight) :: b.adj.(v);
    b.m <- b.m + 1
  end

let freeze b =
  let first = Array.make (b.bn + 1) 0 in
  Array.iteri (fun v l -> first.(v + 1) <- first.(v) + List.length l) b.adj;
  let adj = Array.make first.(b.bn) 0 and wt = Array.make first.(b.bn) 0 in
  Array.iteri
    (fun v l ->
      List.iteri
        (fun i (u, w) ->
          adj.(first.(v) + i) <- u;
          wt.(first.(v) + i) <- w)
        l)
    b.adj;
  { n = b.bn; first; adj; wt }

let n_vertices g = g.n
let n_edges g = Array.length g.adj / 2
let degree g v = g.first.(v + 1) - g.first.(v)

let neighbors g v =
  Array.init (degree g v) (fun i -> (g.adj.(g.first.(v) + i), g.wt.(g.first.(v) + i)))

(* Binary min-heap of vertices keyed by distance, in two parallel
   arrays (no allocation per push). *)
module Heap = struct
  type t = {
    mutable key : int array;
    mutable vtx : int array;
    mutable size : int;
  }

  let create ~capacity =
    let c = Int.max 1 capacity in
    { key = Array.make c 0; vtx = Array.make c 0; size = 0 }

  let swap h i j =
    let k = h.key.(i) and v = h.vtx.(i) in
    h.key.(i) <- h.key.(j);
    h.vtx.(i) <- h.vtx.(j);
    h.key.(j) <- k;
    h.vtx.(j) <- v

  let push h k v =
    if h.size = Array.length h.key then begin
      let grow a =
        let bigger = Array.make (2 * h.size) 0 in
        Array.blit a 0 bigger 0 h.size;
        bigger
      in
      h.key <- grow h.key;
      h.vtx <- grow h.vtx
    end;
    h.key.(h.size) <- k;
    h.vtx.(h.size) <- v;
    h.size <- h.size + 1;
    let i = ref (h.size - 1) in
    while !i > 0 && h.key.((!i - 1) / 2) > h.key.(!i) do
      swap h ((!i - 1) / 2) !i;
      i := (!i - 1) / 2
    done

  let min_key h = h.key.(0)

  (* Removes the minimum and returns its vertex. *)
  let pop h =
    if h.size = 0 then invalid_arg "Heap.pop: empty";
    let top = h.vtx.(0) in
    h.size <- h.size - 1;
    h.key.(0) <- h.key.(h.size);
    h.vtx.(0) <- h.vtx.(h.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.size && h.key.(l) < h.key.(!smallest) then smallest := l;
      if r < h.size && h.key.(r) < h.key.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        swap h !i !smallest;
        i := !smallest
      end
      else continue := false
    done;
    top

  let is_empty h = h.size = 0
end

let dijkstra g ~src =
  if src < 0 || src >= g.n then invalid_arg "Graph.dijkstra: bad src";
  let dist = Array.make g.n max_int in
  dist.(src) <- 0;
  let heap = Heap.create ~capacity:(Int.min 64 g.n) in
  Heap.push heap 0 src;
  while not (Heap.is_empty heap) do
    let d = Heap.min_key heap in
    let u = Heap.pop heap in
    if d = dist.(u) then
      for e = g.first.(u) to g.first.(u + 1) - 1 do
        let v = g.adj.(e) and nd = d + g.wt.(e) in
        if nd < dist.(v) then begin
          dist.(v) <- nd;
          Heap.push heap nd v
        end
      done
  done;
  dist

let distance g ~src ~dst = (dijkstra g ~src).(dst)

let is_connected g =
  if g.n = 0 then true
  else begin
    let seen = Array.make g.n false in
    let stack = ref [ 0 ] in
    seen.(0) <- true;
    let count = ref 1 in
    let rec walk () =
      match !stack with
      | [] -> ()
      | u :: rest ->
        stack := rest;
        for e = g.first.(u) to g.first.(u + 1) - 1 do
          let v = g.adj.(e) in
          if not seen.(v) then begin
            seen.(v) <- true;
            incr count;
            stack := v :: !stack
          end
        done;
        walk ()
    in
    walk ();
    !count = g.n
  end

(* [a + b] where either operand may be [max_int] ("unreachable"). *)
let sat_add a b = if a = max_int || b = max_int then max_int else a + b

(* The subgraph induced by [vs], on local indices: [local.(v)] is the
   index of [v] in [vs], and [keep v] holds exactly for members. *)
let induced g ~local ~keep vs =
  let k = Array.length vs in
  let first = Array.make (k + 1) 0 in
  Array.iteri
    (fun i u ->
      let d = ref 0 in
      for e = g.first.(u) to g.first.(u + 1) - 1 do
        if keep g.adj.(e) then incr d
      done;
      first.(i + 1) <- first.(i) + !d)
    vs;
  let adj = Array.make first.(k) 0 and wt = Array.make first.(k) 0 in
  Array.iteri
    (fun i u ->
      let j = ref first.(i) in
      for e = g.first.(u) to g.first.(u + 1) - 1 do
        if keep g.adj.(e) then begin
          adj.(!j) <- local.(g.adj.(e));
          wt.(!j) <- g.wt.(e);
          incr j
        end
      done)
    vs;
  { n = k; first; adj; wt }

(* Exact hierarchical oracle.  Every cluster is single-homed (checked
   by [create]), so a path between two clusters runs gateway -> core
   -> gateway, and a path inside one cluster never leaves it: leaving
   crosses the one bridge twice and weights are >= 0.  A path between
   two core vertices likewise never dips into a cluster. *)
module Oracle = struct
  type graph = t

  type t = {
    cluster : int array;
    local : int array; (* index of v among its cluster's (or the core's) vertices *)
    parts : graph array; (* per cluster, on local indices *)
    core : graph; (* the core vertices, on local indices *)
    hub : int array; (* core index of v's attachment vertex (v's own if core) *)
    up : int array; (* distance from v to its attachment vertex *)
    part_rows : int array array; (* per source vertex; [||] until computed *)
    core_rows : int array array; (* per core source; [||] until computed *)
    queried : bool array;
    mutable probes : int;
  }

  let create g ~cluster =
    let n = g.n in
    if Array.length cluster <> n then
      invalid_arg "Graph.Oracle.create: cluster map length <> n_vertices";
    let cluster = Array.copy cluster in
    let k =
      Array.fold_left
        (fun acc c ->
          if c < -1 then invalid_arg "Graph.Oracle.create: cluster id < -1";
          Int.max acc (c + 1))
        0 cluster
    in
    (* Slot [k] holds the core; slot [c] cluster [c]. *)
    let slot v = if cluster.(v) < 0 then k else cluster.(v) in
    let size = Array.make (k + 1) 0 in
    let local = Array.make n 0 in
    for v = 0 to n - 1 do
      local.(v) <- size.(slot v);
      size.(slot v) <- size.(slot v) + 1
    done;
    let members = Array.map (fun s -> Array.make s 0) size in
    for v = 0 to n - 1 do
      members.(slot v).(local.(v)) <- v
    done;
    (* The one edge leaving each cluster: gateway, attachment, weight. *)
    let gateway = Array.make k (-1) in
    let attach = Array.make k 0 and attach_w = Array.make k 0 in
    for u = 0 to n - 1 do
      let c = cluster.(u) in
      if c >= 0 then
        for e = g.first.(u) to g.first.(u + 1) - 1 do
          let v = g.adj.(e) in
          let cv = cluster.(v) in
          if cv >= 0 && cv <> c then
            invalid_arg "Graph.Oracle.create: edge between two clusters"
          else if cv < 0 then begin
            if gateway.(c) >= 0 then
              invalid_arg
                "Graph.Oracle.create: a cluster has several edges leaving it";
            gateway.(c) <- u;
            attach.(c) <- v;
            attach_w.(c) <- g.wt.(e)
          end
        done
    done;
    for c = 0 to k - 1 do
      if size.(c) > 0 && gateway.(c) < 0 then
        invalid_arg "Graph.Oracle.create: a cluster has no edge leaving it"
    done;
    let part s = induced g ~local ~keep:(fun v -> slot v = s) members.(s) in
    let parts = Array.init k part in
    let hub = Array.make n 0 and up = Array.make n 0 in
    Array.iter (fun v -> hub.(v) <- local.(v)) members.(k);
    Array.iteri
      (fun c p ->
        if size.(c) > 0 then begin
          let d = dijkstra p ~src:local.(gateway.(c)) in
          Array.iter
            (fun v ->
              hub.(v) <- local.(attach.(c));
              up.(v) <- sat_add d.(local.(v)) attach_w.(c))
            members.(c)
        end)
      parts;
    {
      cluster;
      local;
      parts;
      core = part k;
      hub;
      up;
      part_rows = Array.make n [||];
      core_rows = Array.make size.(k) [||];
      queried = Array.make n false;
      probes = 0;
    }

  let memo rows i g ~src =
    if Array.length rows.(i) = 0 then rows.(i) <- dijkstra g ~src;
    rows.(i)

  let distance o ~src ~dst =
    if not o.queried.(src) then begin
      o.queried.(src) <- true;
      o.probes <- o.probes + 1
    end;
    let c = o.cluster.(src) in
    if c >= 0 && c = o.cluster.(dst) then
      (memo o.part_rows src o.parts.(c) ~src:o.local.(src)).(o.local.(dst))
    else
      let a = o.hub.(src) in
      sat_add
        (sat_add o.up.(src) (memo o.core_rows a o.core ~src:a).(o.hub.(dst)))
        o.up.(dst)

  let n_vertices o = Array.length o.cluster
  let sources_computed o = o.probes
  let probes o = o.probes
end
