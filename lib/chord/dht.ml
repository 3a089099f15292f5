module Id = P2plb_idspace.Id
module Region = P2plb_idspace.Region
module Prng = P2plb_prng.Prng

type node_id = int

type vs = {
  vs_id : Id.t;
  mutable owner : node_id;
  mutable load : float;
}

type ring = { ids : int array; vss : vs array }

type node = {
  node_id : node_id;
  underlay : int;
  capacity : float;
  mutable alive : bool;
  mutable vss : vs list;
}

type t = {
  rng : Prng.t;
  mutable ring : vs Ring_map.t;
  (* Node ids are dense and handed out in join order, so the node
     table is an array indexed by id; [nodes.(0 .. n_joined - 1)] are
     the nodes ever joined, alive or not. *)
  mutable nodes : node array;
  mutable n_joined : int;
  mutable n_alive : int;
  mutable lookup_count : int;
  mutable hop_count : int;
  (* All VS ids sorted ascending with the VS records in a parallel
     array, built on the first read after a membership change and never
     mutated ([None] until then).  Lets the routing paths (lookup,
     owner_of_key, region_of_vs) binary-search, and {!Ktree} sync
     against the ring without a copy of its own. *)
  mutable snap : ring option;
}

let create ~seed =
  {
    rng = Prng.create ~seed;
    ring = Ring_map.empty;
    nodes = [||];
    n_joined = 0;
    n_alive = 0;
    lookup_count = 0;
    hop_count = 0;
    snap = None;
  }

let node t id =
  if id < 0 || id >= t.n_joined then raise Not_found else t.nodes.(id)

let is_alive t id = id >= 0 && id < t.n_joined && t.nodes.(id).alive
let n_nodes t = t.n_alive
let n_vs t = Ring_map.cardinal t.ring

(* --- Node table ------------------------------------------------------- *)

let fold_nodes t ~init ~f =
  let acc = ref init in
  for id = 0 to t.n_joined - 1 do
    let n = t.nodes.(id) in
    if n.alive then acc := f !acc n
  done;
  !acc

(* The nodes whose [alive] flag is [alive], in increasing id order. *)
let nodes_with t ~alive =
  let acc = ref [] in
  for id = t.n_joined - 1 downto 0 do
    let n = t.nodes.(id) in
    if n.alive = alive then acc := n :: !acc
  done;
  !acc

let alive_nodes t = nodes_with t ~alive:true
let dead_nodes t = nodes_with t ~alive:false

let alive_nth t i =
  if i < 0 || i >= t.n_alive then invalid_arg "Dht.alive_nth";
  let rec go id seen =
    let n = t.nodes.(id) in
    if not n.alive then go (id + 1) seen
    else if seen = i then n
    else go (id + 1) (seen + 1)
  in
  go 0 0

(* --- Ring snapshot ---------------------------------------------------- *)

let snapshot t =
  match t.snap with
  | Some s -> s
  | None ->
    (* One in-order pass into an exact-size array that starts out
       holding the smallest VS, slot 0's own value.  Going through a
       list instead would promote its cells on every rebuild, which
       churn (a rebuild per crash) pays for in GC time. *)
    let vss =
      match Ring_map.successor 0 t.ring with
      | None -> [||]
      | Some (_, smallest) -> Array.make (Ring_map.cardinal t.ring) smallest
    in
    ignore
      (Ring_map.fold
         (fun _ v i ->
           vss.(i) <- v;
           i + 1)
         t.ring 0);
    let s = { ids = Array.map (fun v -> v.vs_id) vss; vss } in
    t.snap <- Some s;
    s

let ring_ids t = (snapshot t).ids

(* Index of the first id >= k in [ids], or its length if none. *)
let lower_bound ids k =
  let lo = ref 0 and hi = ref (Array.length ids) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if ids.(mid) >= k then hi := mid else lo := mid + 1
  done;
  !lo

(* successor(k): first id >= k, wrapping to the smallest. *)
let successor_idx ids k =
  let i = lower_bound ids k in
  if i = Array.length ids then 0 else i

(* predecessor_strict(k): last id < k, wrapping to the largest. *)
let predecessor_strict_idx ids k =
  let i = lower_bound ids k in
  if i = 0 then Array.length ids - 1 else i - 1

let fold_vs t ~init ~f =
  Ring_map.fold (fun _ v acc -> f acc v) t.ring init

let vs_of_id t id = Ring_map.find_opt id t.ring

(* Map-based predecessor/region, for use while the ring is mid-mutation
   (insert/delete) where a snapshot refresh per call would cost O(n). *)
let predecessor_id_map t id =
  match Ring_map.predecessor_strict id t.ring with
  | Some (p, _) -> p
  | None -> id (* single VS: whole ring *)

let region_of_vs_map t v =
  let pred = predecessor_id_map t v.vs_id in
  if pred = v.vs_id then Region.whole
  else Region.between_excl_incl ~lo:pred ~hi:v.vs_id

let predecessor_id t id =
  let ids = ring_ids t in
  if Array.length ids = 0 then id
  else ids.(predecessor_strict_idx ids id)

let region_of_vs t v =
  let pred = predecessor_id t v.vs_id in
  if pred = v.vs_id then Region.whole
  else Region.between_excl_incl ~lo:pred ~hi:v.vs_id

let owner_of_key t k =
  let { ids; vss } = snapshot t in
  if Array.length ids = 0 then invalid_arg "Dht.owner_of_key: empty ring"
  else vss.(successor_idx ids k)

let set_vs_load _t v load =
  if load < 0.0 then invalid_arg "Dht.set_vs_load: negative load";
  v.load <- load

let add_vs_load _t v delta =
  let nl = v.load +. delta in
  if nl < -1e-9 then invalid_arg "Dht.add_vs_load: load underflow";
  v.load <- Float.max 0.0 nl

let node_load n = List.fold_left (fun acc v -> acc +. v.load) 0.0 n.vss

let node_unit_load n =
  if n.capacity <= 0.0 then invalid_arg "Dht.node_unit_load: capacity <= 0";
  node_load n /. n.capacity

let total_load t = fold_vs t ~init:0.0 ~f:(fun acc v -> acc +. v.load)

let total_capacity t =
  fold_nodes t ~init:0.0 ~f:(fun acc n -> acc +. n.capacity)

let random_vs_of_node _t rng n =
  match n.vss with
  | [] -> invalid_arg "Dht.random_vs_of_node: node hosts no VS"
  | vss ->
    (* Same single bounded draw as Prng.choose on an array copy, without
       materialising the array. *)
    List.nth vss (Prng.int rng (List.length vss))

let report_vs t rng n =
  match n.vss with
  | [] -> owner_of_key t (Id.hash_key n.node_id "home")
  | _ :: _ -> random_vs_of_node t rng n

(* Fresh pseudo-random VS identifier, avoiding collisions. *)
let fresh_vs_id t ~node_id ~index =
  let rec go salt =
    let id =
      Id.hash_key ((node_id * 131) + index + (salt * 1_000_003)) "vs"
    in
    if Ring_map.mem id t.ring then go (salt + 1) else id
  in
  go 0

(* Insert a VS into the ring, stealing the matching share of the load
   of the VS that previously covered its region. *)
let insert_vs t v =
  (match Ring_map.successor_strict v.vs_id t.ring with
  | Some (_, succ) when succ.vs_id <> v.vs_id ->
    let old_region = region_of_vs_map t succ in
    let old_len = Region.len old_region in
    if old_len > 0 then begin
      let pred = predecessor_id_map t succ.vs_id in
      let stolen_len =
        if pred = succ.vs_id then
          (* succ owned the whole ring; new vs takes all but succ's arc *)
          Id.distance_cw succ.vs_id v.vs_id
        else Id.distance_cw pred v.vs_id
      in
      let frac = float_of_int stolen_len /. float_of_int old_len in
      let moved = succ.load *. frac in
      succ.load <- succ.load -. moved;
      v.load <- v.load +. moved
    end
  | _ -> ());
  t.ring <- Ring_map.add v.vs_id v t.ring;
  t.snap <- None

(* A new node whose [n_vs] VSs get the ids [vs_id ~node_id ~index],
   each inserted before the next id is chosen. *)
let add_node t ~capacity ~underlay ~n_vs ~vs_id =
  if capacity <= 0.0 then invalid_arg "Dht.join: capacity <= 0";
  if n_vs < 1 then invalid_arg "Dht.join: n_vs < 1";
  let node_id = t.n_joined in
  let n = { node_id; underlay; capacity; alive = true; vss = [] } in
  if node_id = Array.length t.nodes then begin
    let bigger = Array.make (Int.max 1024 (2 * node_id)) n in
    Array.blit t.nodes 0 bigger 0 node_id;
    t.nodes <- bigger
  end;
  t.nodes.(node_id) <- n;
  t.n_joined <- node_id + 1;
  t.n_alive <- t.n_alive + 1;
  for index = 0 to n_vs - 1 do
    let v = { vs_id = vs_id ~node_id ~index; owner = node_id; load = 0.0 } in
    insert_vs t v;
    n.vss <- v :: n.vss
  done;
  node_id

let join t ~capacity ~underlay ~n_vs =
  add_node t ~capacity ~underlay ~n_vs ~vs_id:(fresh_vs_id t)

let join_with_ids t ~capacity ~underlay ids =
  if
    List.length (List.sort_uniq Int.compare ids) <> List.length ids
    || List.exists (fun id -> id <> Id.of_int id || Ring_map.mem id t.ring) ids
  then invalid_arg "Dht.join_with_ids: id out of range or taken";
  let ids = Array.of_list ids in
  add_node t ~capacity ~underlay ~n_vs:(Array.length ids)
    ~vs_id:(fun ~node_id:_ ~index -> ids.(index))

(* Remove a VS from the ring; successor absorbs region and load. *)
let delete_vs_absorb t v =
  if Ring_map.cardinal t.ring <= 1 then
    invalid_arg "Dht.remove_vs: cannot remove the last VS";
  t.ring <- Ring_map.remove v.vs_id t.ring;
  t.snap <- None;
  (match Ring_map.successor v.vs_id t.ring with
  | Some (_, succ) -> succ.load <- succ.load +. v.load
  | None -> assert false);
  let owner = node t v.owner in
  owner.vss <- List.filter (fun x -> x.vs_id <> v.vs_id) owner.vss

let can_crash t id =
  is_alive t id && t.n_alive > 1 && List.length t.nodes.(id).vss < n_vs t

let crash t id =
  let n = node t id in
  if n.alive then begin
    if not (can_crash t id) then
      invalid_arg "Dht.crash: would empty the ring";
    List.iter (fun v -> delete_vs_absorb t v) n.vss;
    n.vss <- [];
    n.alive <- false;
    t.n_alive <- t.n_alive - 1
  end

let remove_vs t ~vs_id =
  match vs_of_id t vs_id with
  | None -> invalid_arg "Dht.remove_vs: no such VS"
  | Some v -> delete_vs_absorb t v

let transfer_vs t ~vs_id ~to_node =
  match vs_of_id t vs_id with
  | None -> invalid_arg "Dht.transfer_vs: no such VS"
  | Some v ->
    let dst = node t to_node in
    if not dst.alive then invalid_arg "Dht.transfer_vs: dead target";
    if v.owner <> to_node then begin
      let src = node t v.owner in
      src.vss <- List.filter (fun x -> x.vs_id <> vs_id) src.vss;
      dst.vss <- v :: dst.vss;
      v.owner <- to_node
    end

(* --- Routing ---------------------------------------------------------- *)

(* Greedy Chord routing evaluated against the current ring: from VS
   [cur], the closest preceding finger of [key] is the largest
   successor(cur + 2^k) lying strictly inside (cur, key).  With [p] the
   last ring id before [key], such a finger exists exactly when
   2^k <= distance_cw cur p, so the largest one takes the largest such
   k: one probe instead of a scan from k = 31 down.  Returns the
   finger's index in the snapshot ids, or -1 when no finger qualifies
   ([p = cur]), avoiding an option allocation per probe. *)
let closest_preceding_finger ids ~cur ~p =
  let d = Id.distance_cw cur p in
  if d = 0 then -1
  else begin
    let rec floor_log2 k d = if d > 1 then floor_log2 (k + 1) (d lsr 1) else k in
    successor_idx ids (Id.add cur (1 lsl floor_log2 0 d))
  end

(* The walk keeps the snapshot index of the current VS, so its
   successor is the next index. *)
let lookup t ~from ~key =
  if Ring_map.is_empty t.ring then invalid_arg "Dht.lookup: empty ring";
  if not (Ring_map.mem from t.ring) then
    invalid_arg "Dht.lookup: unknown source VS";
  t.lookup_count <- t.lookup_count + 1;
  let { ids; vss } = snapshot t in
  let n = Array.length ids in
  let fi = lower_bound ids from in
  let pred_from = ids.((fi + n - 1) mod n) in
  if Id.in_range_excl_incl key ~lo:pred_from ~hi:from
     && (pred_from <> from || key = from)
  then (vss.(fi), 0)
  else if pred_from = from then (* single VS owns everything *)
    (vss.(fi), 0)
  else begin
    let p = ids.(predecessor_strict_idx ids key) in
    let hops = ref 0 in
    let ci = ref fi in
    let result = ref (-1) in
    while !result < 0 do
      incr hops;
      (* each hop moves strictly closer to the key *)
      if !hops > n then failwith "Dht.lookup: route revisits a VS";
      let cur = ids.(!ci) and si = (!ci + 1) mod n in
      if Id.in_range_excl_incl key ~lo:cur ~hi:ids.(si) then result := si
      else begin
        let next = closest_preceding_finger ids ~cur ~p in
        (* No finger strictly precedes the key: hand to successor. *)
        ci := if next >= 0 then next else si
      end
    done;
    t.hop_count <- t.hop_count + !hops;
    (vss.(!result), !hops)
  end

let lookups_performed t = t.lookup_count
let hops_used t = t.hop_count

let reset_counters t =
  t.lookup_count <- 0;
  t.hop_count <- 0
