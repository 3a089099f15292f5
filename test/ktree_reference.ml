(* The original stored (pointer) K-nary tree, retained verbatim as the
   reference implementation for the implicit lib/ktree/ktree.ml.

   The production tree computes every KT node from the sorted VS ids
   instead of storing it; its contract is that every observable —
   n_nodes, depth, node shapes and hosts, designated leaves, per-VS
   hosted counts, leaf counts, message and repair counters, DHT
   lookups and hops, and the order of kt/replant and kt/rehost trace
   points — is EXACTLY what this implementation produces.  Its sweeps
   are sparse: the up-sweep's result is this dense sweep's with the
   subtrees holding no occupied designated leaf dropped, and the
   down-sweep reaches as many leaves.  test_ktree drives both through
   random join / crash / transfer histories and checks agreement after
   every step. *)

module Id = P2plb_idspace.Id
module Region = P2plb_idspace.Region
module Dht = P2plb_chord.Dht

type kt_node = {
  region : Region.t;
  key : Id.t;
  depth : int;
  mutable host : Id.t;
  mutable children : kt_node option array;
  (* Slot ordinal of this node in the current leaf assignment (see
     {!leaf_assignment}); -1 when the node is not an assigned leaf.
     Scratch state rebuilt with the assignment cache. *)
  mutable tag : int;
}

type t = {
  k : int;
  mutable root : kt_node;
  mutable msg : int;
  mutable last_rounds : int;
  mutable repaired : int;
  mutable repair_msg : int;
  mutable obs : P2plb_obs.Obs.t option;
  (* Lazily built host->deepest-leaf table, shared by every
     leaf_assignment caller in a round; invalidated at each structural
     mutation (plant / prune / re-host). *)
  mutable assignment : (Id.t, kt_node) Hashtbl.t option;
  mutable n_slots : int;
}

let set_obs t obs = t.obs <- Some obs

let obs_event t name attrs =
  match t.obs with
  | None -> ()
  | Some o ->
    P2plb_obs.Trace.point (P2plb_obs.Obs.trace o) name ~attrs;
    P2plb_obs.Registry.add
      (P2plb_obs.Registry.counter (P2plb_obs.Obs.metrics o) name)
      1

let invalidate_assignment t =
  if t.assignment <> None then begin
    t.assignment <- None;
    t.n_slots <- 0
  end

let k t = t.k
let root t = t.root
let is_leaf n = Array.for_all (fun c -> c = None) n.children
let messages t = t.msg
let rounds_last_sweep t = t.last_rounds
let repairs t = t.repaired
let repair_messages t = t.repair_msg

let reset_counters t =
  t.msg <- 0;
  t.last_rounds <- 0;
  t.repaired <- 0;
  t.repair_msg <- 0

(* The VS hosting a KT node covers the KT node's whole region: the KT
   node needs no children (§3.1's leaf test). *)
let covered_by_host dht n =
  match Dht.vs_of_id dht n.host with
  | None -> false
  | Some v -> Region.covers ~outer:(Dht.region_of_vs dht v) ~inner:n.region

let plant ~route_messages t dht ~from region depth =
  let key = Region.center region in
  let host =
    if route_messages then begin
      let v, hops = Dht.lookup dht ~from ~key in
      t.msg <- t.msg + hops;
      v
    end
    else Dht.owner_of_key dht key
  in
  {
    region;
    key;
    depth;
    host = host.Dht.vs_id;
    children = Array.make t.k None;
    tag = -1;
  }

(* Grow the subtree under [n] until every branch bottoms out in a
   covered (leaf) node.  One message per created child. *)
let rec grow ~route_messages t dht n =
  if not (covered_by_host dht n) then begin
    let parts = Region.split n.region t.k in
    Array.iteri
      (fun i part ->
        if (not (Region.is_empty part)) && n.children.(i) = None then begin
          let child =
            plant ~route_messages t dht ~from:n.host part (n.depth + 1)
          in
          t.msg <- t.msg + 1;
          n.children.(i) <- Some child;
          invalidate_assignment t;
          grow ~route_messages t dht child
        end
        else
          match n.children.(i) with
          | Some child -> grow ~route_messages t dht child
          | None -> ())
      parts
  end

let build ?(route_messages = false) ~k dht =
  if k < 2 then invalid_arg "Ktree.build: k < 2";
  if Dht.n_vs dht = 0 then invalid_arg "Ktree.build: empty ring";
  (* The root is hosted by the VS owning the centre of the whole
     space, located deterministically (§3.1.1). *)
  let root_key = Region.center Region.whole in
  let root_host = Dht.owner_of_key dht root_key in
  let root =
    {
      region = Region.whole;
      key = root_key;
      depth = 0;
      host = root_host.Dht.vs_id;
      children = Array.make k None;
      tag = -1;
    }
  in
  let t =
    {
      k;
      root;
      msg = 1;
      last_rounds = 0;
      repaired = 0;
      repair_msg = 0;
      obs = None;
      assignment = None;
      n_slots = 0;
    }
  in
  grow ~route_messages t dht root;
  t

let rec iter_nodes f n =
  f n;
  Array.iter (function Some c -> iter_nodes f c | None -> ()) n.children

let depth t =
  let d = ref 0 in
  iter_nodes (fun n -> if n.depth > !d then d := n.depth) t.root;
  !d

let n_nodes t =
  let c = ref 0 in
  iter_nodes (fun _ -> incr c) t.root;
  !c

let n_leaves t =
  let c = ref 0 in
  iter_nodes (fun n -> if is_leaf n then incr c) t.root;
  !c

let leaves t =
  let acc = ref [] in
  iter_nodes (fun n -> if is_leaf n then acc := n :: !acc) t.root;
  List.sort
    (fun a b -> Id.compare (Region.start a.region) (Region.start b.region))
    !acc

let refresh ?(route_messages = false) t dht =
  (* One level of {!grow}: plant the missing children of [n] but do
     not descend into existing subtrees — [visit] below recurses and
     grows each level as it reaches it.  Full [grow] here would make
     the refresh O(nodes * depth): every ancestor re-walks the whole
     subtree.  One message per created child; descent heartbeats
     are visit's. *)
  let grow_level n =
    let parts = Region.split n.region t.k in
    Array.iteri
      (fun i part ->
        if (not (Region.is_empty part)) && n.children.(i) = None then begin
          let child =
            plant ~route_messages t dht ~from:n.host part (n.depth + 1)
          in
          t.msg <- t.msg + 1;
          n.children.(i) <- Some child;
          invalidate_assignment t
        end)
      parts
  in
  let rec visit n =
    (* Re-resolve the hosting VS (the old one may be gone or may no
       longer own the centre key after churn / VS transfer). *)
    let new_host =
      if route_messages then begin
        let v, hops = Dht.lookup dht ~from:n.host ~key:n.key in
        t.msg <- t.msg + hops;
        v
      end
      else Dht.owner_of_key dht n.key
    in
    if new_host.Dht.vs_id <> n.host then begin
      n.host <- new_host.Dht.vs_id;
      invalidate_assignment t;
      (* Re-planting notifies parent and children: at most K+1 msgs. *)
      t.msg <- t.msg + t.k + 1;
      obs_event t "kt/rehost" [ ("depth", P2plb_obs.Trace.Int n.depth) ]
    end;
    if covered_by_host dht n then begin
      (* Became a leaf: prune redundant children. *)
      Array.iteri
        (fun i c ->
          match c with
          | Some _ ->
            t.msg <- t.msg + 1;
            n.children.(i) <- None;
            invalidate_assignment t
          | None -> ())
        n.children
    end
    else begin
      grow_level n;
      Array.iter
        (function
          | Some c ->
            t.msg <- t.msg + 1 (* heartbeat *);
            visit c
          | None -> ())
        n.children
    end
  in
  (* The root's host may have changed; it is re-located determin-
     istically at the centre of the whole space. *)
  visit t.root

(* A KT node is broken when its hosting VS left the ring (its owner
   died) or still exists but no longer owns the node's centre key (the
   region boundary moved under churn). *)
let broken dht n =
  match Dht.vs_of_id dht n.host with
  | None -> true
  | Some _ -> (Dht.owner_of_key dht n.key).Dht.vs_id <> n.host

let repair ?(route_messages = false) t dht =
  let repaired_now = ref 0 in
  (* Re-plant one broken node.  [from] is a VS known to be live (the
     nearest live ancestor's host) that issues the recovery lookup; if
     even that is gone, the key's new owner discovers the orphan
     locally (zero hops). *)
  let replant ~from n =
    let host =
      if route_messages then begin
        let from =
          match Dht.vs_of_id dht from with
          | Some _ -> from
          | None -> (Dht.owner_of_key dht n.key).Dht.vs_id
        in
        let v, hops = Dht.lookup dht ~from ~key:n.key in
        t.msg <- t.msg + hops;
        t.repair_msg <- t.repair_msg + hops;
        v
      end
      else Dht.owner_of_key dht n.key
    in
    n.host <- host.Dht.vs_id;
    invalidate_assignment t;
    (* Re-planting notifies parent and children: at most K+1 msgs. *)
    t.msg <- t.msg + t.k + 1;
    t.repair_msg <- t.repair_msg + t.k + 1;
    t.repaired <- t.repaired + 1;
    obs_event t "kt/replant" [ ("depth", P2plb_obs.Trace.Int n.depth) ];
    incr repaired_now
  in
  let rec visit ~from n =
    if broken dht n then replant ~from n;
    if covered_by_host dht n then
      (* Became a leaf (e.g. its host absorbed a dead neighbour's
         region): prune now-redundant children. *)
      Array.iteri
        (fun i c ->
          match c with
          | Some _ ->
            t.msg <- t.msg + 1;
            t.repair_msg <- t.repair_msg + 1;
            n.children.(i) <- None;
            invalidate_assignment t
          | None -> ())
        n.children
    else begin
      (* Like {!grow}, but heal every child before descending so
         recovery lookups are never issued from a dead VS, and charge
         the re-grown subtree to the repair budget. *)
      let parts = Region.split n.region t.k in
      Array.iteri
        (fun i part ->
          if (not (Region.is_empty part)) && n.children.(i) = None then begin
            let m0 = t.msg in
            let child =
              plant ~route_messages t dht ~from:n.host part (n.depth + 1)
            in
            t.msg <- t.msg + 1;
            t.repair_msg <- t.repair_msg + (t.msg - m0);
            n.children.(i) <- Some child;
            invalidate_assignment t;
            visit ~from:n.host child
          end
          else
            match n.children.(i) with
            | Some child -> visit ~from:n.host child
            | None -> ())
        parts
    end
  in
  visit ~from:t.root.host t.root;
  !repaired_now

let check_consistent t dht =
  let error = ref None in
  let fail fmt = Format.kasprintf (fun s -> if !error = None then error := Some s) fmt in
  if not (Region.is_whole t.root.region) then fail "root region is not the whole ring";
  let seen_leaf_vs = Hashtbl.create 256 in
  let rec visit n =
    if n.key <> Region.center n.region then
      fail "KT node key %a is not its region centre" Id.pp n.key;
    (match Dht.vs_of_id dht n.host with
    | None -> fail "KT node at %a planted in missing VS %a" Id.pp n.key Id.pp n.host
    | Some v ->
      let owner = Dht.owner_of_key dht n.key in
      if owner.Dht.vs_id <> v.Dht.vs_id then
        fail "KT node at %a planted in VS %a but key owned by %a" Id.pp n.key
          Id.pp n.host Id.pp owner.Dht.vs_id;
      let leaf = is_leaf n in
      let cov = Region.covers ~outer:(Dht.region_of_vs dht v) ~inner:n.region in
      if leaf && not cov then
        fail "leaf at %a not covered by its hosting VS" Id.pp n.key;
      if (not leaf) && cov then
        fail "covered node at %a still has children" Id.pp n.key;
      if leaf then Hashtbl.replace seen_leaf_vs n.host ());
    if not (is_leaf n) then begin
      let parts = Region.split n.region t.k in
      Array.iteri
        (fun i c ->
          match c with
          | Some child ->
            if not (Region.equal child.region parts.(i)) then
              fail "child %d of node at %a has wrong region" i Id.pp n.key;
            if child.depth <> n.depth + 1 then
              fail "child depth mismatch under %a" Id.pp n.key;
            visit child
          | None ->
            if not (Region.is_empty parts.(i)) then
              fail "missing child %d (non-empty region) under %a" i Id.pp n.key)
        n.children
    end
  in
  visit t.root;
  (* Every VS must host at least one leaf (§3.1). *)
  Dht.fold_vs dht ~init:() ~f:(fun () v ->
      if not (Hashtbl.mem seen_leaf_vs v.Dht.vs_id) then
        fail "VS %a hosts no KT leaf" Id.pp v.Dht.vs_id);
  match !error with None -> Ok () | Some e -> Error e

let fold_nodes t ~init ~f =
  let acc = ref init in
  iter_nodes (fun n -> acc := f !acc n) t.root;
  !acc

let leaf_assignment t =
  match t.assignment with
  | Some table -> table
  | None ->
    let table : (Id.t, kt_node) Hashtbl.t = Hashtbl.create 256 in
    iter_nodes
      (fun n ->
        if is_leaf n then
          match Hashtbl.find_opt table n.host with
          | Some existing when existing.depth >= n.depth -> ()
          | _ -> Hashtbl.replace table n.host n)
      t.root;
    (* Second deterministic pass: number the assigned leaves in tree
       order (ordinals back the array-indexed rendezvous in Vsa/Lbi)
       and clear stale tags everywhere else. *)
    let next = ref 0 in
    iter_nodes
      (fun n ->
        if
          is_leaf n
          && match Hashtbl.find_opt table n.host with
             | Some winner -> winner == n
             | None -> false
        then begin
          n.tag <- !next;
          incr next
        end
        else n.tag <- -1)
      t.root;
    t.assignment <- Some table;
    t.n_slots <- !next;
    table

let leaf_slot n = n.tag
let n_leaf_slots t = t.n_slots

let sweep_up t ~at_leaf ~combine =
  let max_depth = ref 0 in
  let rec visit n =
    if n.depth > !max_depth then max_depth := n.depth;
    if is_leaf n then at_leaf n
    else begin
      let child_results =
        Array.fold_left
          (fun acc c ->
            match c with
            | Some child ->
              t.msg <- t.msg + 1;
              visit child :: acc
            | None -> acc)
          [] n.children
      in
      combine n (List.rev child_results)
    end
  in
  let result = visit t.root in
  t.last_rounds <- !max_depth + 1;
  result

let sweep_down t ~at_root ~split ~at_leaf =
  let max_depth = ref 0 in
  let rec visit n value =
    if n.depth > !max_depth then max_depth := n.depth;
    if is_leaf n then at_leaf n value
    else
      Array.iter
        (function
          | Some child ->
            t.msg <- t.msg + 1;
            visit child (split child value)
          | None -> ())
        n.children
  in
  visit t.root at_root;
  t.last_rounds <- !max_depth + 1
