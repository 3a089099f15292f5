module Id = P2plb_idspace.Id
module Region = P2plb_idspace.Region
module Dht = P2plb_chord.Dht

(* The tree is never stored.  A KT node is an interval [start, start +
   len) reached by K-ary splitting of the ring, and all it needs to know
   about the ring follows from the VS ids inside that interval, which
   occupy an index range [lo, hi) of the sorted id array: the host is
   the first of them at or after the centre (else the next id clockwise)
   and the node is a leaf when no id cuts the interval.  Each descent
   narrows the range by binary search, so a walk allocates no nodes. *)

type node = { region : Region.t; depth : int; host : Id.t; leaf : bool }

type t = {
  k : int;
  (* The DHT's ring ids at the last sync ({!Dht.ring_ids}, shared and
     never mutated): the tree the sweeps traverse. *)
  mutable ids : int array;
  (* Per VS rank: its designated leaf as [pack depth start], or -1. *)
  mutable leaf_of : int array;
  (* Per VS rank: KT nodes planted in the VS. *)
  mutable hosted : int array;
  mutable n_nodes : int;
  mutable n_leaves : int;
  mutable depth : int;
  mutable msg : int;
  mutable last_rounds : int;
  mutable repaired : int;
  mutable repair_msg : int;
  mutable obs : P2plb_obs.Obs.t option;
}

let set_obs t obs = t.obs <- Some obs

let obs_event t name depth =
  match t.obs with
  | None -> ()
  | Some o ->
    P2plb_obs.Trace.point (P2plb_obs.Obs.trace o) name
      ~attrs:[ ("depth", P2plb_obs.Trace.Int depth) ];
    P2plb_obs.Registry.add
      (P2plb_obs.Registry.counter (P2plb_obs.Obs.metrics o) name)
      1

let k t = t.k
let depth t = t.depth
let n_nodes t = t.n_nodes
let n_leaves t = t.n_leaves
let messages t = t.msg
let rounds_last_sweep t = t.last_rounds
let repairs t = t.repaired
let repair_messages t = t.repair_msg

let reset_counters t =
  t.msg <- 0;
  t.last_rounds <- 0;
  t.repaired <- 0;
  t.repair_msg <- 0

(* ---- the walk -------------------------------------------------------- *)

(* First index in [lo, hi) whose id is >= x, or [hi]. *)
let lower_bound ids lo hi x =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if ids.(mid) >= x then hi := mid else lo := mid + 1
  done;
  !lo

(* Rank of the VS owning the node's centre key. *)
let host_rank ids ~start ~len lo hi =
  let i = lower_bound ids lo hi (start + (len / 2)) in
  if i < hi then i else if hi = Array.length ids then 0 else hi

(* §3.1's leaf test: the host covers the interval exactly when no id
   lies in [start, start + len - 2]. *)
let is_leaf ids ~start ~len lo hi =
  Array.length ids = 1 || hi = lo || (hi = lo + 1 && ids.(lo) = start + len - 1)

(* The non-empty parts of [Region.split] of an interval of length
   [len]: how many there are, and the length of part [i]. *)
let n_parts k len = if len / k = 0 then len mod k else k
let part_len k len i = (len / k) + if i < len mod k then 1 else 0

(* [f start len lo hi] on each non-empty part, in order, with the
   sub-range of [lo, hi) its ids occupy. *)
let iter_children k ids ~start ~len lo hi f =
  let s = ref start and clo = ref lo in
  for i = 0 to n_parts k len - 1 do
    let l = part_len k len i in
    let chi = lower_bound ids !clo hi (!s + l) in
    f !s l !clo chi;
    s := !s + l;
    clo := chi
  done

(* A leaf is named by its depth and start; depth is the high part, so a
   deeper leaf also compares greater. *)
let pack depth start = (depth lsl Id.bits) lor start

(* The leaf's slot when it is its host's designated leaf, else -1. *)
let slot t ~start ~len depth lo hi =
  let r = host_rank t.ids ~start ~len lo hi in
  if t.leaf_of.(r) = pack depth start then r else -1

(* ---- sync: build, repair and refresh --------------------------------- *)

type mode = Build | Repair | Refresh

(* The ring still has exactly the ids of the last sync: the DHT hands
   out a new id array only when a VS joins or leaves (a VS transfer
   keeps its id, so it changes nothing here). *)
let unchanged t dht = t.ids == Dht.ring_ids dht

(* Descends the tree of the current ring beside the tree of the last
   sync, adopts the ring's id array, and charges what the distributed
   maintenance would send: K+1 per node whose host changed (it tells
   its parent and children), one per pruned child and one per planted
   node.  A repair re-plants from the parent's healed host, or at the
   root from the old host if it is still in the ring; a plant looks
   up from the parent's current host; only build and repair route
   lookups.  Returns the hosts changed. *)
let sync ~mode ~route_messages t dht =
  let k = t.k and oids = t.ids and ids = Dht.ring_ids dht in
  let n = Array.length ids in
  if n = 0 then invalid_arg "Ktree: empty ring";
  let leaf_of = Array.make n (-1) and hosted = Array.make n 0 in
  let n_nodes = ref 0 and n_leaves = ref 0 and depth = ref 0 in
  let moved = ref 0 in
  let charge m =
    t.msg <- t.msg + m;
    if mode = Repair then t.repair_msg <- t.repair_msg + m
  in
  let lookup ~from key =
    if route_messages then charge (snd (Dht.lookup dht ~from ~key))
  in
  (* [old]: the node existed at the last sync, its ids there in
     [olo, ohi). *)
  let rec visit ~start ~len ~d lo hi ~old olo ohi ~parent =
    let r = host_rank ids ~start ~len lo hi in
    let host = ids.(r) and leaf = is_leaf ids ~start ~len lo hi in
    incr n_nodes;
    if leaf then incr n_leaves;
    if d > !depth then depth := d;
    hosted.(r) <- hosted.(r) + 1;
    (* designated leaf: the deepest, the first in preorder on a tie *)
    if leaf && (leaf_of.(r) < 0 || leaf_of.(r) lsr Id.bits < d) then
      leaf_of.(r) <- pack d start;
    let children_old =
      if old then begin
        let old_host = oids.(host_rank oids ~start ~len olo ohi) in
        if old_host <> host then begin
          lookup
            ~from:
              (if d > 0 then parent
               else if Dht.vs_of_id dht old_host <> None then old_host
               else host)
            (start + (len / 2));
          charge (k + 1);
          incr moved;
          obs_event t (if mode = Repair then "kt/replant" else "kt/rehost") d
        end;
        let old_leaf = is_leaf oids ~start ~len olo ohi in
        if leaf && not old_leaf then charge (Int.min k len);
        not old_leaf
      end
      else begin
        if d > 0 then lookup ~from:parent (start + (len / 2));
        charge 1;
        false
      end
    in
    if not leaf then begin
      let oclo = ref olo in
      iter_children k ids ~start ~len lo hi (fun s l clo chi ->
          let ochi =
            if children_old then lower_bound oids !oclo ohi (s + l) else !oclo
          in
          visit ~start:s ~len:l ~d:(d + 1) clo chi ~old:children_old !oclo
            ochi ~parent:host;
          oclo := ochi)
    end
  in
  visit ~start:0 ~len:Id.space_size ~d:0 0 n ~old:(mode <> Build) 0
    (Array.length oids) ~parent:0;
  t.ids <- ids;
  t.leaf_of <- leaf_of;
  t.hosted <- hosted;
  t.n_nodes <- !n_nodes;
  t.n_leaves <- !n_leaves;
  t.depth <- !depth;
  !moved

let build ?(route_messages = false) ~k dht =
  if k < 2 then invalid_arg "Ktree.build: k < 2";
  let t =
    {
      k;
      ids = [||];
      leaf_of = [||];
      hosted = [||];
      n_nodes = 0;
      n_leaves = 0;
      depth = 0;
      msg = 0;
      last_rounds = 0;
      repaired = 0;
      repair_msg = 0;
      obs = None;
    }
  in
  ignore (sync ~mode:Build ~route_messages t dht);
  t

let repair ?(route_messages = false) t dht =
  if unchanged t dht then 0
  else begin
    let moved = sync ~mode:Repair ~route_messages t dht in
    t.repaired <- t.repaired + moved;
    moved
  end

let refresh t dht =
  if not (unchanged t dht) then
    ignore (sync ~mode:Refresh ~route_messages:false t dht);
  (* one heartbeat per parent-child edge *)
  t.msg <- t.msg + t.n_nodes - 1

(* ---- queries over the last sync -------------------------------------- *)

let slot_of_vs t id =
  let n = Array.length t.ids in
  let i = lower_bound t.ids 0 n id in
  if i < n && t.ids.(i) = id then i else -1

let hosted t id =
  match slot_of_vs t id with -1 -> 0 | r -> t.hosted.(r)

let fold_nodes t ~init ~f =
  let ids = t.ids in
  let rec visit acc ~start ~len d lo hi =
    let leaf = is_leaf ids ~start ~len lo hi in
    let host = ids.(host_rank ids ~start ~len lo hi) in
    let region = Region.make ~start ~len in
    let acc = f acc { region; depth = d; host; leaf } in
    if leaf then acc
    else begin
      let acc = ref acc in
      iter_children t.k ids ~start ~len lo hi (fun s l clo chi ->
          acc := visit !acc ~start:s ~len:l (d + 1) clo chi);
      !acc
    end
  in
  visit init ~start:0 ~len:Id.space_size 0 0 (Array.length ids)

(* Hosts and leafness come from the DHT here, not from the walk's range
   arithmetic, so the check is independent of it. *)
let check_consistent t dht =
  let error = ref None in
  let fail fmt =
    Format.kasprintf (fun s -> if !error = None then error := Some s) fmt
  in
  let hosts_leaf = Hashtbl.create 256 in
  let nodes, depth =
    fold_nodes t ~init:(0, 0) ~f:(fun (nodes, depth) n ->
        let key = Region.center n.region in
        (match Dht.vs_of_id dht n.host with
        | None ->
          fail "KT node at %a planted in missing VS %a" Id.pp key Id.pp n.host
        | Some v ->
          let owner = Dht.owner_of_key dht key in
          if owner.Dht.vs_id <> n.host then
            fail "KT node at %a planted in VS %a but key owned by %a" Id.pp key
              Id.pp n.host Id.pp owner.Dht.vs_id;
          let cov =
            Region.covers ~outer:(Dht.region_of_vs dht v) ~inner:n.region
          in
          if n.leaf && not cov then
            fail "leaf at %a not covered by its hosting VS" Id.pp key;
          if (not n.leaf) && cov then
            fail "covered node at %a still has children" Id.pp key;
          if n.leaf then Hashtbl.replace hosts_leaf n.host ());
        (nodes + 1, Int.max depth n.depth))
  in
  if nodes <> t.n_nodes then
    fail "n_nodes %d but %d nodes walked" t.n_nodes nodes;
  if depth <> t.depth then fail "depth %d but %d walked" t.depth depth;
  (* Every VS must host at least one leaf (§3.1). *)
  Dht.fold_vs dht ~init:() ~f:(fun () v ->
      if not (Hashtbl.mem hosts_leaf v.Dht.vs_id) then
        fail "VS %a hosts no KT leaf" Id.pp v.Dht.vs_id);
  match !error with None -> Ok () | Some e -> Error e

(* ---- sweeps ---------------------------------------------------------- *)

(* The up-sweep descends only into subtrees holding an occupied
   designated leaf: the sorted starts of those leaves are narrowed
   beside the id range, and a child is entered when its interval still
   holds one.  Each leaf has its own start, so a leaf reached this way
   is an occupied designated leaf.  Messages and rounds are those of
   the whole tree. *)
let sweep_up t ~occupied ~at_leaf ~combine =
  let ids = t.ids and mask = (1 lsl Id.bits) - 1 in
  let starts = ref [] in
  Array.iteri
    (fun r packed ->
      if packed >= 0 && occupied r then starts := (packed land mask) :: !starts)
    t.leaf_of;
  let starts = Array.of_list !starts in
  Array.sort Int.compare starts;
  let rec visit ~start ~len d lo hi plo phi =
    if is_leaf ids ~start ~len lo hi then at_leaf (slot t ~start ~len d lo hi) d
    else combine d (children ~len d 0 start lo hi plo phi)
  (* The visited results of parts [i], [i + 1], ... of a node of length
     [len] at depth [d]; part [i] starts at [s], its ids at index [clo]
     and its occupied starts at index [p]. *)
  and children ~len d i s clo hi p phi =
    if i = n_parts t.k len then []
    else begin
      let l = part_len t.k len i in
      let chi = lower_bound ids clo hi (s + l) in
      let pchi = lower_bound starts p phi (s + l) in
      if pchi = p then children ~len d (i + 1) (s + l) chi hi pchi phi
      else
        let r = visit ~start:s ~len:l (d + 1) clo chi p pchi in
        r :: children ~len d (i + 1) (s + l) chi hi pchi phi
    end
  in
  let result =
    visit ~start:0 ~len:Id.space_size 0 0 (Array.length ids) 0
      (Array.length starts)
  in
  t.msg <- t.msg + t.n_nodes - 1;
  t.last_rounds <- t.depth + 1;
  result

let sweep_down t ~at_leaf =
  for _ = 1 to t.n_leaves do
    at_leaf ()
  done;
  t.msg <- t.msg + t.n_nodes - 1;
  t.last_rounds <- t.depth + 1
