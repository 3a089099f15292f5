module Prng = P2plb_prng.Prng
module Id = P2plb_idspace.Id
module Region = P2plb_idspace.Region
module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree
module Leaf_reports = P2plb_ktree.Leaf_reports
module Landmark = P2plb_landmark.Landmark
module Hilbert = P2plb_hilbert.Hilbert
module Faults = P2plb_sim.Faults

type mode =
  | Ignorant
  | Aware of {
      space : Landmark.space;
      order : int;
      curve : Hilbert.curve;
      binning : Landmark.binning;
    }

type result = {
  assignments : Types.assignment list;
  unassigned : Pairing.pool;
  n_heavy : int;
  n_light : int;
  n_neutral : int;
  shed_offered : int;
  load_offered : float;
  publish_hops : int;
  direct_messages : int;
  rounds : int;
  stale_dropped : int;
  records_lost : int;
  assignments_lost : int;
}

let default_threshold = 30

(* Per-node VSA records of a node of class [cls] and load [load]: what
   a heavy node offers, or a light node's spare capacity. *)
let records_of_class ~epsilon ~(lbi : Types.lbi) cls ~load (n : Dht.node) :
    Types.vsa_record list =
  match cls with
  | Types.Neutral -> []
  | Types.Light ->
    let target =
      Classify.target_load ~lbi ~epsilon ~capacity:n.Dht.capacity
    in
    [ Types.Light { deficit = target -. load; light_node = n.Dht.node_id } ]
  | Types.Heavy ->
    let target =
      Classify.target_load ~lbi ~epsilon ~capacity:n.Dht.capacity
    in
    let need = load -. target in
    let loads =
      Array.of_list (List.map (fun v -> (v.Dht.vs_id, v.Dht.load)) n.Dht.vss)
    in
    let shed = Excess.choose_shed ~keep_at_least:0 ~loads need in
    List.map
      (fun (vs_id, vs_load) ->
        Types.Shed { vs_load; vs_id; heavy_node = n.Dht.node_id })
      shed

let node_records ~epsilon ~lbi (n : Dht.node) =
  let load = Dht.node_load n in
  records_of_class ~epsilon ~lbi
    (Classify.classify ~lbi ~epsilon ~load ~capacity:n.Dht.capacity)
    ~load n

(* Aware-mode delivery.  One stable sort on (slot, clockwise offset of
   the key from the owner's region start, descending) puts each slot's
   records in the order its VS reports them. *)
let deliver_published dht ~slot_of_vs published reports =
  let tagged =
    List.filter_map
      (fun (key, r) ->
        let owner = Dht.owner_of_key dht key in
        let slot = slot_of_vs owner.Dht.vs_id in
        if slot < 0 then None
        else
          let start = Region.start (Dht.region_of_vs dht owner) in
          Some (slot, Id.distance_cw start key, r))
      published
  in
  List.iter
    (fun (slot, _, r) -> Leaf_reports.push reports slot r)
    (List.stable_sort
       (fun (s1, o1, _) (s2, o2, _) ->
         match Int.compare s1 s2 with 0 -> Int.compare o2 o1 | c -> c)
       tagged)

(* A record is stale when its reporter died (or a shed VS was absorbed
   or re-owned) between reporting and rendezvous; pairing it would only
   produce a doomed transfer, so the rendezvous drops it. *)
let record_fresh dht = function
  | Types.Shed s -> (
    Dht.is_alive dht s.Types.heavy_node
    &&
    match Dht.vs_of_id dht s.Types.vs_id with
    | Some v -> v.Dht.owner = s.Types.heavy_node
    | None -> false)
  | Types.Light l -> Dht.is_alive dht l.Types.light_node

let run ?(threshold = default_threshold) ?(epsilon = 0.0) ?faults
    ?(route_messages = false) ~mode ~rng ~lbi tree dht =
  (* Heal KT nodes orphaned by churn since the last sweep, so record
     injection and the rendezvous sweep run against live hosts. *)
  ignore (Ktree.repair ~route_messages tree dht);
  let f = Faults.or_none faults in
  let send () =
    match Faults.send f with
    | Faults.Delivered attempts -> Some attempts
    | Faults.Lost -> None
  in
  let records_lost = ref 0 in
  let stale_dropped = ref 0 in
  let assignments_lost = ref 0 in
  let n_heavy = ref 0 and n_light = ref 0 and n_neutral = ref 0 in
  let publish_hops = ref 0 in
  let published = ref [] in
  let shed_offered = ref 0 and load_offered = ref 0.0 in
  let reports = Leaf_reports.buffer () in
  let slot_of_vs = Ktree.slot_of_vs tree in
  (* Classify every node once, collect its records and route each to a
     KT leaf according to the mode — one fused pass in alive-node order
     (classification draws no randomness, so collection and routing
     interleave without perturbing the per-record PRNG/fault stream). *)
  let failed =
    match mode with
    | Ignorant -> []
    | Aware { space; _ } -> Faults.failed_landmarks f ~m:(Landmark.m space)
  in
  (* The sender of one node's records: in aware mode the node's DHT
     key is computed once, then each record draws its reporting VS and
     its send in turn. *)
  let router (n : Dht.node) =
    match mode with
    | Ignorant -> (
      fun r ->
        let v = Dht.report_vs dht rng n in
        match send () with
        | None -> incr records_lost
        | Some _ ->
          let slot = slot_of_vs v.Dht.vs_id in
          if slot >= 0 then Leaf_reports.push reports slot r)
    | Aware { space; order; curve; binning } -> (
      let key =
        Landmark.dht_key ~curve ~binning ~failed space ~order n.Dht.underlay
      in
      fun r ->
        let from = (Dht.report_vs dht rng n).Dht.vs_id in
        match send () with
        | None -> incr records_lost
        | Some _ ->
          let _, hops = Dht.lookup dht ~from ~key in
          publish_hops := !publish_hops + hops;
          published := (key, r) :: !published)
  in
  Dht.fold_nodes dht ~init:() ~f:(fun () n ->
      let load = Dht.node_load n in
      let cls =
        Classify.classify ~lbi ~epsilon ~load ~capacity:n.Dht.capacity
      in
      (match cls with
      | Types.Heavy -> incr n_heavy
      | Types.Light -> incr n_light
      | Types.Neutral -> incr n_neutral);
      match records_of_class ~epsilon ~lbi cls ~load n with
      | [] -> ()
      | records ->
        let route = router n in
        List.iter
          (fun r ->
            (match r with
            | Types.Shed s ->
              incr shed_offered;
              load_offered := !load_offered +. s.Types.vs_load
            | Types.Light _ -> ());
            route r)
          records);
  (* Aware mode published into the DHT: every VS now reports what
     landed in its region to its designated leaf. *)
  deliver_published dht ~slot_of_vs (List.rev !published) reports;
  let grouped = Leaf_reports.group reports in
  (* Scratch buffers for the per-leaf freshness partition, reused by
     every leaf of the sweep (grown on demand, filled with the pushed
     element so no dummy values are needed). *)
  let shed_scratch = ref ([||] : Types.shed_vs array) in
  let shed_n = ref 0 in
  let light_scratch = ref ([||] : Types.light_slot array) in
  let light_n = ref 0 in
  let push_shed s =
    if !shed_n >= Array.length !shed_scratch then begin
      let cap = Int.max 64 (2 * Array.length !shed_scratch) in
      let a = Array.make cap s in
      Array.blit !shed_scratch 0 a 0 !shed_n;
      shed_scratch := a
    end;
    !shed_scratch.(!shed_n) <- s;
    incr shed_n
  in
  let push_light l =
    if !light_n >= Array.length !light_scratch then begin
      let cap = Int.max 64 (2 * Array.length !light_scratch) in
      let a = Array.make cap l in
      Array.blit !light_scratch 0 a 0 !light_n;
      light_scratch := a
    end;
    !light_scratch.(!light_n) <- l;
    incr light_n
  in
  let add_if_fresh r =
    if record_fresh dht r then
      match r with
      | Types.Shed s -> push_shed s
      | Types.Light l -> push_light l
    else incr stale_dropped
  in
  let fresh_pool slot =
    shed_n := 0;
    light_n := 0;
    Leaf_reports.iter grouped slot add_if_fresh;
    Pairing.of_slices !shed_scratch !shed_n !light_scratch !light_n
  in
  (* Bottom-up rendezvous sweep. *)
  let assignments = ref [] in
  let direct_messages = ref 0 in
  let notify (a : Types.assignment) =
    (* Both endpoints must learn of the pairing; either notification
       timing out abandons the assignment (its entries are simply not
       rebalanced this round). *)
    match (send (), send ()) with
    | Some m1, Some m2 ->
      direct_messages := !direct_messages + m1 + m2;
      assignments := a :: !assignments
    | _ -> incr assignments_lost
  in
  let pair_here depth pool =
    let made, leftover = Pairing.pair ~depth ~l_min:lbi.Types.l_min pool in
    List.iter notify made;
    leftover
  in
  let root_pool =
    (* A leaf without reports adds the empty pool, which merges to
       equal contents and pairs nothing without drawing, so the sweep
       skips those subtrees. *)
    Ktree.sweep_up tree
      ~occupied:(fun slot -> Leaf_reports.size grouped slot > 0)
      ~at_leaf:(fun slot depth ->
        if Leaf_reports.size grouped slot = 0 then Pairing.empty
        else begin
          let pool = fresh_pool slot in
          if Pairing.size pool >= threshold then pair_here depth pool
          else pool
        end)
      ~combine:(fun depth children ->
        let pool = List.fold_left Pairing.merge Pairing.empty children in
        if depth = 0 || Pairing.size pool >= threshold then
          pair_here depth pool
        else pool)
  in
  {
    assignments = List.rev !assignments;
    unassigned = root_pool;
    n_heavy = !n_heavy;
    n_light = !n_light;
    n_neutral = !n_neutral;
    shed_offered = !shed_offered;
    load_offered = !load_offered;
    publish_hops = !publish_hops;
    direct_messages = !direct_messages;
    rounds = Ktree.rounds_last_sweep tree;
    stale_dropped = !stale_dropped;
    records_lost = !records_lost;
    assignments_lost = !assignments_lost;
  }
