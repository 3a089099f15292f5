module Id = P2plb_idspace.Id
module Region = P2plb_idspace.Region
module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree
module Prng = P2plb_prng.Prng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let build_dht ~seed ~nodes ~vs =
  let dht : Dht.t = Dht.create ~seed in
  for i = 0 to nodes - 1 do
    ignore (Dht.join dht ~capacity:1.0 ~underlay:i ~n_vs:vs)
  done;
  dht

let expect_consistent tree dht =
  match Ktree.check_consistent tree dht with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_build_consistent () =
  let dht = build_dht ~seed:1 ~nodes:30 ~vs:4 in
  let tree = Ktree.build ~k:2 dht in
  expect_consistent tree dht

let test_build_k8_consistent () =
  let dht = build_dht ~seed:2 ~nodes:30 ~vs:4 in
  let tree = Ktree.build ~k:8 dht in
  expect_consistent tree dht;
  check Alcotest.int "k" 8 (Ktree.k tree)

let test_single_vs_is_root_leaf () =
  let dht = build_dht ~seed:3 ~nodes:1 ~vs:1 in
  let tree = Ktree.build ~k:2 dht in
  check Alcotest.int "one node" 1 (Ktree.n_nodes tree);
  check Alcotest.bool "root is leaf" true
    (Ktree.fold_nodes tree ~init:true ~f:(fun acc n -> acc && n.Ktree.leaf));
  expect_consistent tree dht

let test_root_region_whole () =
  let dht = build_dht ~seed:4 ~nodes:10 ~vs:2 in
  let tree = Ktree.build ~k:2 dht in
  let root = Ktree.fold_nodes tree ~init:None ~f:(fun acc n ->
      match acc with None -> Some n | Some _ -> acc) in
  check Alcotest.bool "root owns everything" true
    (Region.is_whole (Option.get root).Ktree.region)

(* Each VS's designated leaf by the §3.2 rule, recomputed from
   [fold_nodes]: its deepest leaf, the first in preorder on a tie.
   Returns the designated leaves' hosts in preorder. *)
let designated_hosts tree =
  let leaves =
    List.rev
      (Ktree.fold_nodes tree ~init:[] ~f:(fun acc n ->
           if n.Ktree.leaf then n :: acc else acc))
  in
  let best = Hashtbl.create 64 in
  List.iteri
    (fun i n ->
      match Hashtbl.find_opt best n.Ktree.host with
      | Some (_, d) when d >= n.Ktree.depth -> ()
      | _ -> Hashtbl.replace best n.Ktree.host (i, n.Ktree.depth))
    leaves;
  List.filteri
    (fun i n -> fst (Hashtbl.find best n.Ktree.host) = i)
    leaves
  |> List.map (fun n -> n.Ktree.host)

(* The slots [sweep_up] hands its leaves, in preorder. *)
let swept_slots ~occupied tree =
  Ktree.sweep_up tree ~occupied
    ~at_leaf:(fun slot _ -> [ slot ])
    ~combine:(fun _ children -> List.concat children)

let test_every_vs_hosts_a_leaf () =
  (* The §3.1 guarantee; check_consistent verifies it, but assert every
     VS has a slot, and that a sweep with every slot occupied reaches
     exactly the designated leaves, each handed its host's slot. *)
  let dht = build_dht ~seed:5 ~nodes:25 ~vs:3 in
  let tree = Ktree.build ~k:2 dht in
  Dht.fold_vs dht ~init:() ~f:(fun () v ->
      check Alcotest.bool "VS has a slot" true
        (Ktree.slot_of_vs tree v.Dht.vs_id >= 0));
  check Alcotest.int "one designated leaf per VS" (Dht.n_vs dht)
    (List.length (designated_hosts tree));
  check Alcotest.(list int) "designated leaves, with their hosts' slots"
    (List.map (Ktree.slot_of_vs tree) (designated_hosts tree))
    (swept_slots ~occupied:(fun _ -> true) tree)

let test_leaves_partition_ring () =
  let dht = build_dht ~seed:6 ~nodes:20 ~vs:3 in
  let tree = Ktree.build ~k:2 dht in
  let total =
    Ktree.fold_nodes tree ~init:0 ~f:(fun acc n ->
        if n.Ktree.leaf then acc + Region.len n.Ktree.region else acc)
  in
  check Alcotest.int "leaf regions partition the ring" Id.space_size total

let test_depth_bounded () =
  let dht = build_dht ~seed:7 ~nodes:50 ~vs:4 in
  let t2 = Ktree.build ~k:2 dht in
  check Alcotest.bool "k=2 depth <= 32" true (Ktree.depth t2 <= Id.bits);
  let t8 = Ktree.build ~k:8 dht in
  check Alcotest.bool "k=8 shallower" true (Ktree.depth t8 < Ktree.depth t2)

let test_sweep_up_counts_leaves () =
  let dht = build_dht ~seed:8 ~nodes:15 ~vs:3 in
  let tree = Ktree.build ~k:2 dht in
  let slots = List.map (Ktree.slot_of_vs tree) (designated_hosts tree) in
  let odd slot = slot mod 2 = 1 in
  check Alcotest.(list int) "sweep_up visits the occupied leaves"
    (List.filter odd slots) (swept_slots ~occupied:odd tree);
  check Alcotest.(list int) "and every designated leaf when all are"
    slots (swept_slots ~occupied:(fun _ -> true) tree);
  let root_children =
    Ktree.sweep_up tree
      ~occupied:(fun _ -> false)
      ~at_leaf:(fun _ _ -> Alcotest.fail "unoccupied leaf visited")
      ~combine:(fun d children -> (d, List.length children))
  in
  check Alcotest.(pair int int) "none occupied: the bare root" (0, 0)
    root_children;
  check Alcotest.int "rounds recorded" (Ktree.depth tree + 1)
    (Ktree.rounds_last_sweep tree)

let test_sweep_down_reaches_leaves () =
  let dht = build_dht ~seed:9 ~nodes:15 ~vs:3 in
  let tree = Ktree.build ~k:2 dht in
  let leaves =
    Ktree.fold_nodes tree ~init:0 ~f:(fun acc n ->
        if n.Ktree.leaf then acc + 1 else acc)
  in
  let hits = ref 0 in
  Ktree.sweep_down tree ~at_leaf:(fun () -> incr hits);
  check Alcotest.int "n_leaves" leaves (Ktree.n_leaves tree);
  check Alcotest.int "one call per leaf" leaves !hits

let test_sweep_messages_counted () =
  let dht = build_dht ~seed:10 ~nodes:10 ~vs:2 in
  let tree = Ktree.build ~k:2 dht in
  Ktree.reset_counters tree;
  ignore
    (Ktree.sweep_up tree
       ~occupied:(fun _ -> false)
       ~at_leaf:(fun _ _ -> ())
       ~combine:(fun _ _ -> ()));
  (* one message per edge = n_nodes - 1, however few nodes are visited *)
  check Alcotest.int "edges traversed" (Ktree.n_nodes tree - 1)
    (Ktree.messages tree)

let test_refresh_idempotent_on_stable_ring () =
  let dht = build_dht ~seed:11 ~nodes:20 ~vs:3 in
  let tree = Ktree.build ~k:2 dht in
  let nodes_before = Ktree.n_nodes tree in
  Ktree.refresh tree dht;
  check Alcotest.int "no structural change" nodes_before (Ktree.n_nodes tree);
  expect_consistent tree dht

let test_refresh_repairs_after_crash () =
  let dht = build_dht ~seed:12 ~nodes:20 ~vs:3 in
  let tree = Ktree.build ~k:2 dht in
  Dht.crash dht 5;
  Dht.crash dht 11;
  Ktree.refresh tree dht;
  expect_consistent tree dht

let test_refresh_grows_after_join () =
  let dht = build_dht ~seed:13 ~nodes:10 ~vs:2 in
  let tree = Ktree.build ~k:2 dht in
  for i = 0 to 4 do
    ignore (Dht.join dht ~capacity:1.0 ~underlay:(100 + i) ~n_vs:3)
  done;
  Ktree.refresh tree dht;
  expect_consistent tree dht

let test_refresh_survives_heavy_churn () =
  let dht = build_dht ~seed:14 ~nodes:30 ~vs:3 in
  let tree = Ktree.build ~k:2 dht in
  let rng = Prng.create ~seed:77 in
  for _ = 1 to 10 do
    if Prng.bool rng && Dht.n_nodes dht > 2 then begin
      let alive = Array.of_list (Dht.alive_nodes dht) in
      Dht.crash dht (Prng.choose rng alive).Dht.node_id
    end
    else ignore (Dht.join dht ~capacity:1.0 ~underlay:0 ~n_vs:2);
    Ktree.refresh tree dht
  done;
  expect_consistent tree dht

let test_refresh_after_vs_transfer () =
  (* Lazy migration: a transfer does not change which VS hosts a KT
     node, so the tree stays consistent after refresh. *)
  let dht = build_dht ~seed:15 ~nodes:10 ~vs:3 in
  let tree = Ktree.build ~k:2 dht in
  let v = List.hd (Dht.node dht 0).Dht.vss in
  Dht.transfer_vs dht ~vs_id:v.Dht.vs_id ~to_node:5;
  Ktree.refresh tree dht;
  expect_consistent tree dht

(* ---- message-count formulas ------------------------------------------- *)

(* Every KT node as "start+len depth host", in tree order: two trees
   with equal shapes give equal lists. *)
let shape tree =
  List.rev
    (Ktree.fold_nodes tree ~init:[] ~f:(fun acc n ->
         Printf.sprintf "%d+%d d%d h%d"
           (Region.start n.Ktree.region)
           (Region.len n.Ktree.region)
           n.Ktree.depth n.Ktree.host
         :: acc))

let shape_t = Alcotest.(list string)

let test_build_costs_one_message_per_node () =
  let dht = build_dht ~seed:17 ~nodes:25 ~vs:3 in
  let tree = Ktree.build ~route_messages:false ~k:2 dht in
  (* the root plus one message per planted child *)
  check Alcotest.int "build = n_nodes" (Ktree.n_nodes tree)
    (Ktree.messages tree)

let test_sweeps_cost_one_message_per_edge () =
  let dht = build_dht ~seed:18 ~nodes:25 ~vs:3 in
  let tree = Ktree.build ~k:2 dht in
  let edges = Ktree.n_nodes tree - 1 in
  Ktree.reset_counters tree;
  ignore
    (Ktree.sweep_up tree
       ~occupied:(fun slot -> slot mod 3 = 0)
       ~at_leaf:(fun _ _ -> ())
       ~combine:(fun _ _ -> ()));
  check Alcotest.int "sweep_up = n_nodes - 1" edges (Ktree.messages tree);
  Ktree.reset_counters tree;
  Ktree.sweep_down tree ~at_leaf:ignore;
  check Alcotest.int "sweep_down = n_nodes - 1" edges (Ktree.messages tree)

let test_refresh_stable_ring_costs_heartbeats () =
  let dht = build_dht ~seed:19 ~nodes:25 ~vs:3 in
  let tree = Ktree.build ~k:2 dht in
  let before = shape tree in
  Ktree.reset_counters tree;
  Ktree.refresh tree dht;
  check Alcotest.int "one heartbeat per edge" (Ktree.n_nodes tree - 1)
    (Ktree.messages tree);
  check shape_t "shape unchanged" before (shape tree)

let test_refresh_after_crashes_matches_fresh_build () =
  List.iter
    (fun seed ->
      let dht = build_dht ~seed ~nodes:30 ~vs:3 in
      let tree = Ktree.build ~k:2 dht in
      let rng = Prng.create ~seed:(seed + 1000) in
      for _ = 1 to 6 do
        let alive = Array.of_list (Dht.alive_nodes dht) in
        Dht.crash dht (Prng.choose rng alive).Dht.node_id
      done;
      Ktree.refresh tree dht;
      check shape_t
        (Printf.sprintf "seed %d: refresh = fresh build" seed)
        (shape (Ktree.build ~k:2 dht))
        (shape tree))
    [ 20; 21; 22; 23; 24 ]

let test_fold_nodes_count () =
  let dht = build_dht ~seed:16 ~nodes:12 ~vs:2 in
  let tree = Ktree.build ~k:2 dht in
  let count = Ktree.fold_nodes tree ~init:0 ~f:(fun acc _ -> acc + 1) in
  check Alcotest.int "fold visits all" (Ktree.n_nodes tree) count

let prop_tree_consistent_for_any_ring =
  QCheck.Test.make ~name:"tree consistent on random rings" ~count:25
    QCheck.(triple small_int (int_range 1 25) (int_range 1 5))
    (fun (seed, nodes, vs) ->
      let dht = build_dht ~seed ~nodes ~vs in
      let tree = Ktree.build ~k:2 dht in
      Result.is_ok (Ktree.check_consistent tree dht))

let prop_k8_consistent =
  QCheck.Test.make ~name:"k=8 tree consistent on random rings" ~count:15
    QCheck.(pair small_int (int_range 1 20))
    (fun (seed, nodes) ->
      let dht = build_dht ~seed ~nodes ~vs:3 in
      let tree = Ktree.build ~k:8 dht in
      Result.is_ok (Ktree.check_consistent tree dht))

(* ---- agreement with the pointer reference ----------------------------- *)

(* The stored pointer tree this module replaced, kept as a reference:
   both trees follow one random ring history side by side, and after
   every step everything they expose must agree. *)
module Ref = Ktree_reference

let node_string ~start ~len ~depth ~host ~leaf =
  Printf.sprintf "%d+%d d%d h%d%s" start len depth host
    (if leaf then " leaf" else "")

let ref_shape r =
  List.rev
    (Ref.fold_nodes r ~init:[] ~f:(fun acc n ->
         node_string ~start:(Region.start n.Ref.region)
           ~len:(Region.len n.Ref.region) ~depth:n.Ref.depth ~host:n.Ref.host
           ~leaf:(Ref.is_leaf n)
         :: acc))

let imp_shape t =
  List.rev
    (Ktree.fold_nodes t ~init:[] ~f:(fun acc n ->
         node_string ~start:(Region.start n.Ktree.region)
           ~len:(Region.len n.Ktree.region) ~depth:n.Ktree.depth
           ~host:n.Ktree.host ~leaf:n.Ktree.leaf
         :: acc))

(* Up-sweep results as nested terms, a leaf written "depth*slot".  The
   reference sweeps densely, every leaf reporting whether it is an
   occupied designated leaf, and drops the terms of subtrees without
   one; the root is always kept.  Its slots come from the leaves'
   hosts, so agreement also checks that the implicit sweep hands each
   leaf its host's slot. *)
let ref_sweep_up r t ~occupied =
  ignore (Ref.leaf_assignment r);
  snd
    (Ref.sweep_up r
       ~at_leaf:(fun l ->
         let slot =
           if Ref.leaf_slot l >= 0 then Ktree.slot_of_vs t l.Ref.host else -1
         in
         (slot >= 0 && occupied slot, Printf.sprintf "%d*%d" l.Ref.depth slot))
       ~combine:(fun n cs ->
         let kept = List.filter fst cs in
         ( List.exists fst cs,
           Printf.sprintf "%d(%s)" n.Ref.depth
             (String.concat " " (List.map snd kept)) )))

let imp_sweep_up t ~occupied =
  Ktree.sweep_up t ~occupied
    ~at_leaf:(fun slot d -> Printf.sprintf "%d*%d" d slot)
    ~combine:(fun d cs -> Printf.sprintf "%d(%s)" d (String.concat " " cs))

(* Leaves the down-sweeps reach. *)
let ref_sweep_down r =
  let n = ref 0 in
  Ref.sweep_down r ~at_root:() ~split:(fun _ v -> v) ~at_leaf:(fun _ () -> incr n);
  !n

let imp_sweep_down t =
  let n = ref 0 in
  Ktree.sweep_down t ~at_leaf:(fun () -> incr n);
  !n

let agree ~what ~pick r t dht (r_obs, t_obs) =
  let ctx s = Printf.sprintf "%s: %s" what s in
  let int name a b = check Alcotest.int (ctx name) a b in
  int "n_nodes" (Ref.n_nodes r) (Ktree.n_nodes t);
  int "depth" (Ref.depth r) (Ktree.depth t);
  check shape_t (ctx "shape") (ref_shape r) (imp_shape t);
  let table = Ref.leaf_assignment r in
  let ids =
    List.sort_uniq Int.compare
      (Dht.fold_vs dht ~init:[] ~f:(fun acc v -> v.Dht.vs_id :: acc)
      @ Ref.fold_nodes r ~init:[] ~f:(fun acc n -> n.Ref.host :: acc))
  in
  List.iter
    (fun id ->
      check Alcotest.bool (ctx "VS has a designated leaf")
        (Hashtbl.mem table id)
        (Ktree.slot_of_vs t id >= 0);
      int "hosted"
        (Ref.fold_nodes r ~init:0 ~f:(fun c n ->
             if n.Ref.host = id then c + 1 else c))
        (Ktree.hosted t id))
    ids;
  let occupied_slots = List.map (Ktree.slot_of_vs t) (List.filter pick ids) in
  let occupied slot = List.exists (Int.equal slot) occupied_slots in
  check Alcotest.string (ctx "sweep_up")
    (ref_sweep_up r t ~occupied) (imp_sweep_up t ~occupied);
  int "n_leaves" (Ref.n_leaves r) (Ktree.n_leaves t);
  int "sweep_down leaves" (ref_sweep_down r) (imp_sweep_down t);
  int "messages" (Ref.messages r) (Ktree.messages t);
  int "rounds_last_sweep" (Ref.rounds_last_sweep r) (Ktree.rounds_last_sweep t);
  int "repairs" (Ref.repairs r) (Ktree.repairs t);
  int "repair_messages" (Ref.repair_messages r) (Ktree.repair_messages t);
  check Alcotest.string (ctx "kt trace")
    (P2plb_obs.Trace.to_jsonl (P2plb_obs.Obs.trace r_obs))
    (P2plb_obs.Trace.to_jsonl (P2plb_obs.Obs.trace t_obs))

(* One random history: ring steps (join, crash, VS transfer) mixed with
   tree steps (build, repair, refresh), both trees checked after each,
   and the check runs both sweeps, so sweeps also see stale trees.  A
   tree step runs on the reference first, then on the implicit tree, and
   each must spend the same DHT lookups and hops. *)
let agreement_run ~route_messages ~k seed =
  let rng = Prng.create ~seed in
  let occ_rng = Prng.create ~seed:(seed + 1_000_003) in
  let nodes = 1 + Prng.int rng 20 in
  let dht = build_dht ~seed ~nodes ~vs:(1 + Prng.int rng 4) in
  let obs = (P2plb_obs.Obs.create (), P2plb_obs.Obs.create ()) in
  let r = ref (Ref.build ~route_messages ~k dht)
  and t = ref (Ktree.build ~route_messages ~k dht) in
  Ref.set_obs !r (fst obs);
  Ktree.set_obs !t (snd obs);
  let both name fr ft =
    let cost f =
      let l0 = Dht.lookups_performed dht and h0 = Dht.hops_used dht in
      let x = f () in
      (x, Dht.lookups_performed dht - l0, Dht.hops_used dht - h0)
    in
    let xr, lr, hr = cost fr in
    let xt, lt, ht = cost ft in
    check Alcotest.int (name ^ " result") xr xt;
    check Alcotest.int (name ^ " lookups") lr lt;
    check Alcotest.int (name ^ " hops") hr ht
  in
  for step = 1 to 30 do
    let what =
      match Prng.int rng 7 with
      | 0 ->
        let n_vs = 1 + Prng.int rng 3 in
        ignore (Dht.join dht ~capacity:1.0 ~underlay:0 ~n_vs);
        "join"
      | 1 ->
        let victims =
          List.filter
            (fun n -> List.length n.Dht.vss < Dht.n_vs dht)
            (Dht.alive_nodes dht)
        in
        if victims <> [] then
          Dht.crash dht (Prng.choose rng (Array.of_list victims)).Dht.node_id;
        "crash"
      | 2 ->
        let vss =
          Array.of_list (Dht.fold_vs dht ~init:[] ~f:(fun a v -> v :: a))
        in
        let alive = Array.of_list (Dht.alive_nodes dht) in
        Dht.transfer_vs dht
          ~vs_id:(Prng.choose rng vss).Dht.vs_id
          ~to_node:(Prng.choose rng alive).Dht.node_id;
        "transfer"
      | 3 ->
        both "build"
          (fun () ->
            r := Ref.build ~route_messages ~k dht;
            Ref.set_obs !r (fst obs);
            0)
          (fun () ->
            t := Ktree.build ~route_messages ~k dht;
            Ktree.set_obs !t (snd obs);
            0);
        "build"
      | 4 | 5 ->
        both "repair"
          (fun () -> Ref.repair ~route_messages !r dht)
          (fun () -> Ktree.repair ~route_messages !t dht);
        "repair"
      | _ ->
        both "refresh"
          (fun () -> Ref.refresh !r dht; 0)
          (fun () -> Ktree.refresh !t dht; 0);
        "refresh"
    in
    (* occupied designated leaves: none, all, or a random subset *)
    let pick =
      match step mod 3 with
      | 0 -> fun _ -> false
      | 1 -> fun _ -> true
      | _ -> fun _ -> Prng.bool occ_rng
    in
    agree ~what:(Printf.sprintf "seed %d k=%d step %d (%s)" seed k step what)
      ~pick !r !t dht obs
  done;
  true

(* A single-VS ring: the root is a leaf, so both sweeps visit it
   whatever is occupied. *)
let test_single_vs_agrees () =
  List.iter
    (fun k ->
      List.iter
        (fun occupied ->
          let dht = build_dht ~seed:31 ~nodes:1 ~vs:1 in
          let obs = (P2plb_obs.Obs.create (), P2plb_obs.Obs.create ()) in
          let r = Ref.build ~k dht and t = Ktree.build ~k dht in
          agree
            ~what:(Printf.sprintf "single VS k=%d occupied %b" k occupied)
            ~pick:(fun _ -> occupied)
            r t dht obs)
        [ false; true ])
    [ 2; 8 ]

let prop_agrees_with_reference ~route_messages =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "agrees with the pointer reference (route_messages %b)"
         route_messages)
    ~count:12
    QCheck.(pair small_int (int_range 0 2))
    (fun (seed, ki) ->
      agreement_run ~route_messages ~k:[| 2; 3; 8 |].(ki) seed)

let () =
  Alcotest.run "ktree"
    [
      ( "construction",
        [
          Alcotest.test_case "consistent k=2" `Quick test_build_consistent;
          Alcotest.test_case "consistent k=8" `Quick test_build_k8_consistent;
          Alcotest.test_case "single vs" `Quick test_single_vs_is_root_leaf;
          Alcotest.test_case "root region" `Quick test_root_region_whole;
          Alcotest.test_case "leaf per VS" `Quick test_every_vs_hosts_a_leaf;
          Alcotest.test_case "leaves partition" `Quick
            test_leaves_partition_ring;
          Alcotest.test_case "depth bounded" `Quick test_depth_bounded;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "sweep_up" `Quick test_sweep_up_counts_leaves;
          Alcotest.test_case "sweep_down" `Quick test_sweep_down_reaches_leaves;
          Alcotest.test_case "messages" `Quick test_sweep_messages_counted;
        ] );
      ( "self-repair",
        [
          Alcotest.test_case "refresh idempotent" `Quick
            test_refresh_idempotent_on_stable_ring;
          Alcotest.test_case "repairs crash" `Quick
            test_refresh_repairs_after_crash;
          Alcotest.test_case "grows after join" `Quick
            test_refresh_grows_after_join;
          Alcotest.test_case "heavy churn" `Quick
            test_refresh_survives_heavy_churn;
          Alcotest.test_case "after transfer" `Quick
            test_refresh_after_vs_transfer;
          Alcotest.test_case "fold_nodes" `Quick test_fold_nodes_count;
        ] );
      ( "message counts",
        [
          Alcotest.test_case "build = n_nodes" `Quick
            test_build_costs_one_message_per_node;
          Alcotest.test_case "sweeps = n_nodes - 1" `Quick
            test_sweeps_cost_one_message_per_edge;
          Alcotest.test_case "refresh on a stable ring" `Quick
            test_refresh_stable_ring_costs_heartbeats;
          Alcotest.test_case "refresh after crashes = fresh build" `Quick
            test_refresh_after_crashes_matches_fresh_build;
        ] );
      ( "properties",
        [
          qtest prop_tree_consistent_for_any_ring;
          qtest prop_k8_consistent;
          Alcotest.test_case "single-VS ring agrees with the reference"
            `Quick test_single_vs_agrees;
          qtest (prop_agrees_with_reference ~route_messages:false);
          qtest (prop_agrees_with_reference ~route_messages:true);
        ] );
    ]
