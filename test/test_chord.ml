module Id = P2plb_idspace.Id
module Region = P2plb_idspace.Region
module Dht = P2plb_chord.Dht
module Ring_map = P2plb_chord.Ring_map
module Prng = P2plb_prng.Prng
module Ktree = P2plb_ktree.Ktree

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let build_dht ~seed ~nodes ~vs =
  let dht : Dht.t = Dht.create ~seed in
  for i = 0 to nodes - 1 do
    ignore (Dht.join dht ~capacity:(float_of_int (1 + (i mod 3))) ~underlay:i ~n_vs:vs)
  done;
  dht

(* ---- Ring_map ---------------------------------------------------------- *)

let test_ring_map_successor () =
  let m = Ring_map.empty |> Ring_map.add 10 "a" |> Ring_map.add 100 "b" in
  check Alcotest.(option (pair int string)) "exact" (Some (10, "a"))
    (Ring_map.successor 10 m);
  check Alcotest.(option (pair int string)) "between" (Some (100, "b"))
    (Ring_map.successor 11 m);
  check Alcotest.(option (pair int string)) "wraps" (Some (10, "a"))
    (Ring_map.successor 101 m);
  check Alcotest.(option (pair int string)) "strict skips" (Some (100, "b"))
    (Ring_map.successor_strict 10 m);
  check Alcotest.(option (pair int string)) "pred" (Some (10, "a"))
    (Ring_map.predecessor_strict 100 m);
  check Alcotest.(option (pair int string)) "pred wraps" (Some (100, "b"))
    (Ring_map.predecessor_strict 5 m)

(* ---- membership -------------------------------------------------------- *)

let test_join_counts () =
  let dht = build_dht ~seed:1 ~nodes:10 ~vs:5 in
  check Alcotest.int "nodes" 10 (Dht.n_nodes dht);
  check Alcotest.int "vss" 50 (Dht.n_vs dht);
  Dht.fold_nodes dht ~init:() ~f:(fun () n ->
      check Alcotest.int "5 per node" 5 (List.length n.Dht.vss))

let test_regions_partition_ring () =
  let dht = build_dht ~seed:2 ~nodes:20 ~vs:3 in
  let total =
    Dht.fold_vs dht ~init:0 ~f:(fun acc v ->
        acc + Region.len (Dht.region_of_vs dht v))
  in
  check Alcotest.int "regions cover ring exactly" Id.space_size total

let test_owner_matches_region () =
  let dht = build_dht ~seed:3 ~nodes:10 ~vs:4 in
  let rng = Prng.create ~seed:99 in
  for _ = 1 to 200 do
    let key = Prng.int rng Id.space_size in
    let owner = Dht.owner_of_key dht key in
    check Alcotest.bool "key in owner region" true
      (Region.contains (Dht.region_of_vs dht owner) key)
  done

let test_load_conserved_by_join () =
  let dht = build_dht ~seed:4 ~nodes:10 ~vs:3 in
  Dht.fold_vs dht ~init:() ~f:(fun () v -> Dht.set_vs_load dht v 1.0);
  let before = Dht.total_load dht in
  ignore (Dht.join dht ~capacity:1.0 ~underlay:0 ~n_vs:5);
  let after = Dht.total_load dht in
  check Alcotest.bool "join conserves load" true (abs_float (before -. after) < 1e-9)

let test_load_conserved_by_leave () =
  let dht = build_dht ~seed:5 ~nodes:10 ~vs:3 in
  Dht.fold_vs dht ~init:() ~f:(fun () v -> Dht.set_vs_load dht v 2.0);
  let before = Dht.total_load dht in
  Dht.crash dht 3;
  check Alcotest.int "node count drops" 9 (Dht.n_nodes dht);
  check Alcotest.int "vs count drops" 27 (Dht.n_vs dht);
  check Alcotest.bool "leave conserves load" true
    (abs_float (before -. Dht.total_load dht) < 1e-9);
  check Alcotest.bool "dead" false (Dht.is_alive dht 3)

let test_regions_partition_after_churn () =
  let dht = build_dht ~seed:6 ~nodes:15 ~vs:3 in
  Dht.crash dht 2;
  Dht.crash dht 7;
  ignore (Dht.join dht ~capacity:5.0 ~underlay:1 ~n_vs:4);
  let total =
    Dht.fold_vs dht ~init:0 ~f:(fun acc v ->
        acc + Region.len (Dht.region_of_vs dht v))
  in
  check Alcotest.int "still a partition" Id.space_size total

(* ---- transfer / removal ------------------------------------------------ *)

let test_transfer_vs () =
  let dht = build_dht ~seed:7 ~nodes:5 ~vs:2 in
  let n0 = Dht.node dht 0 in
  let v = List.hd n0.Dht.vss in
  Dht.set_vs_load dht v 7.5;
  let region_before = Dht.region_of_vs dht v in
  Dht.transfer_vs dht ~vs_id:v.Dht.vs_id ~to_node:3;
  check Alcotest.int "owner changed" 3 v.Dht.owner;
  check Alcotest.int "source sheds it" 1 (List.length (Dht.node dht 0).Dht.vss);
  check Alcotest.int "target gains it" 3 (List.length (Dht.node dht 3).Dht.vss);
  check Alcotest.bool "load moves with it" true
    (abs_float (v.Dht.load -. 7.5) < 1e-9);
  check Alcotest.bool "region unchanged" true
    (Region.equal region_before (Dht.region_of_vs dht v))

let test_transfer_to_dead_fails () =
  let dht = build_dht ~seed:8 ~nodes:5 ~vs:2 in
  let v = List.hd (Dht.node dht 0).Dht.vss in
  Dht.crash dht 4;
  Alcotest.check_raises "dead target"
    (Invalid_argument "Dht.transfer_vs: dead target") (fun () ->
      Dht.transfer_vs dht ~vs_id:v.Dht.vs_id ~to_node:4)

let test_remove_vs_absorbs () =
  let dht = build_dht ~seed:9 ~nodes:5 ~vs:2 in
  Dht.fold_vs dht ~init:() ~f:(fun () v -> Dht.set_vs_load dht v 1.0);
  let before = Dht.total_load dht in
  let v = List.hd (Dht.node dht 2).Dht.vss in
  Dht.remove_vs dht ~vs_id:v.Dht.vs_id;
  check Alcotest.int "one fewer vs" 9 (Dht.n_vs dht);
  check Alcotest.bool "load conserved" true
    (abs_float (before -. Dht.total_load dht) < 1e-9)

let test_report_vs_fallback () =
  let dht = build_dht ~seed:10 ~nodes:3 ~vs:2 in
  let rng = Prng.create ~seed:1 in
  let n = Dht.node dht 1 in
  (* shed everything from node 1 *)
  List.iter
    (fun v -> Dht.transfer_vs dht ~vs_id:v.Dht.vs_id ~to_node:0)
    n.Dht.vss;
  check Alcotest.int "empty node" 0 (List.length (Dht.node dht 1).Dht.vss);
  (* report_vs still works *)
  let v = Dht.report_vs dht rng (Dht.node dht 1) in
  check Alcotest.bool "some vs" true (Dht.vs_of_id dht v.Dht.vs_id <> None)

(* ---- routing & storage -------------------------------------------------- *)

let test_lookup_finds_owner () =
  let dht = build_dht ~seed:11 ~nodes:30 ~vs:4 in
  let rng = Prng.create ~seed:5 in
  Dht.fold_vs dht ~init:() ~f:(fun () from_vs ->
      let key = Prng.int rng Id.space_size in
      let found, hops = Dht.lookup dht ~from:from_vs.Dht.vs_id ~key in
      let owner = Dht.owner_of_key dht key in
      check Alcotest.int "routes to owner" owner.Dht.vs_id found.Dht.vs_id;
      check Alcotest.bool "hops >= 0" true (hops >= 0))

let test_lookup_own_key_zero_hops () =
  let dht = build_dht ~seed:12 ~nodes:10 ~vs:3 in
  Dht.fold_vs dht ~init:() ~f:(fun () v ->
      let _, hops = Dht.lookup dht ~from:v.Dht.vs_id ~key:v.Dht.vs_id in
      check Alcotest.int "own key is local" 0 hops)

let test_lookup_hop_bound () =
  let dht = build_dht ~seed:13 ~nodes:100 ~vs:5 in
  let rng = Prng.create ~seed:6 in
  let max_hops = ref 0 in
  for _ = 1 to 500 do
    let from = (Dht.owner_of_key dht (Prng.int rng Id.space_size)).Dht.vs_id in
    let key = Prng.int rng Id.space_size in
    let _, hops = Dht.lookup dht ~from ~key in
    if hops > !max_hops then max_hops := hops
  done;
  (* 500 VSs: greedy finger routing stays within ~2 log2(n) = 18 *)
  check Alcotest.bool "O(log n) hops" true (!max_hops <= 20)

let test_counters () =
  let dht = build_dht ~seed:16 ~nodes:20 ~vs:3 in
  Dht.reset_counters dht;
  let from = (Dht.owner_of_key dht 0).Dht.vs_id in
  ignore (Dht.lookup dht ~from ~key:123);
  ignore (Dht.lookup dht ~from ~key:456);
  check Alcotest.int "lookups" 2 (Dht.lookups_performed dht);
  check Alcotest.bool "hops recorded" true (Dht.hops_used dht >= 0);
  Dht.reset_counters dht;
  check Alcotest.int "reset" 0 (Dht.lookups_performed dht)

let prop_join_leave_partition =
  QCheck.Test.make ~name:"regions always partition the ring" ~count:50
    QCheck.(pair small_int (int_range 2 20))
    (fun (seed, nodes) ->
      let dht = build_dht ~seed ~nodes ~vs:3 in
      let rng = Prng.create ~seed:(seed + 1) in
      (* random churn *)
      for _ = 1 to 5 do
        if Prng.bool rng && Dht.n_nodes dht > 1 then begin
          let alive = Array.of_list (Dht.alive_nodes dht) in
          Dht.crash dht (Prng.choose rng alive).Dht.node_id
        end
        else ignore (Dht.join dht ~capacity:1.0 ~underlay:0 ~n_vs:2)
      done;
      let total =
        Dht.fold_vs dht ~init:0 ~f:(fun acc v ->
            acc + Region.len (Dht.region_of_vs dht v))
      in
      total = Id.space_size)

let max_id = Id.space_size - 1

let test_join_with_ids () =
  let dht = Dht.create ~seed:0 in
  ignore (Dht.join_with_ids dht ~capacity:1.0 ~underlay:0 [ 0; max_id ]);
  check Alcotest.(list int) "chosen ids" [ 0; max_id ]
    (Dht.fold_vs dht ~init:[] ~f:(fun acc v -> v.Dht.vs_id :: acc) |> List.rev);
  List.iter
    (fun ids ->
      match Dht.join_with_ids dht ~capacity:1.0 ~underlay:1 ids with
      | _ -> Alcotest.fail "bad ids accepted"
      | exception Invalid_argument _ -> ())
    [ []; [ 0 ]; [ 5; 5 ]; [ Id.space_size ] ]

(* ---- one-probe fingers against the scanning reference ---------------- *)

module Scan = Chord_scan_reference

(* A ring of one of five shapes: hashed ids from [join], one VS, two
   VSs, both ends of the id space among random ids, or a tight cluster
   around the wrap point.  Chosen ids get one node each. *)
let shaped_ring rng shape =
  let random_id () = Prng.int rng Id.space_size in
  let ends () = [| 0; max_id; random_id () |].(Prng.int rng 3) in
  let ids =
    match shape with
    | 0 -> []
    | 1 -> [ ends () ]
    | 2 ->
      let a = ends () in
      let rec other () = let b = random_id () in if b = a then other () else b in
      [ a; (if Prng.bool rng then (a + 1) land max_id else other ()) ]
    | 3 -> 0 :: max_id :: List.init (Prng.int rng 30) (fun _ -> random_id ())
    | _ -> List.init (1 + Prng.int rng 12) (fun i -> (i - 6) land max_id)
  in
  match List.sort_uniq Int.compare ids with
  | [] -> build_dht ~seed:(Prng.int rng 1000) ~nodes:(1 + Prng.int rng 20)
            ~vs:(1 + Prng.int rng 4)
  | ids ->
    let dht = Dht.create ~seed:0 in
    List.iteri
      (fun i id ->
        ignore (Dht.join_with_ids dht ~capacity:1.0 ~underlay:i [ id ]))
      ids;
    dht

let prop_one_probe_finger_matches_scan =
  QCheck.Test.make ~name:"lookup = scanning reference (owner, hops)"
    ~count:200
    QCheck.(pair small_int (int_range 0 4))
    (fun (seed, shape) ->
      let rng = Prng.create ~seed in
      let dht = shaped_ring rng shape in
      let ids = Scan.ring_ids dht in
      let n = Array.length ids in
      let succ id = ids.(Scan.successor_idx ids ((id + 1) land max_id)) in
      let pred id = ids.((Scan.lower_bound ids id + n - 1) mod n) in
      Array.iter
        (fun from ->
          let keys =
            [ from; (from + 1) land max_id; succ from; pred from; 0; max_id ]
            @ List.init 8 (fun _ -> Prng.int rng Id.space_size)
          in
          List.iter
            (fun key ->
              let owner, hops = Dht.lookup dht ~from ~key in
              check
                Alcotest.(pair int int)
                (Printf.sprintf "seed %d shape %d from %d key %d" seed shape
                   from key)
                (Scan.lookup dht ~from ~key)
                (owner.Dht.vs_id, hops))
            keys)
        ids;
      true)

(* ---- model-based: node table, ring snapshot, tree sync ------------------ *)

(* Membership and load operations; VS and node arguments are picks,
   reduced modulo what exists when the step runs, except [Crash],
   whose raw id may be unknown or negative. *)
type op =
  | Join of int
  | Join_ids of int list
  | Crash of int
  | Transfer of int * int
  | Set_load of int * float
  | Remove of int

let print_op = function
  | Join n -> Printf.sprintf "Join %d" n
  | Join_ids ids ->
    Printf.sprintf "Join_ids [%s]"
      (String.concat ";" (List.map string_of_int ids))
  | Crash id -> Printf.sprintf "Crash %d" id
  | Transfer (v, n) -> Printf.sprintf "Transfer (%d, %d)" v n
  | Set_load (v, l) -> Printf.sprintf "Set_load (%d, %g)" v l
  | Remove v -> Printf.sprintf "Remove %d" v

(* Chosen ids crowd both ends of the id space, so they collide with
   each other and cut the tree deep. *)
let chosen_id x = if x < 16 then x else Id.space_size - 1 - (x - 16)

(* Draws are let-bound so their order does not depend on the
   compiler's argument evaluation order. *)
let op_arb =
  Prop.make ~print:print_op (fun rng ->
      let pick () = Prng.int rng 1000 in
      match Prng.int rng 6 with
      | 0 -> Join (1 + Prng.int rng 3)
      | 1 ->
        Join_ids
          (Prop.init_in_order (Prng.int rng 3) (fun _ ->
               chosen_id (Prng.int rng 32)))
      | 2 -> Crash (Prng.int rng 24 - 2)
      | 3 ->
        let v = pick () in
        Transfer (v, pick ())
      | 4 ->
        let v = pick () in
        Set_load (v, Prng.float rng 10.0)
      | _ -> Remove (pick ()))

(* Runs [ops] on a DHT beside a model (join-ordered node ids with their
   alive flags, and each VS id with its owner), checking the node
   table, the ring snapshot and a K-nary tree repaired after every
   step. *)
let prop_dht_matches_model (k, ops) =
  let dht = Dht.create ~seed:k in
  let nodes = ref [] and vss = ref [] in
  let joined id =
    check Alcotest.int "dense node ids" (List.length !nodes) id;
    nodes := !nodes @ [ (id, true) ];
    List.iter
      (fun v ->
        check Alcotest.bool "new VS id" false (List.mem_assoc v.Dht.vs_id !vss);
        vss := (v.Dht.vs_id, id) :: !vss)
      (Dht.node dht id).Dht.vss;
    vss := List.sort (fun (a, _) (b, _) -> Int.compare a b) !vss
  in
  joined (Dht.join dht ~capacity:1.0 ~underlay:0 ~n_vs:2);
  let tree = Ktree.build ~route_messages:true ~k dht in
  let refused f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  let step op =
    let before = List.map fst !vss and prev = Dht.ring_ids dht in
    let n_joined = List.length !nodes in
    let vs_at p = prev.(p mod Array.length prev) in
    (match op with
    | Join n -> joined (Dht.join dht ~capacity:1.0 ~underlay:0 ~n_vs:n)
    | Join_ids l ->
      let f () = Dht.join_with_ids dht ~capacity:1.0 ~underlay:0 l in
      if
        l <> []
        && List.length (List.sort_uniq Int.compare l) = List.length l
        && not (List.exists (fun id -> List.mem id before) l)
      then joined (f ())
      else check Alcotest.bool "bad ids refused" true (refused f)
    | Crash id ->
      let known = id >= 0 && id < n_joined in
      let is_alive = known && List.assoc id !nodes in
      let hosted = List.filter (fun (_, o) -> o = id) !vss in
      let allowed =
        is_alive
        && List.length (List.filter snd !nodes) > 1
        && List.length hosted < List.length !vss
      in
      check Alcotest.bool "can_crash" allowed (Dht.can_crash dht id);
      if not known then
        check Alcotest.bool "unknown node refused" true
          (match Dht.crash dht id with
          | () -> false
          | exception Not_found -> true)
      else if is_alive && not allowed then
        check Alcotest.bool "emptying crash refused" true
          (refused (fun () -> Dht.crash dht id))
      else begin
        Dht.crash dht id;
        nodes := List.map (fun (i, a) -> (i, a && i <> id)) !nodes;
        vss := List.filter (fun (_, o) -> o <> id) !vss
      end
    | Transfer (v, n) ->
      let vs_id = vs_at v and to_node = n mod n_joined in
      let f () = Dht.transfer_vs dht ~vs_id ~to_node in
      if List.assoc to_node !nodes then begin
        f ();
        vss :=
          List.map (fun (i, o) -> (i, if i = vs_id then to_node else o)) !vss
      end
      else check Alcotest.bool "dead target refused" true (refused f)
    | Set_load (v, l) -> (
      match Dht.vs_of_id dht (vs_at v) with
      | Some vs -> Dht.set_vs_load dht vs l
      | None -> Alcotest.fail "ring_ids names a missing VS")
    | Remove v ->
      let vs_id = vs_at v in
      let f () = Dht.remove_vs dht ~vs_id in
      if List.length before > 1 then begin
        f ();
        vss := List.remove_assoc vs_id !vss
      end
      else check Alcotest.bool "last VS kept" true (refused f));
    let after = List.map fst !vss in
    let changed = not (List.equal Int.equal before after) in
    (* node table *)
    let with_flag flag =
      List.filter_map (fun (i, a) -> if a = flag then Some i else None) !nodes
    in
    let ids_of = List.map (fun n -> n.Dht.node_id) in
    let alive_ids = with_flag true in
    check Alcotest.int "n_nodes" (List.length alive_ids) (Dht.n_nodes dht);
    check Alcotest.(list int) "alive_nodes" alive_ids
      (ids_of (Dht.alive_nodes dht));
    check Alcotest.(list int) "dead_nodes" (with_flag false)
      (ids_of (Dht.dead_nodes dht));
    check Alcotest.(list int) "fold_nodes" alive_ids
      (List.rev
         (Dht.fold_nodes dht ~init:[] ~f:(fun acc n -> n.Dht.node_id :: acc)));
    List.iteri
      (fun i id ->
        check Alcotest.int "alive_nth" id (Dht.alive_nth dht i).Dht.node_id)
      alive_ids;
    List.iter
      (fun i ->
        check Alcotest.bool "alive_nth out of range" true
          (refused (fun () -> Dht.alive_nth dht i)))
      [ -1; List.length alive_ids ];
    List.iter
      (fun (i, a) ->
        let n = Dht.node dht i in
        check Alcotest.int "node" i n.Dht.node_id;
        check Alcotest.bool "is_alive" a (Dht.is_alive dht i);
        check Alcotest.(list int) "hosted VSs"
          (List.filter_map (fun (v, o) -> if o = i then Some v else None) !vss)
          (List.sort Int.compare (List.map (fun v -> v.Dht.vs_id) n.Dht.vss)))
      !nodes;
    List.iter
      (fun id ->
        check Alcotest.bool "unknown id is not alive" false
          (Dht.is_alive dht id);
        check Alcotest.bool "unknown id" true
          (match Dht.node dht id with _ -> false | exception Not_found -> true))
      [ -1; min_int; n_joined + 1; List.length !nodes ];
    (* ring snapshot *)
    let ring = Dht.ring_ids dht in
    check Alcotest.(list int) "ring_ids = model" after (Array.to_list ring);
    check Alcotest.(list int) "ring_ids = fold_vs" after
      (List.rev
         (Dht.fold_vs dht ~init:[] ~f:(fun acc v -> v.Dht.vs_id :: acc)));
    check Alcotest.bool "same array iff same ids" (not changed) (ring == prev);
    (* tree sync *)
    let msgs = Ktree.messages tree and rmsgs = Ktree.repair_messages tree in
    let replanted = Ktree.repair ~route_messages:true tree dht in
    if not changed then begin
      check Alcotest.int "unchanged ring: nothing re-planted" 0 replanted;
      check Alcotest.int "unchanged ring: no messages" msgs
        (Ktree.messages tree);
      check Alcotest.int "unchanged ring: no repair messages" rmsgs
        (Ktree.repair_messages tree)
    end
    else begin
      let fresh = Ktree.build ~k dht in
      check Alcotest.(result unit string) "repaired tree consistent" (Ok ())
        (Ktree.check_consistent tree dht);
      check Alcotest.int "n_nodes = fresh build" (Ktree.n_nodes fresh)
        (Ktree.n_nodes tree);
      check Alcotest.int "depth = fresh build" (Ktree.depth fresh)
        (Ktree.depth tree)
    end
  in
  List.iter step ops;
  true

let test_dht_model () =
  Prop.run ~count:150 ~seed:0xd47 ~name:"dht matches model"
    (Prop.pair (Prop.int_in 2 4) (Prop.list_of ~max_len:40 op_arb))
    prop_dht_matches_model

let () =
  Alcotest.run "chord"
    [
      ( "ring_map",
        [
          Alcotest.test_case "successor" `Quick test_ring_map_successor;
        ] );
      ( "membership",
        [
          Alcotest.test_case "join counts" `Quick test_join_counts;
          Alcotest.test_case "join with chosen ids" `Quick test_join_with_ids;
          Alcotest.test_case "regions partition" `Quick
            test_regions_partition_ring;
          Alcotest.test_case "owner matches region" `Quick
            test_owner_matches_region;
          Alcotest.test_case "join conserves load" `Quick
            test_load_conserved_by_join;
          Alcotest.test_case "leave conserves load" `Quick
            test_load_conserved_by_leave;
          Alcotest.test_case "partition after churn" `Quick
            test_regions_partition_after_churn;
        ] );
      ( "transfer",
        [
          Alcotest.test_case "transfer_vs" `Quick test_transfer_vs;
          Alcotest.test_case "transfer to dead" `Quick
            test_transfer_to_dead_fails;
          Alcotest.test_case "remove_vs absorbs" `Quick test_remove_vs_absorbs;
          Alcotest.test_case "report_vs fallback" `Quick
            test_report_vs_fallback;
        ] );
      ( "routing",
        [
          Alcotest.test_case "lookup finds owner" `Quick
            test_lookup_finds_owner;
          Alcotest.test_case "own key 0 hops" `Quick
            test_lookup_own_key_zero_hops;
          Alcotest.test_case "hop bound" `Quick test_lookup_hop_bound;
          Alcotest.test_case "counters" `Quick test_counters;
        ] );
      ( "properties",
        [
          qtest prop_join_leave_partition;
          qtest prop_one_probe_finger_matches_scan;
          Alcotest.test_case "dht matches model"
            `Quick test_dht_model;
        ] );
    ]
