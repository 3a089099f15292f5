module Prng = P2plb_prng.Prng
module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree
module Leaf_reports = P2plb_ktree.Leaf_reports
module Faults = P2plb_sim.Faults

let node_lbi (n : Dht.node) : Types.lbi =
  let l = Dht.node_load n in
  let l_min =
    List.fold_left (fun acc v -> Float.min acc v.Dht.load) infinity n.Dht.vss
  in
  { l; c = n.Dht.capacity; l_min }

let zero_lbi : Types.lbi = { l = 0.0; c = 0.0; l_min = infinity }

(* A report/disseminate send under fault injection: retried with
   bounded backoff; [false] means the sender timed out and the message
   is lost for this round (the round degrades gracefully rather than
   stalling).  The all-zero plan delivers every send untouched. *)
let reliable f =
  match Faults.send f with Faults.Delivered _ -> true | Faults.Lost -> false

let aggregate ~rng ?faults ?(route_messages = false) tree dht =
  if Dht.n_nodes dht = 0 then invalid_arg "Lbi.aggregate: no alive nodes";
  (* Heal the tree before sweeping: KT nodes whose hosting VS died (or
     lost its key) since the tree was built are re-planted, so reports
     always find a live leaf. *)
  ignore (Ktree.repair ~route_messages tree dht);
  (* Each node reports through one randomly chosen VS (to avoid
     redundant per-node reports); the VS hands the report to its
     designated KT leaf. *)
  let f = Faults.or_none faults in
  let reports = Leaf_reports.buffer () in
  Dht.fold_nodes dht ~init:() ~f:(fun () n ->
      let v = Dht.report_vs dht rng n in
      if reliable f then begin
        let slot = Ktree.slot_of_vs tree v.Dht.vs_id in
        if slot >= 0 then Leaf_reports.push reports slot (node_lbi n)
      end);
  let grouped = Leaf_reports.group reports in
  (* A leaf without reports contributes [zero_lbi], a unit of the
     combine (loads are >= 0), so the sweep skips those subtrees. *)
  Ktree.sweep_up tree
    ~occupied:(fun slot -> Leaf_reports.size grouped slot > 0)
    ~at_leaf:(fun slot _ ->
      (* Newest-first: the float sums keep the order every LBI digest
         was pinned with. *)
      Leaf_reports.fold_newest_first grouped slot ~init:zero_lbi
        ~f:Types.lbi_combine)
    ~combine:(fun _ children ->
      List.fold_left Types.lbi_combine zero_lbi children)

let disseminate ?faults ?(route_messages = false) tree dht _lbi =
  (* Nodes may have died during aggregation; re-plant before pushing
     the root value back down. *)
  ignore (Ktree.repair ~route_messages tree dht);
  let f = Faults.or_none faults in
  (* The final hop, leaf -> reporting VS, rides the same lossy links
     as the reports; losses are retried and, at worst, counted as
     timeouts (the stale-LBI node re-reads it next round).  Every KT
     leaf sends it, designated or not, so a fault plan draws once per
     leaf: the loss stream does not depend on which leaves had
     reports. *)
  Ktree.sweep_down tree ~at_leaf:(fun () -> ignore (reliable f))

let run ~rng ?faults ?route_messages tree dht =
  let lbi = aggregate ~rng ?faults ?route_messages tree dht in
  disseminate ?faults ?route_messages tree dht lbi;
  lbi
