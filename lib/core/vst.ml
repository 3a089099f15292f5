module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree
module Graph = P2plb_topology.Graph
module Histogram = P2plb_metrics.Histogram
module Faults = P2plb_sim.Faults

(* The transactional protocol's phases, reified so each step has an
   explicit construction site: the runtime guard below and the R8 lint
   both key off these constructors.  Ordering is per assignment —
   Prepare from a fresh state, Transfer after Prepare, Commit after
   Transfer — and the aborted/rollback paths simply never advance. *)
type phase = Prepare | Transfer | Commit

let phase_name p =
  match p with Prepare -> "PREPARE" | Transfer -> "TRANSFER" | Commit -> "COMMIT"

let advance state p =
  let legal =
    match (!state, p) with
    | None, Prepare | Some Prepare, Transfer | Some Transfer, Commit -> true
    | (None | Some _), _ -> false
  in
  if not legal then
    invalid_arg
      (Printf.sprintf "Vst.advance: illegal transition to %s" (phase_name p));
  state := Some p

type result = {
  hist : Histogram.t;
  moved_load : float;
  transfers : int;
  skipped : int;
  skipped_vs_gone : int;
  skipped_owner_changed : int;
  skipped_dest_dead : int;
  aborted : int;
  aborted_prepare_lost : int;
  aborted_partitioned : int;
  aborted_src_crashed : int;
  aborted_dest_crashed : int;
  aborted_commit_lost : int;
  deduped : int;
  restructure_messages : int;
}

let apply ?tree ?obs ?faults ?oracle dht assignments =
  let trace_point name attrs =
    match obs with
    | None -> ()
    | Some o -> P2plb_obs.Trace.point (P2plb_obs.Obs.trace o) name ~attrs
  in
  let hist = Histogram.create () in
  let moved_load = ref 0.0 in
  let transfers = ref 0 in
  let skipped_vs_gone = ref 0 in
  let skipped_owner_changed = ref 0 in
  let skipped_dest_dead = ref 0 in
  let aborted_prepare_lost = ref 0 in
  let aborted_partitioned = ref 0 in
  let aborted_src_crashed = ref 0 in
  let aborted_dest_crashed = ref 0 in
  let aborted_commit_lost = ref 0 in
  let deduped = ref 0 in
  let restructure = ref 0 in
  (* Without a plan an all-zero one stands in: it delivers every send,
     strikes no window crash, duplicates nothing and draws no
     randomness. *)
  let f = Faults.or_none faults in
  (* Per-assignment sequence numbers: the pair (vs id, seq) names one
     transaction, so a replayed TRANSFER is recognised and dropped. *)
  let seq = ref 0 in
  (* Mid-window fail-stop under {!Dht.can_crash}.  [false] when the
     victim was shielded (the transaction then proceeds). *)
  let crash_endpoint id =
    Dht.can_crash dht id
    && begin
         Dht.crash dht id;
         true
       end
  in
  let abort counter cause =
    incr counter;
    trace_point "vst/abort"
      [
        ("cause", P2plb_obs.Trace.Str cause); ("seq", P2plb_obs.Trace.Int !seq);
      ]
  in
  (* A committed transfer's accounting. *)
  let commit (a : Types.assignment) (v : Dht.vs) ~hops =
    Histogram.add hist ~bin:hops ~weight:v.Dht.load;
    trace_point "vst/transfer"
      [
        ("hops", P2plb_obs.Trace.Int hops);
        ("load", P2plb_obs.Trace.Float v.Dht.load);
      ];
    (match obs with
    | None -> ()
    | Some o ->
      P2plb_obs.Registry.hist_add (P2plb_obs.Obs.metrics o) "vst/hop_cost"
        ~bin:hops ~weight:v.Dht.load);
    moved_load := !moved_load +. v.Dht.load;
    incr transfers;
    match tree with
    | None -> ()
    | Some t ->
      (* Lazy migration: every KT node the VS hosted tells its parent
         and children of the move.  Counted at the tree's last sync,
         not on the live ring, which crashes after VSA's repair may
         already have changed. *)
      restructure :=
        !restructure + (Ktree.hosted t a.a_vs_id * (Ktree.k t + 1))
  in
  List.iter
    (fun (a : Types.assignment) ->
      match Dht.vs_of_id dht a.a_vs_id with
      | Some v when v.Dht.owner = a.a_from && Dht.is_alive dht a.a_to -> (
        let src = Dht.node dht a.a_from and dst = Dht.node dht a.a_to in
        let hops =
          match oracle with
          | Some o ->
            Graph.Oracle.distance o ~src:src.Dht.underlay
              ~dst:dst.Dht.underlay
          | None -> 0
        in
        incr seq;
        let pstate = ref None in
        advance pstate Prepare;
        (* PREPARE: the heavy owner proposes (vs, seq) to the light
           node; nothing has moved yet, so a drop aborts cleanly. *)
        match Faults.send_between f ~src:a.a_from ~dst:a.a_to with
        | Faults.Lost ->
          if Faults.cut f ~a:a.a_from ~b:a.a_to then
            abort aborted_partitioned "partitioned"
          else abort aborted_prepare_lost "prepare_lost"
        | Faults.Delivered _ -> (
          (* mid-transfer crash window: a fail-stop between PREPARE
             and COMMIT must leave the VS either safely home (dst
             died: nothing moved) or absorbed by the ring's crash
             handling (src died with the VS still home) — never
             half-transferred. *)
          let crashed =
            match Faults.crash_in_window f with
            | Faults.No_crash -> false
            | Faults.Crash_dst ->
              if crash_endpoint a.a_to then begin
                abort aborted_dest_crashed "dest_crashed";
                true
              end
              else false
            | Faults.Crash_src ->
              if crash_endpoint a.a_from then begin
                abort aborted_src_crashed "src_crashed";
                true
              end
              else false
          in
          if not crashed then begin
            advance pstate Transfer;
            (* TRANSFER: the VS moves; a duplicated delivery carries
               the same sequence number and is dropped idempotently
               instead of re-applying. *)
            Dht.transfer_vs dht ~vs_id:a.a_vs_id ~to_node:a.a_to;
            if Faults.duplicated f then begin
              incr deduped;
              trace_point "vst/dedup" [ ("seq", P2plb_obs.Trace.Int !seq) ]
            end;
            (* COMMIT: the light node acknowledges; until it lands
               the heavy owner keeps the right to reclaim, so a lost
               ack rolls the VS back instead of stranding it. *)
            match Faults.send_between f ~src:a.a_to ~dst:a.a_from with
            | Faults.Delivered _ ->
              advance pstate Commit;
              commit a v ~hops
            | Faults.Lost ->
              Dht.transfer_vs dht ~vs_id:a.a_vs_id ~to_node:a.a_from;
              if Faults.cut f ~a:a.a_from ~b:a.a_to then
                abort aborted_partitioned "partitioned"
              else abort aborted_commit_lost "commit_lost"
          end))
      | None ->
        incr skipped_vs_gone;
        trace_point "vst/skip" [ ("cause", P2plb_obs.Trace.Str "vs_gone") ]
      | Some v when v.Dht.owner <> a.a_from ->
        incr skipped_owner_changed;
        trace_point "vst/skip"
          [ ("cause", P2plb_obs.Trace.Str "owner_changed") ]
      | Some _ ->
        incr skipped_dest_dead;
        trace_point "vst/skip" [ ("cause", P2plb_obs.Trace.Str "dest_dead") ])
    assignments;
  (* Lazy migration: the tree re-checks its planting after the whole
     VSA/VST round (hosts are VS ids, so structure is unchanged; this
     re-validates coverage after ring-state changes). *)
  (match tree with None -> () | Some t -> Ktree.refresh t dht);
  let aborted =
    !aborted_prepare_lost + !aborted_partitioned + !aborted_src_crashed
    + !aborted_dest_crashed + !aborted_commit_lost
  in
  (match obs with
  | None -> ()
  | Some o ->
    let m = P2plb_obs.Obs.metrics o in
    P2plb_obs.Registry.add (P2plb_obs.Registry.counter m "vst/transfers")
      !transfers;
    P2plb_obs.Registry.add (P2plb_obs.Registry.counter m "vst/skipped")
      (!skipped_vs_gone + !skipped_owner_changed + !skipped_dest_dead);
    P2plb_obs.Registry.accum (P2plb_obs.Registry.gauge m "vst/moved_load")
      !moved_load;
    P2plb_obs.Registry.add (P2plb_obs.Registry.counter m "vst/aborted") aborted;
    P2plb_obs.Registry.add (P2plb_obs.Registry.counter m "vst/deduped")
      !deduped);
  {
    hist;
    moved_load = !moved_load;
    transfers = !transfers;
    skipped = !skipped_vs_gone + !skipped_owner_changed + !skipped_dest_dead;
    skipped_vs_gone = !skipped_vs_gone;
    skipped_owner_changed = !skipped_owner_changed;
    skipped_dest_dead = !skipped_dest_dead;
    aborted;
    aborted_prepare_lost = !aborted_prepare_lost;
    aborted_partitioned = !aborted_partitioned;
    aborted_src_crashed = !aborted_src_crashed;
    aborted_dest_crashed = !aborted_dest_crashed;
    aborted_commit_lost = !aborted_commit_lost;
    deduped = !deduped;
    restructure_messages = !restructure;
  }
