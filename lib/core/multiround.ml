module Dht = P2plb_chord.Dht
module Engine = P2plb_sim.Engine
module Faults = P2plb_sim.Faults
module Trace = P2plb_obs.Trace

type round = {
  index : int;
  heavy_before : int;
  heavy_after : int;
  moved_load : float;
  transfers : int;
  live_nodes : int;
  skipped : int;
  aborted : int;
  deduped : int;
  repairs : int;
  repair_messages : int;
  retries : int;
  timeouts : int;
  tree_depth : int;
  moved_fraction : float;
}

type stop = Converged | Fixed_point | Budget | Violation of int * string

type result = {
  rounds : round list;
  stop : stop;
  converged : bool;
  total_moved : float;
  final_heavy : int;
  final_live : int;
  total_repairs : int;
  total_repair_messages : int;
  total_retries : int;
  total_timeouts : int;
  total_aborted : int;
  total_deduped : int;
  crashes : int;
  transfer_crashes : int;
  partitions_formed : int;
}

(* Fault-plan crash events pick a victim by rank in [0,1) over the
   nodes alive at firing time, so the same plan yields the same
   victims regardless of how earlier rounds moved load.  A crash that
   {!Dht.can_crash} forbids is skipped, not retried. *)
let crash_by_rank dht ~rank =
  let n = Dht.n_nodes dht in
  if n > 1 then begin
    let idx = Int.min (n - 1) (int_of_float (rank *. float_of_int n)) in
    let victim = (Dht.alive_nth dht idx).Dht.node_id in
    if Dht.can_crash dht victim then Dht.crash dht victim
  end

let run ?(config = Controller.default) ?faults ?obs ?(max_rounds = 10) ?check
    scenario =
  if max_rounds < 1 then invalid_arg "Multiround.run: max_rounds < 1";
  let dht = scenario.Scenario.dht in
  (* A round occupies one unit of simulated time; the fault plan's
     crashes and partition episodes are spread over the whole horizon
     and fire at the phase barriers inside Controller.run (mid-round
     churn and mid-round cuts). *)
  let faults = Faults.or_none faults in
  let engine =
    if Faults.enabled faults then begin
      let e = Engine.create () in
      Faults.arm faults e
        ~horizon:(float_of_int max_rounds)
        ~population:(Dht.n_nodes dht)
        ~crash:(fun ~rank -> crash_by_rank dht ~rank);
      Some e
    end
    else None
  in
  let crashes0 = Faults.crashes faults
  and transfer_crashes0 = Faults.transfer_crashes faults
  and partitions0 = Faults.partitions_formed faults in
  let rec go index acc total =
    (* Round spans wrap each controller round so the span forest groups
       phases under their round. *)
    let round_sp =
      Option.map
        (fun o ->
          let tr = P2plb_obs.Obs.trace o in
          (tr, Trace.begin_span tr ~attrs:[ ("index", Trace.Int index) ] "round"))
        obs
    in
    let o = Controller.run ~config ~faults ?engine ?obs scenario in
    (* Drain this round's remaining fault events (e.g. crashes armed
       in the last 30% of the round's time slice). *)
    (match engine with
    | Some e -> Engine.run_until e ~time:(float_of_int (index + 1))
    | None -> ());
    let hb, _, _ = o.Controller.census_before in
    let ha, _, _ = o.Controller.census_after in
    let r =
      {
        index;
        heavy_before = hb;
        heavy_after = ha;
        moved_load = o.Controller.vst.Vst.moved_load;
        transfers = o.Controller.vst.Vst.transfers;
        live_nodes = Dht.n_nodes dht;
        skipped = o.Controller.vst.Vst.skipped;
        aborted = o.Controller.vst.Vst.aborted;
        deduped = o.Controller.vst.Vst.deduped;
        repairs = o.Controller.kt_repairs;
        repair_messages = o.Controller.kt_repair_messages;
        retries = o.Controller.retries;
        timeouts = o.Controller.timeouts;
        tree_depth = o.Controller.tree_depth;
        moved_fraction = Controller.moved_fraction o;
      }
    in
    Option.iter
      (fun (tr, sp) ->
        Trace.end_span tr sp
          ~attrs:
            [
              ("heavy", Trace.Int r.heavy_after);
              ("transfers", Trace.Int r.transfers);
              ("moved_load", Trace.Float r.moved_load);
            ])
      round_sp;
    let acc = r :: acc and total = total +. r.moved_load in
    let stop =
      match Option.map (fun f -> f r) check with
      | Some (Error e) -> Some (Violation (index, e))
      | Some (Ok ()) | None ->
        if ha = 0 then Some Converged
        else if r.transfers = 0 then Some Fixed_point
        else if index + 1 >= max_rounds then Some Budget
        else None
    in
    match stop with
    | Some stop ->
      let rounds = List.rev acc in
      let sum f = List.fold_left (fun s r -> s + f r) 0 rounds in
      {
        rounds;
        stop;
        converged = (match stop with Converged | Fixed_point -> true | _ -> false);
        total_moved = total;
        final_heavy = ha;
        final_live = Dht.n_nodes dht;
        total_repairs = sum (fun r -> r.repairs);
        total_repair_messages = sum (fun r -> r.repair_messages);
        total_retries = sum (fun r -> r.retries);
        total_timeouts = sum (fun r -> r.timeouts);
        total_aborted = sum (fun r -> r.aborted);
        total_deduped = sum (fun r -> r.deduped);
        crashes = Faults.crashes faults - crashes0;
        transfer_crashes = Faults.transfer_crashes faults - transfer_crashes0;
        partitions_formed = Faults.partitions_formed faults - partitions0;
      }
    | None -> go (index + 1) acc total
  in
  go 0 [] 0.0

let stop_to_string = function
  | Converged -> "converged"
  | Fixed_point -> "fixed point"
  | Budget -> "round budget"
  | Violation (i, _) -> Printf.sprintf "violation@r%d" i

let pp fmt r =
  Format.fprintf fmt "%d round(s), stop=%s, final heavy=%d/%d live@\n"
    (List.length r.rounds) (stop_to_string r.stop) r.final_heavy r.final_live;
  if
    r.crashes > 0 || r.total_retries > 0 || r.total_timeouts > 0
    || r.transfer_crashes > 0 || r.partitions_formed > 0
  then begin
    Format.fprintf fmt
      "  churn: %d crashes, %d KT repairs, %d retries, %d timeouts@\n"
      r.crashes r.total_repairs r.total_retries r.total_timeouts;
    if r.transfer_crashes > 0 || r.partitions_formed > 0 || r.total_aborted > 0
    then
      Format.fprintf fmt
        "  transfer faults: %d mid-transfer crashes, %d partitions, %d \
         aborted, %d deduped@\n"
        r.transfer_crashes r.partitions_formed r.total_aborted r.total_deduped
  end;
  (match r.stop with
  | Violation (index, e) ->
    Format.fprintf fmt "  INVARIANT VIOLATION after round %d: %s@\n" index e
  | Converged | Fixed_point | Budget -> ());
  List.iter
    (fun round ->
      Format.fprintf fmt
        "  round %d: heavy %d -> %d, moved %.4g in %d transfers" round.index
        round.heavy_before round.heavy_after round.moved_load round.transfers;
      if round.skipped > 0 || round.repairs > 0 then
        Format.fprintf fmt " (%d skipped, %d repairs)" round.skipped
          round.repairs;
      if round.aborted > 0 || round.deduped > 0 then
        Format.fprintf fmt " (%d aborted, %d deduped)" round.aborted
          round.deduped;
      Format.fprintf fmt "@\n")
    r.rounds
