module Scenario = P2plb.Scenario
module Controller = P2plb.Controller
module Multiround = P2plb.Multiround
module Invariants = P2plb.Invariants
module Lbi = P2plb.Lbi
module Classify = P2plb.Classify
module Vsa = P2plb.Vsa
module Vst = P2plb.Vst
module Types = P2plb.Types
module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree
module Graph = P2plb_topology.Graph
module Transit_stub = P2plb_topology.Transit_stub
module Workload = P2plb_workload.Workload
module Histogram = P2plb_metrics.Histogram
module Engine = P2plb_sim.Engine
module Faults = P2plb_sim.Faults
module Obs = P2plb_obs.Obs
module Trace = P2plb_obs.Trace
module Registry = P2plb_obs.Registry
module Timeseries = P2plb_obs.Timeseries

type plan =
  | Rounds of { max_rounds : int; faults : Faults.config option }
  | Aware_then_ignorant

type t = {
  name : string;
  scenario : Scenario.config;
  controller : Controller.config;
  plan : plan;
  network_seed : int option;
}

let ring ~n =
  {
    name = Printf.sprintf "ring-%dk" (n / 1024);
    scenario =
      {
        Scenario.default with
        n_nodes = n;
        workload = Workload.default_pareto;
        topology = Transit_stub.scaled ~n;
      };
    controller = { Controller.default with account_distance = false };
    plan = Rounds { max_rounds = 6; faults = None };
    network_seed = None;
  }

let proximity ~n =
  {
    name = Printf.sprintf "proximity-%dk" (n / 1024);
    scenario = { Scenario.default with n_nodes = n };
    controller = Controller.default;
    plan = Aware_then_ignorant;
    network_seed = Some 1;
  }

let churn ~n =
  {
    name = Printf.sprintf "churn-%dk" (n / 1024);
    scenario = { Scenario.default with n_nodes = n };
    controller = { Controller.default with account_distance = false };
    plan =
      Rounds
        {
          max_rounds = 8;
          faults =
            Some
              (Faults.churn ~crash_fraction:0.1 ~message_loss:0.02
                 ~duplicate_prob:0.05 ~transfer_crash:0.05 ~partitions:2 ());
        };
    network_seed = Some 1;
  }

let all = [ ring ~n:32768; proximity ~n:4096; churn ~n:4096 ]
let find name = List.find_opt (fun w -> String.equal w.name name) all

type round = {
  heavy_before : int;
  heavy_after : int;
  moved : float;
  transfers : int;
  kt_messages : int;
  repairs : int;
  aborted : int;
  skipped : int;
  live : int;
}

let same_rounds a b =
  let la = List.length a and lb = List.length b in
  if la <> lb then
    Error (Printf.sprintf "round count: untraced %d, traced %d" la lb)
  else
    let field i name x y =
      if x = y then Ok ()
      else
        Error
          (Printf.sprintf "round %d %s: untraced %s, traced %s" i name x y)
    in
    let int i name x y = field i name (string_of_int x) (string_of_int y) in
    let rec go i = function
      | [], _ | _, [] -> Ok ()
      | x :: xs, y :: ys ->
        let ( >>= ) r f = match r with Ok () -> f () | Error _ as e -> e in
        int i "heavy_before" x.heavy_before y.heavy_before >>= fun () ->
        int i "heavy_after" x.heavy_after y.heavy_after >>= fun () ->
        (* bit-exact: the same float operations in the same order *)
        field i "moved"
          (Printf.sprintf "%h" x.moved)
          (Printf.sprintf "%h" y.moved)
        >>= fun () ->
        int i "transfers" x.transfers y.transfers >>= fun () ->
        int i "kt_messages" x.kt_messages y.kt_messages >>= fun () ->
        int i "repairs" x.repairs y.repairs >>= fun () ->
        int i "aborted" x.aborted y.aborted >>= fun () ->
        int i "skipped" x.skipped y.skipped >>= fun () ->
        int i "live" x.live y.live >>= fun () -> go (i + 1) (xs, ys)
    in
    go 0 (a, b)

type setup = { scenarios : Scenario.t list; build_s : float }

(* With a fixed network the underlay, its distance oracle and the
   landmark space come from a build at [network_seed]; membership,
   capacities, loads and the balancer's random choices come from
   [seed]. *)
let build w ~seed =
  let base =
    Option.map (fun ns -> Scenario.build ~seed:ns w.scenario) w.network_seed
  in
  let s = Scenario.build ?base ~seed w.scenario in
  match w.plan with
  | Rounds _ -> [ s ]
  | Aware_then_ignorant ->
    [ s; Scenario.build ~base:(Option.value base ~default:s) ~seed w.scenario ]

let setup w ~seed =
  (* every timed phase starts from a compacted heap *)
  Gc.compact ();
  let t0 = Clock.now () in
  let scenarios = build w ~seed in
  { scenarios; build_s = Clock.now () -. t0 }

type outcome = {
  rounds : round list;
  failures : (int * string) list;
  balance_s : float;
  alloc_bytes : float;
  stopped : bool;
  final_ratio : float;
  final_heavy : int;
  moved_frac : float;
  moved_within2 : float;
  aware_within2 : float;
  ignorant_within2 : float;
}

let fault_plan w ~seed =
  match w.plan with
  | Rounds { faults = Some c; _ } -> Some (Faults.create ~seed c)
  | Rounds { faults = None; _ } | Aware_then_ignorant -> None

(* The per-round output check of [Experiments.resilience]: the full
   invariant battery, load conservation against the initial total,
   and VS conservation against the previous round's snapshot with
   that round's fired crashes as the budget. *)
let checker ?faults dht =
  let expected_total = Dht.total_load dht in
  let snapshot = ref (Invariants.vs_snapshot dht) in
  let seen = ref 0 in
  fun () ->
    let fired =
      match faults with
      | Some f -> Faults.crashes f + Faults.transfer_crashes f
      | None -> 0
    in
    let r =
      Invariants.all ~expected_total ~vs_before:!snapshot ~crashes:(fired - !seen)
        dht
    in
    seen := fired;
    snapshot := Invariants.vs_snapshot dht;
    r

let final_ratio s =
  let dht = s.Scenario.dht in
  let cap = Dht.total_capacity dht in
  let fair = if Float.compare cap 0.0 > 0 then Dht.total_load dht /. cap else 0.0 in
  Timeseries.ratio ~unit_loads:(Scenario.unit_loads s) ~fair

let messages_so_far obs =
  Option.value ~default:0
    (Registry.find_counter (Obs.metrics obs) "round/messages")

(* Cumulative moved load over the initial total; for the proximity
   workload, the aware round's alone (the ignorant round balances a
   second copy of the network). *)
let moved_frac w ~total_load rounds =
  let moved =
    match (w.plan, rounds) with
    | Aware_then_ignorant, r :: _ -> r.moved
    | _ -> List.fold_left (fun a r -> a +. r.moved) 0.0 rounds
  in
  if total_load > 0.0 then moved /. total_load else 0.0

let within2 h = Histogram.cumulative_fraction h 2

(* Untraced: the real entry points, timed as a whole.  Check time and
   allocation are measured inside the check and subtracted. *)
let untraced w ~seed setup =
  let obs = Obs.create () in
  let check_s = ref 0.0 and check_alloc = ref 0.0 in
  let failures = ref [] in
  let timed_check index check =
    let a0 = Clock.alloc_bytes () and t0 = Clock.now () in
    let r = check () in
    check_s := !check_s +. (Clock.now () -. t0);
    check_alloc := !check_alloc +. (Clock.alloc_bytes () -. a0);
    match r with
    | Ok () -> Ok ()
    | Error e ->
      failures := (index, e) :: !failures;
      Error e
  in
  (* Fault plan and first invariant snapshots are made before the
     clock starts: neither is part of balancing. *)
  let faults = fault_plan w ~seed in
  let checks = List.map (fun s -> checker ?faults s.Scenario.dht) setup.scenarios in
  let balance () =
    match (w.plan, setup.scenarios, checks) with
    | Rounds { max_rounds; _ }, [ s ], [ check ] ->
      let msgs = ref [] and index = ref 0 in
      let r =
        Multiround.run ~config:w.controller ?faults ~obs ~max_rounds
          ~check:(fun _ ->
            msgs := messages_so_far obs :: !msgs;
            let i = !index in
            incr index;
            timed_check i check)
          s
      in
      (* the counter is cumulative over the run *)
      let per_round =
        snd
          (List.fold_left
             (fun (prev, acc) c -> (c, acc @ [ c - prev ]))
             (0, []) (List.rev !msgs))
      in
      let rounds =
        List.map2
          (fun (x : Multiround.round) kt_messages ->
            {
              heavy_before = x.heavy_before;
              heavy_after = x.heavy_after;
              moved = x.moved_load;
              transfers = x.transfers;
              kt_messages;
              repairs = x.repairs;
              aborted = x.aborted;
              skipped = x.skipped;
              live = x.live_nodes;
            })
          r.Multiround.rounds per_round
      in
      let w2 =
        match Registry.find_histogram (Obs.metrics obs) "vst/hop_cost" with
        | Some h -> within2 h
        | None -> nan
      in
      ( rounds,
        r.Multiround.converged,
        s,
        r.Multiround.final_heavy,
        w2,
        nan,
        nan )
    | Aware_then_ignorant, [ sa; si ], [ ca; ci ] ->
      let one s check proximity index =
        let o =
          Controller.run ~config:{ w.controller with proximity } ~obs s
        in
        ignore (timed_check index check);
        let hb, _, _ = o.Controller.census_before
        and ha, _, _ = o.Controller.census_after in
        ( {
            heavy_before = hb;
            heavy_after = ha;
            moved = o.Controller.vst.Vst.moved_load;
            transfers = o.Controller.vst.Vst.transfers;
            kt_messages = o.Controller.tree_messages;
            repairs = o.Controller.kt_repairs;
            aborted = o.Controller.vst.Vst.aborted;
            skipped = o.Controller.vst.Vst.skipped;
            live = Dht.n_nodes s.Scenario.dht;
          },
          o )
      in
      let ra, oa = one sa ca true 0 in
      let ri, oi = one si ci false 1 in
      let ha, _, _ = oa.Controller.census_after in
      let wa = Controller.cdf_at oa ~hops:2 and wi = Controller.cdf_at oi ~hops:2 in
      ([ ra; ri ], true, sa, ha, wa, wa, wi)
    | _ -> invalid_arg "Workloads.untraced: setup does not match the plan"
  in
  let total_load =
    match setup.scenarios with
    | s :: _ -> Dht.total_load s.Scenario.dht
    | [] -> invalid_arg "Workloads.untraced: empty setup"
  in
  Gc.compact ();
  let a0 = Clock.alloc_bytes () and t0 = Clock.now () in
  let rounds, stopped, last, final_heavy, w2, aw, iw = balance () in
  let elapsed = Clock.now () -. t0 and alloc = Clock.alloc_bytes () -. a0 in
  {
    rounds;
    failures = List.rev !failures;
    balance_s = elapsed -. !check_s;
    alloc_bytes = alloc -. !check_alloc;
    stopped;
    final_ratio = final_ratio last;
    final_heavy;
    moved_frac = moved_frac w ~total_load rounds;
    moved_within2 = w2;
    aware_within2 = aw;
    ignorant_within2 = iw;
  }

type layers = {
  spans : Spans.t;
  oracle_probes : int;
  oracle_sources : int;
  dht_lookups : int;
  dht_hops : int;
  engine_events : int;
  retries : int;
  timeouts : int;
  ktree_nodes : int;
  ktree_depth : int;
  ktree_live_mb : float;
  ktree_repairs : int;
  ktree_repair_messages : int;
  lbi_messages : int;
  lbi_rounds : int;
  vsa_offered : int;
  vsa_assignments : int;
  vsa_rounds : int;
  vsa_publish_hops : int;
  vsa_stale_dropped : int;
  vst_transfers : int;
  vst_aborted : int;
  vst_skipped : int;
  vst_restructure_messages : int;
  minor_collections : int;
  major_collections : int;
}

(* Multiround's fault-plan crash callback (not exported): the victim
   is the rank-th alive node at firing time; a crash that would empty
   the ring is skipped. *)
let crash_by_rank dht ~rank =
  let n = Dht.n_nodes dht in
  if n > 1 then begin
    let idx = Int.min (n - 1) (int_of_float (rank *. float_of_int n)) in
    let victim = Dht.alive_nth dht idx in
    if List.length victim.Dht.vss < Dht.n_vs dht then
      Dht.crash dht victim.Dht.node_id
  end

(* Mutable per-layer tallies of one traced run. *)
type tally = {
  mutable nodes : int;
  mutable depth : int;
  mutable live_mb : float;
  mutable repairs : int;
  mutable repair_messages : int;
  mutable lbi_messages : int;
  mutable lbi_rounds : int;
  mutable offered : int;
  mutable assignments : int;
  mutable vsa_rounds : int;
  mutable publish_hops : int;
  mutable stale : int;
  mutable transfers : int;
  mutable aborted : int;
  mutable skipped : int;
  mutable restructure : int;
}

(* One round of [Controller.run], re-composed from the layer calls in
   the same order and with the same arguments, each inside a span. *)
let traced_round sp tl ~config ?faults ?engine ~obs (s : Scenario.t) =
  let span name f = Spans.with_span sp name f in
  let dht = s.Scenario.dht in
  (match engine with
  | Some e -> Trace.set_clock (Obs.trace obs) (fun () -> Engine.now e)
  | None -> ());
  (match faults with Some f -> Faults.attach_obs f obs | None -> ());
  let round_start =
    match engine with
    | Some e -> Engine.now e
    | None -> Trace.now (Obs.trace obs)
  in
  let barrier frac =
    match engine with
    | Some e ->
      span "engine.run_until" (fun () ->
          Engine.run_until e ~time:(round_start +. frac))
    | None -> Trace.set_time (Obs.trace obs) (round_start +. frac)
  in
  ignore (Scenario.unit_loads s);
  let route_messages = config.Controller.route_messages in
  let tree =
    span "ktree.build" (fun () ->
        Ktree.build ~route_messages ~k:config.Controller.k dht)
  in
  (* [Controller.run] walks the tree for its depth and size twice a
     round: for the kt_build phase attributes and for its outcome *)
  let query () =
    let depth, nodes =
      span "ktree.query" (fun () -> (Ktree.depth tree, Ktree.n_nodes tree))
    in
    tl.depth <- Int.max tl.depth depth;
    tl.nodes <- Int.max tl.nodes nodes
  in
  query ();
  Ktree.set_obs tree obs;
  (* one heap walk per run: it costs about a second per GB of heap *)
  if tl.live_mb = 0.0 then tl.live_mb <- span "gc.live" Clock.live_mb;
  barrier 0.2;
  let msg0 = Ktree.messages tree in
  let lbi =
    span "lbi.aggregate" (fun () ->
        Lbi.aggregate ~rng:s.Scenario.rng ?faults ~route_messages tree dht)
  in
  span "lbi.disseminate" (fun () ->
      Lbi.disseminate ?faults ~route_messages tree dht lbi);
  tl.lbi_rounds <- tl.lbi_rounds + Ktree.rounds_last_sweep tree;
  tl.lbi_messages <- tl.lbi_messages + (Ktree.messages tree - msg0);
  let epsilon = config.Controller.epsilon_rel *. lbi.Types.l /. lbi.Types.c in
  barrier 0.4;
  let census_before =
    span "classify.census" (fun () -> Classify.census ~lbi ~epsilon dht)
  in
  let mode =
    if config.Controller.proximity then
      Vsa.Aware
        {
          space = s.Scenario.space;
          order = config.Controller.hilbert_order;
          curve = config.Controller.curve;
          binning = config.Controller.binning;
        }
    else Vsa.Ignorant
  in
  let vsa =
    span "vsa.run" (fun () ->
        Vsa.run ~threshold:config.Controller.threshold ~epsilon ?faults
          ~route_messages ~mode ~rng:s.Scenario.rng ~lbi tree dht)
  in
  barrier 0.7;
  let oracle =
    if config.Controller.account_distance then Some s.Scenario.oracle else None
  in
  (* Every Dijkstra run of this round happens here, from the sources
     [Vst.apply] is about to price (heavy owner of each applicable
     assignment), so [vst.apply] itself only reads memoised vectors. *)
  (match oracle with
  | None -> ()
  | Some o ->
    span "oracle.prime" (fun () ->
        List.iter
          (fun (a : Types.assignment) ->
            match Dht.vs_of_id dht a.Types.a_vs_id with
            | Some v when v.Dht.owner = a.Types.a_from && Dht.is_alive dht a.Types.a_to
              ->
              ignore
                (Graph.Oracle.distance o
                   ~src:(Dht.node dht a.Types.a_from).Dht.underlay
                   ~dst:(Dht.node dht a.Types.a_to).Dht.underlay)
            | _ -> ())
          vsa.Vsa.assignments));
  let vst =
    span "vst.apply" (fun () ->
        Vst.apply ~tree ~obs ?faults ?oracle dht vsa.Vsa.assignments)
  in
  let census_after =
    span "classify.census" (fun () -> Classify.census ~lbi ~epsilon dht)
  in
  (match engine with
  | None -> Trace.set_time (Obs.trace obs) (round_start +. 1.0)
  | Some _ -> ());
  ignore (Scenario.unit_loads s);
  query ();
  Registry.add
    (Registry.counter (Obs.metrics obs) "round/messages")
    (Ktree.messages tree);
  tl.repairs <- tl.repairs + Ktree.repairs tree;
  tl.repair_messages <- tl.repair_messages + Ktree.repair_messages tree;
  tl.offered <- tl.offered + vsa.Vsa.shed_offered;
  tl.assignments <- tl.assignments + List.length vsa.Vsa.assignments;
  tl.vsa_rounds <- tl.vsa_rounds + vsa.Vsa.rounds;
  tl.publish_hops <- tl.publish_hops + vsa.Vsa.publish_hops;
  tl.stale <- tl.stale + vsa.Vsa.stale_dropped;
  tl.transfers <- tl.transfers + vst.Vst.transfers;
  tl.aborted <- tl.aborted + vst.Vst.aborted;
  tl.skipped <- tl.skipped + vst.Vst.skipped;
  tl.restructure <- tl.restructure + vst.Vst.restructure_messages;
  let hb, _, _ = census_before and ha, _, _ = census_after in
  ( {
      heavy_before = hb;
      heavy_after = ha;
      moved = vst.Vst.moved_load;
      transfers = vst.Vst.transfers;
      kt_messages = Ktree.messages tree;
      repairs = Ktree.repairs tree;
      aborted = vst.Vst.aborted;
      skipped = vst.Vst.skipped;
      live = Dht.n_nodes dht;
    },
    vst )

let traced w ~seed =
  let sp = Spans.create () in
  let span name f = Spans.with_span sp name f in
  let obs = Obs.create () in
  Gc.compact ();
  let scenarios = span "scenario.build" (fun () -> build w ~seed) in
  let tl =
    {
      nodes = 0;
      depth = 0;
      live_mb = 0.0;
      repairs = 0;
      repair_messages = 0;
      lbi_messages = 0;
      lbi_rounds = 0;
      offered = 0;
      assignments = 0;
      vsa_rounds = 0;
      publish_hops = 0;
      stale = 0;
      transfers = 0;
      aborted = 0;
      skipped = 0;
      restructure = 0;
    }
  in
  let failures = ref [] in
  let checked index check =
    match span "invariants" check with
    | Ok () -> Ok ()
    | Error e ->
      failures := (index, e) :: !failures;
      Error e
  in
  let faults = fault_plan w ~seed in
  let lookups0, hops0 =
    List.fold_left
      (fun (l, h) s ->
        ( l + Dht.lookups_performed s.Scenario.dht,
          h + Dht.hops_used s.Scenario.dht ))
      (0, 0) scenarios
  in
  let minor0, major0 = Clock.collections () in
  let total_load =
    match scenarios with
    | s :: _ -> Dht.total_load s.Scenario.dht
    | [] -> invalid_arg "Workloads.traced: empty setup"
  in
  let checks =
    span "invariants.snapshot" (fun () ->
        List.map (fun s -> checker ?faults s.Scenario.dht) scenarios)
  in
  let run () =
    match (w.plan, scenarios, checks) with
    | Rounds { max_rounds; _ }, [ s ], [ check ] ->
      let dht = s.Scenario.dht in
      let engine =
        match faults with
        | Some f when Faults.enabled f ->
          let e = Engine.create () in
          span "faults.arm" (fun () ->
              Faults.arm f e
                ~horizon:(float_of_int max_rounds)
                ~population:(Dht.n_nodes dht)
                ~crash:(fun ~rank -> crash_by_rank dht ~rank));
          Some e
        | _ -> None
      in
      let hist = ref (Histogram.create ()) in
      let rec go index acc =
        let r, vst =
          span "round" (fun () ->
              let r =
                traced_round sp tl ~config:w.controller ?faults ?engine ~obs s
              in
              (match engine with
              | Some e ->
                span "engine.run_until" (fun () ->
                    Engine.run_until e ~time:(float_of_int (index + 1)))
              | None -> ());
              r)
        in
        (* Multiround counts the survivors after the drain *)
        let r = { r with live = Dht.n_nodes dht } in
        hist := Histogram.merge !hist vst.Vst.hist;
        let acc = r :: acc in
        let failed = Result.is_error (checked index check) in
        if failed || r.heavy_after = 0 || r.transfers = 0 || index + 1 >= max_rounds
        then
          ( List.rev acc,
            (not failed) && (r.heavy_after = 0 || r.transfers = 0),
            r.heavy_after )
        else go (index + 1) acc
      in
      let rounds, stopped, final_heavy = go 0 [] in
      let engine_events =
        match engine with Some e -> (Engine.stats e).Engine.processed | None -> 0
      in
      (rounds, stopped, s, final_heavy, within2 !hist, nan, nan, engine_events)
    | Aware_then_ignorant, [ sa; si ], [ ca; ci ] ->
      let one s check proximity index =
        let r, vst =
          span "round" (fun () ->
              traced_round sp tl ~config:{ w.controller with proximity } ~obs s)
        in
        ignore (checked index check);
        (r, vst)
      in
      let ra, va = one sa ca true 0 in
      let ri, vi = one si ci false 1 in
      let wa = within2 va.Vst.hist and wi = within2 vi.Vst.hist in
      ([ ra; ri ], true, sa, ra.heavy_after, wa, wa, wi, 0)
    | _ -> invalid_arg "Workloads.traced: setup does not match the plan"
  in
  Gc.compact ();
  let rounds, stopped, last, final_heavy, w2, aw, iw, engine_events =
    span "balance" run
  in
  let minor1, major1 = Clock.collections () in
  let lookups1, hops1 =
    List.fold_left
      (fun (l, h) s ->
        ( l + Dht.lookups_performed s.Scenario.dht,
          h + Dht.hops_used s.Scenario.dht ))
      (0, 0) scenarios
  in
  let oracle =
    match scenarios with
    | s :: _ -> s.Scenario.oracle
    | [] -> invalid_arg "Workloads.traced: empty setup"
  in
  let summaries = Spans.summarize (Spans.spans sp) in
  let total name =
    match Spans.find summaries name with Some s -> s.Spans.total_s | None -> 0.0
  in
  let balance = total "balance" in
  let excluded = total "invariants" +. total "gc.live" in
  ( {
      rounds;
      failures = List.rev !failures;
      balance_s = balance -. excluded;
      alloc_bytes = nan;
      stopped;
      final_ratio = final_ratio last;
      final_heavy;
      moved_frac = moved_frac w ~total_load rounds;
      moved_within2 = w2;
      aware_within2 = aw;
      ignorant_within2 = iw;
    },
    {
      spans = sp;
      oracle_probes = Graph.Oracle.probes oracle;
      oracle_sources = Graph.Oracle.sources_computed oracle;
      dht_lookups = lookups1 - lookups0;
      dht_hops = hops1 - hops0;
      engine_events;
      retries = (match faults with Some f -> Faults.retries f | None -> 0);
      timeouts = (match faults with Some f -> Faults.timeouts f | None -> 0);
      ktree_nodes = tl.nodes;
      ktree_depth = tl.depth;
      ktree_live_mb = tl.live_mb;
      ktree_repairs = tl.repairs;
      ktree_repair_messages = tl.repair_messages;
      lbi_messages = tl.lbi_messages;
      lbi_rounds = tl.lbi_rounds;
      vsa_offered = tl.offered;
      vsa_assignments = tl.assignments;
      vsa_rounds = tl.vsa_rounds;
      vsa_publish_hops = tl.publish_hops;
      vsa_stale_dropped = tl.stale;
      vst_transfers = tl.transfers;
      vst_aborted = tl.aborted;
      vst_skipped = tl.skipped;
      vst_restructure_messages = tl.restructure;
      minor_collections = minor1 - minor0;
      major_collections = major1 - major0;
    } )
