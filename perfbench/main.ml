(* The repository benchmark's program.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 (untraced): builds the workload's network from the seed
   and balances it through the program's entry points, repeating
   set-up and balancing until S host seconds have passed (at least
   once; set-up at least three times).  Prints every end-to-end figure
   and, as its last line, the result object with the gated end-to-end
   metrics (medians over the repetitions).

   --trace 1 (traced): one untraced repetition as the overhead base,
   then one repetition re-composed from the layer calls under spans.
   Prints every per-layer figure and, as its last line, the result
   object with the per-layer metrics; the spans go to
   perfbench/out/<workload>-seed<N>.spans.jsonl.

   Every round of every run passes the invariant checks, the traced
   run matches the untraced one round by round, and each workload's
   qualitative claim holds; any failure prints a replay command and
   exits 1. *)

module Clock = Perfbench.Clock
module Stats = Perfbench.Stats
module Spans = Perfbench.Spans
module Workloads = Perfbench.Workloads
module Report = Perfbench.Report
module Graph = P2plb_topology.Graph

let usage =
  "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
   workloads: "
  ^ String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all)

let die msg =
  prerr_endline msg;
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let rec go = function
    | "--workload" :: v :: rest ->
      workload := v;
      go rest
    | "--seed" :: v :: rest ->
      seed := Option.value ~default:(-1) (int_of_string_opt v);
      go rest
    | "--seconds" :: v :: rest ->
      seconds := Option.value ~default:(-1) (int_of_string_opt v);
      go rest
    | "--trace" :: v :: rest ->
      trace := Option.value ~default:(-1) (int_of_string_opt v);
      go rest
    | [] -> ()
    | arg :: _ -> die (Printf.sprintf "unknown argument %s\n%s" arg usage)
  in
  go (List.tl (Array.to_list Sys.argv));
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None -> die usage
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then die usage;
  (w, !seed, !seconds, !trace = 1)

let replay w ~seed ~seconds ~traced =
  Printf.sprintf
    "replay: python3 perfbench/run.py --workload %s --seed %d --seconds %d \
     --trace %d"
    w.Workloads.name seed seconds
    (if traced then 1 else 0)

(* The workload's qualitative claim, checked on every run. *)
let claims w (o : Workloads.outcome) =
  match w.Workloads.plan with
  | Workloads.Aware_then_ignorant ->
    if o.aware_within2 > o.ignorant_within2 then []
    else
      [
        Printf.sprintf
          "proximity claim: aware moved_within2 %.4f not above ignorant %.4f"
          o.aware_within2 o.ignorant_within2;
      ]
  | Workloads.Rounds { faults = None; max_rounds } ->
    if o.stopped then []
    else
      [ Printf.sprintf "no converged or fixed-point stop within %d rounds" max_rounds ]
  | Workloads.Rounds { faults = Some _; _ } -> []

let round_failures (o : Workloads.outcome) =
  List.map (fun (i, e) -> Printf.sprintf "round %d: %s" i e) o.failures

let finish ~problems ~attempted ~failed ~replay_line metrics =
  List.iter (fun p -> Printf.printf "FAILED %s\n" p) problems;
  if problems <> [] then begin
    print_endline replay_line;
    prerr_endline replay_line
  end;
  print_endline
    (Report.json_line ~correct:(problems = []) ~attempted ~failed metrics);
  exit (if problems = [] then 0 else 1)

let select names metrics =
  List.map
    (fun n -> List.find (fun (x : Report.metric) -> String.equal x.name n) metrics)
    names

let oracle_probes (setup : Workloads.setup) =
  match setup.scenarios with
  | s :: _ -> Graph.Oracle.probes s.P2plb.Scenario.oracle
  | [] -> 0

let untraced_run w ~seed ~seconds =
  let t0 = Clock.now () in
  let peak = ref 0.0 in
  let rec reps acc builds =
    let setup = Workloads.setup w ~seed in
    let o = Workloads.untraced w ~seed setup in
    (* the heap's high-water mark after the first repetition, so it does
       not depend on how many repetitions fit in the time *)
    if acc = [] then peak := Clock.heap_top_mb ();
    let acc = o :: acc and builds = setup.build_s :: builds in
    if Clock.now () -. t0 >= float_of_int seconds || List.length acc >= 20
    then (List.rev acc, builds)
    else reps acc builds
  in
  let outcomes, builds = reps [] [] in
  (* set-up timed at least three times and for at least two seconds
     (at most nine times), for its median *)
  let rec more builds =
    let n = List.length builds in
    if n >= 9 || (n >= 3 && List.fold_left ( +. ) 0.0 builds >= 2.0) then
      builds
    else more ((Workloads.setup w ~seed).build_s :: builds)
  in
  let builds = more builds in
  let first = List.hd outcomes in
  (* Repetitions must balance identically.  Their allocation is not
     compared: the first one also fills the program's lazily built
     tables, so alloc_mb is the first repetition's, which a fresh
     process on the same seed reproduces exactly. *)
  let repeat_problems =
    List.concat
      (List.mapi
         (fun i (o : Workloads.outcome) ->
           match Workloads.same_rounds first.rounds o.rounds with
           | Ok () -> []
           | Error e -> [ Printf.sprintf "repetition %d differs: %s" i e ])
         outcomes)
  in
  let balance = List.map (fun (o : Workloads.outcome) -> o.balance_s) outcomes in
  let setup_s = Stats.median builds and balance_s = Stats.median balance in
  let all =
    Report.end_to_end ~setup_s ~balance_s ~peak_heap_mb:!peak first
  in
  print_string
    (Report.table
       (Printf.sprintf "%s seed %d: %d repetition(s), %d set-up(s)" w.name seed
          (List.length outcomes) (List.length builds))
       all);
  let q1, _, q3 = Stats.quartiles balance in
  let samples xs = String.concat " " (List.map (Printf.sprintf "%.4f") xs) in
  Printf.printf "  balance_s samples %s (quartiles %.4f %.4f)\n  setup_s samples %s\n"
    (samples balance) q1 q3 (samples builds);
  let problems =
    List.concat_map round_failures outcomes @ claims w first @ repeat_problems
  in
  let attempted =
    List.fold_left (fun a (o : Workloads.outcome) -> a + List.length o.rounds) 0 outcomes
  and failed =
    List.fold_left (fun a (o : Workloads.outcome) -> a + List.length o.failures) 0 outcomes
  in
  finish ~problems ~attempted ~failed
    ~replay_line:(replay w ~seed ~seconds ~traced:false)
    (select Report.end_to_end_names all)

let span_table (l : Workloads.layers) =
  let sums = Spans.summarize (Spans.spans l.spans) in
  Printf.printf "  %-22s %6s %10s %10s %10s  %s\n" "span" "count" "total_s"
    "self_s" "median_s" "tail";
  List.iter
    (fun (s : Spans.summary) ->
      let tail =
        match Stats.tail s.durations with
        | Some t -> Printf.sprintf "p%g %.6f (n=%d)" t.pct t.value t.n
        | None -> Printf.sprintf "n=%d, too few for a tail" s.count
      in
      Printf.printf "  %-22s %6d %10.4f %10.4f %10.6f  %s\n" s.name s.count
        s.total_s s.self_s (Stats.median s.durations) tail)
    sums

let write_spans w ~seed (l : Workloads.layers) =
  let dir = Filename.concat "perfbench" "out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path =
    Filename.concat dir (Printf.sprintf "%s-seed%d.spans.jsonl" w.Workloads.name seed)
  in
  let oc = open_out path in
  output_string oc (Spans.to_jsonl (Spans.spans l.spans));
  close_out oc;
  Printf.printf "  spans written to %s\n" path

(* What each workload must bypass or exercise, so a layer's figures
   mean what BENCHMARK.json says they mean. *)
let bypass_problems w (all : Report.metric list) =
  let v name =
    (List.find (fun (x : Report.metric) -> String.equal x.name name) all).value
  in
  let expect cond msg = if cond then [] else [ msg ] in
  let pricing = w.Workloads.controller.P2plb.Controller.account_distance in
  let faulty =
    match w.Workloads.plan with
    | Workloads.Rounds { faults = Some _; _ } -> true
    | Workloads.Rounds { faults = None; _ } | Workloads.Aware_then_ignorant ->
      false
  in
  expect
    (pricing = (v "oracle.probes" > 0.0))
    (if pricing then "oracle.probes is 0 with pricing on"
     else "oracle probed with pricing off")
  @
  if faulty then []
  else
    expect (v "faults.retries" = 0.0) "retries without a fault plan"
    @ expect (v "ktree.repairs" = 0.0) "KT repairs without a fault plan"

(* One untraced repetition, the overhead base, then the traced one. *)
let traced_run w ~seed ~seconds =
  let setup = Workloads.setup w ~seed in
  let u = Workloads.untraced w ~seed setup in
  let untraced_probes = oracle_probes setup in
  let t, layers = Workloads.traced w ~seed in
  let all = Report.per_layer ~untraced_balance_s:u.balance_s t layers in
  print_string
    (Report.table
       (Printf.sprintf "%s seed %d, traced (untraced balance_s %.4f)" w.name
          seed u.balance_s)
       all);
  span_table layers;
  write_spans w ~seed layers;
  let problems =
    round_failures u @ round_failures t
    @ (match Workloads.same_rounds u.rounds t.rounds with
      | Ok () -> []
      | Error e -> [ "traced run differs from untraced: " ^ e ])
    (* priming the oracle is a valid way to time it only if the traced
       run probes exactly as often as the untraced one *)
    @ (if layers.oracle_probes = untraced_probes then []
       else
         [
           Printf.sprintf "oracle probes: traced %d, untraced %d"
             layers.oracle_probes untraced_probes;
         ])
    @ claims w t @ bypass_problems w all
  in
  finish ~problems
    ~attempted:(List.length u.rounds + List.length t.rounds)
    ~failed:(List.length u.failures + List.length t.failures)
    ~replay_line:(replay w ~seed ~seconds ~traced:true)
    (select Report.per_layer_names all)

let () =
  let w, seed, seconds, traced = parse_args () in
  if traced then traced_run w ~seed ~seconds else untraced_run w ~seed ~seconds
