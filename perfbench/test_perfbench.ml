(* Tests for the benchmark's own code: span self-time arithmetic, order
   statistics, the tail-percentile choice, agreement of the emitted
   metric names with BENCHMARK.json, and detection of a traced/untraced
   mismatch.  The BENCHMARK.json path is the first argument. *)

module Stats = Perfbench.Stats
module Spans = Perfbench.Spans
module Workloads = Perfbench.Workloads
module Report = Perfbench.Report

let close = Alcotest.float 1e-9

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

let test_self_time () =
  Alcotest.check close "no children" 10.0 (Spans.self_time ~start:0.0 ~stop:10.0 []);
  (* [1,3] and [2,4] overlap (3 covered), [5,6] covers 1, [9,12] is
     clipped to [9,10] *)
  Alcotest.check close "overlaps and clipping" 5.0
    (Spans.self_time ~start:0.0 ~stop:10.0
       [ (1.0, 3.0); (2.0, 4.0); (5.0, 6.0); (9.0, 12.0) ]);
  Alcotest.check close "child outside" 2.0
    (Spans.self_time ~start:0.0 ~stop:2.0 [ (3.0, 4.0) ])

let span id name parent start stop alloc =
  { Spans.id; name; parent; start; stop; alloc }

let test_summarize () =
  let spans =
    [
      span 0 "round" (-1) 0.0 10.0 100.0;
      span 1 "ktree.build" 0 2.0 5.0 30.0;
      span 2 "vst.apply" 0 6.0 7.0 20.0;
      span 3 "inner" 1 2.5 3.0 5.0;
      span 4 "ktree.build" 0 7.0 8.0 10.0;
    ]
  in
  let s = Spans.summarize spans in
  let get name = Option.get (Spans.find s name) in
  Alcotest.check close "parent self = duration - children" 5.0
    (get "round").self_s;
  Alcotest.check close "parent self alloc" 40.0 (get "round").self_alloc;
  Alcotest.(check int) "count per name" 2 (get "ktree.build").count;
  Alcotest.check close "self over both spans" 3.5 (get "ktree.build").self_s;
  Alcotest.check close "total over both spans" 4.0 (get "ktree.build").total_s;
  Alcotest.check close "self alloc minus grandchild" 35.0
    (get "ktree.build").self_alloc;
  Alcotest.(check (list string))
    "first-appearance order"
    [ "round"; "ktree.build"; "vst.apply"; "inner" ]
    (List.map (fun (x : Spans.summary) -> x.name) s)

let test_recorder () =
  let sp = Spans.create () in
  let v =
    Spans.with_span sp "outer" (fun () ->
        Spans.with_span sp "inner" (fun () -> 41) + 1)
  in
  Alcotest.(check int) "value passes through" 42 v;
  (match Spans.spans sp with
  | [ o; i ] ->
    Alcotest.(check string) "outer first" "outer" o.name;
    Alcotest.(check int) "inner's parent" o.id i.parent;
    Alcotest.(check int) "outer is top level" (-1) o.parent;
    Alcotest.(check bool) "nested" true (o.start <= i.start && i.stop <= o.stop)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l));
  (* a raising thunk still closes its span *)
  (try Spans.with_span sp "raises" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "closed on exception" 3 (List.length (Spans.spans sp))

let triple = Alcotest.(triple close close close)

let test_quartiles () =
  (* expected values from Python's statistics.quantiles(data, n=4) *)
  Alcotest.check triple "two" (0.75, 1.5, 2.25) (Stats.quartiles [ 1.0; 2.0 ]);
  Alcotest.check triple "three" (1.0, 2.0, 3.0) (Stats.quartiles [ 3.0; 1.0; 2.0 ]);
  Alcotest.check triple "ten" (1.75, 3.5, 5.25)
    (Stats.quartiles [ 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6.; 5.; 3. ]);
  Alcotest.check triple "eight" (2.25, 4.25, 7.75)
    (Stats.quartiles [ 5.5; 1.25; 7.; 2.; 9.75; 3.; 3.; 8. ]);
  Alcotest.check close "median odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check close "median even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ])

let test_tail () =
  let upto n = List.init n (fun i -> float_of_int (i + 1)) in
  let tail = Alcotest.(option (pair (float 0.0) (pair (float 0.0) (pair int int)))) in
  let view = Option.map (fun (t : Stats.tail) -> (t.pct, (t.value, (t.beyond, t.n)))) in
  Alcotest.check tail "19 samples: no tail" None (view (Stats.tail (upto 19)));
  Alcotest.check tail "20 samples: median" (Some (50.0, (10.0, (10, 20))))
    (view (Stats.tail (upto 20)));
  Alcotest.check tail "100 samples: p90" (Some (90.0, (90.0, (10, 100))))
    (view (Stats.tail (upto 100)));
  Alcotest.check tail "1000 samples: p99" (Some (99.0, (990.0, (10, 1000))))
    (view (Stats.tail (List.rev (upto 1000))))

(* Small versions of the three workloads: the same code paths at a few
   hundred nodes. *)
let small = [ Workloads.ring ~n:512; Workloads.proximity ~n:512; Workloads.churn ~n:512 ]

let runs =
  lazy
    (List.map
       (fun w ->
         let setup = Workloads.setup w ~seed:3 in
         let u = Workloads.untraced w ~seed:3 setup in
         let t, l = Workloads.traced w ~seed:3  in
         (w, u, t, l))
       small)

let test_names benchmark_json () =
  let text = In_channel.with_open_bin benchmark_json In_channel.input_all in
  let sorted = List.sort String.compare in
  Alcotest.(check (list string))
    "end_to_end names" (sorted Report.end_to_end_names)
    (sorted (Report.benchmark_names ~section:"end_to_end" text));
  Alcotest.(check (list string))
    "per_layer names" (sorted Report.per_layer_names)
    (sorted (Report.benchmark_names ~section:"per_layer" text));
  List.iter
    (fun ((w : Workloads.t), (u : Workloads.outcome), t, l) ->
      let e2e =
        List.map
          (fun (m : Report.metric) -> m.name)
          (Report.end_to_end ~setup_s:1.0 ~balance_s:1.0 ~peak_heap_mb:1.0 u)
      and layer =
        List.map
          (fun (m : Report.metric) -> m.name)
          (Report.per_layer ~untraced_balance_s:u.balance_s t l)
      in
      List.iter
        (fun n ->
          Alcotest.(check bool) (w.name ^ " emits " ^ n) true (List.mem n e2e))
        Report.end_to_end_names;
      List.iter
        (fun n ->
          Alcotest.(check bool) (w.name ^ " emits " ^ n) true (List.mem n layer))
        Report.per_layer_names)
    (Lazy.force runs)

let test_mismatch () =
  List.iter
    (fun ((w : Workloads.t), (u : Workloads.outcome), (t : Workloads.outcome), _) ->
      Alcotest.(check (list (pair int string))) (w.name ^ " checks pass") [] u.failures;
      Alcotest.(check (result unit string))
        (w.name ^ " traced matches untraced")
        (Ok ())
        (Workloads.same_rounds u.rounds t.rounds);
      let last = List.length t.rounds - 1 in
      let perturb f =
        List.mapi (fun i (r : Workloads.round) -> if i = last then f r else r) t.rounds
      in
      let caught label rounds =
        match Workloads.same_rounds u.rounds rounds with
        | Ok () -> Alcotest.failf "%s: injected %s mismatch not caught" w.name label
        | Error e ->
          Alcotest.(check bool)
            (w.name ^ " names " ^ label)
            true
            (contains e label)
      in
      caught "moved" (perturb (fun r -> { r with moved = Float.succ r.moved }));
      caught "kt_messages" (perturb (fun r -> { r with kt_messages = r.kt_messages + 1 }));
      caught "heavy_after" (perturb (fun r -> { r with heavy_after = r.heavy_after + 1 }));
      caught "round count" (List.tl t.rounds))
    (Lazy.force runs)

let () =
  let benchmark_json = Sys.argv.(1) in
  Alcotest.run ~argv:[| Sys.argv.(0) |] "perfbench"
    [
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "summarize" `Quick test_summarize;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
      ( "stats",
        [
          Alcotest.test_case "median and quartiles" `Quick test_quartiles;
          Alcotest.test_case "tail percentile" `Quick test_tail;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "metric names" `Quick (test_names benchmark_json);
          Alcotest.test_case "injected mismatch" `Quick test_mismatch;
        ] );
    ]
