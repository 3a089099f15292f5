type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }
let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs

(* The end-to-end metrics the benchmark contract gates on, and the
   per-layer metrics it records; [BENCHMARK.json] lists exactly these
   (checked by test_perfbench). *)
let end_to_end_names =
  [
    "setup_s";
    "balance_s";
    "peak_heap_mb";
    "alloc_mb";
    "rounds";
    "moved_frac";
    "messages_per_node";
    "moved_within2";
  ]

let per_layer_names =
  [
    "scenario.build_s";
    "scenario.alloc_mb";
    "ktree.build_s";
    "ktree.alloc_mb";
    "ktree.query_s";
    "ktree.nodes";
    "ktree.depth";
    "ktree.live_mb";
    "ktree.repairs";
    "ktree.repair_messages";
    "lbi.aggregate_s";
    "lbi.disseminate_s";
    "lbi.alloc_mb";
    "lbi.messages";
    "lbi.rounds";
    "classify.s";
    "vsa.s";
    "vsa.alloc_mb";
    "vsa.offered";
    "vsa.assignments";
    "vsa.pair_ratio";
    "vsa.rounds";
    "vsa.publish_hops";
    "vsa.stale_dropped";
    "vst.s";
    "vst.alloc_mb";
    "vst.transfers";
    "vst.commit_ratio";
    "vst.aborted";
    "vst.skipped";
    "vst.restructure_messages";
    "oracle.probes";
    "oracle.sources";
    "oracle.s";
    "dht.lookups";
    "dht.hops_per_lookup";
    "engine.s";
    "engine.events";
    "faults.arm_s";
    "faults.retries";
    "faults.timeouts";
    "invariants.s";
    "gc.minor_collections";
    "gc.major_collections";
    "outcome.final_ratio";
    "outcome.heavy_after";
    "outcome.transfer_loss_frac";
    "outcome.failed_frac";
    "trace.balance_s";
    "trace.unattributed_s";
    "trace.overhead_frac";
  ]

let messages_per_node (o : Workloads.outcome) =
  ratio
    (sum (fun (r : Workloads.round) -> r.kt_messages) o.rounds)
    (sum (fun (r : Workloads.round) -> r.live) o.rounds)

let transfer_loss_frac (o : Workloads.outcome) =
  let lost = sum (fun (r : Workloads.round) -> r.skipped + r.aborted) o.rounds in
  ratio lost
    (lost + sum (fun (r : Workloads.round) -> r.transfers) o.rounds)

let failed_frac (o : Workloads.outcome) =
  ratio (List.length o.failures) (List.length o.rounds)

let end_to_end ~setup_s ~balance_s ~peak_heap_mb (o : Workloads.outcome) =
  [
    m "setup_s" "s" setup_s;
    m "balance_s" "s" balance_s;
    m "peak_heap_mb" "MB" peak_heap_mb;
    m "alloc_mb" "MB" (Clock.mb o.alloc_bytes);
    m "rounds" "count" (float_of_int (List.length o.rounds));
    m "final_ratio" "ratio" o.final_ratio;
    m "heavy_after" "count" (float_of_int o.final_heavy);
    m "moved_frac" "ratio" o.moved_frac;
    m "messages_per_node" "count" (messages_per_node o);
    m "moved_within2" "ratio" o.moved_within2;
    m "transfer_loss_frac" "ratio" (transfer_loss_frac o);
    m "failed_frac" "ratio" (failed_frac o);
  ]

(* Spans whose self time is a layer's own work; everything else inside
   the traced [balance] span is the benchmark's (excluded) or
   unattributed. *)
let layer_spans =
  [
    "ktree.build";
    "ktree.query";
    "lbi.aggregate";
    "lbi.disseminate";
    "classify.census";
    "vsa.run";
    "oracle.prime";
    "vst.apply";
    "engine.run_until";
    "faults.arm";
  ]

let per_layer ~untraced_balance_s (o : Workloads.outcome)
    (l : Workloads.layers) =
  let sums = Spans.summarize (Spans.spans l.spans) in
  let self name =
    match Spans.find sums name with Some s -> s.Spans.self_s | None -> 0.0
  in
  let alloc names =
    Clock.mb
      (List.fold_left
         (fun a name ->
           match Spans.find sums name with
           | Some s -> a +. s.Spans.self_alloc
           | None -> a)
         0.0 names)
  in
  let i x = float_of_int x in
  let attributed = List.fold_left (fun a n -> a +. self n) 0.0 layer_spans in
  [
    m "scenario.build_s" "s" (self "scenario.build");
    m "scenario.alloc_mb" "MB" (alloc [ "scenario.build" ]);
    m "ktree.build_s" "s" (self "ktree.build");
    m "ktree.alloc_mb" "MB" (alloc [ "ktree.build" ]);
    m "ktree.query_s" "s" (self "ktree.query");
    m "ktree.nodes" "count" (i l.ktree_nodes);
    m "ktree.depth" "count" (i l.ktree_depth);
    m "ktree.live_mb" "MB" l.ktree_live_mb;
    m "ktree.repairs" "count" (i l.ktree_repairs);
    m "ktree.repair_messages" "count" (i l.ktree_repair_messages);
    m "lbi.aggregate_s" "s" (self "lbi.aggregate");
    m "lbi.disseminate_s" "s" (self "lbi.disseminate");
    m "lbi.alloc_mb" "MB" (alloc [ "lbi.aggregate"; "lbi.disseminate" ]);
    m "lbi.messages" "count" (i l.lbi_messages);
    m "lbi.rounds" "count" (i l.lbi_rounds);
    m "classify.s" "s" (self "classify.census");
    m "vsa.s" "s" (self "vsa.run");
    m "vsa.alloc_mb" "MB" (alloc [ "vsa.run" ]);
    m "vsa.offered" "count" (i l.vsa_offered);
    m "vsa.assignments" "count" (i l.vsa_assignments);
    m "vsa.pair_ratio" "ratio" (ratio l.vsa_assignments l.vsa_offered);
    m "vsa.rounds" "count" (i l.vsa_rounds);
    m "vsa.publish_hops" "count" (i l.vsa_publish_hops);
    m "vsa.stale_dropped" "count" (i l.vsa_stale_dropped);
    m "vst.s" "s" (self "vst.apply");
    m "vst.alloc_mb" "MB" (alloc [ "vst.apply" ]);
    m "vst.transfers" "count" (i l.vst_transfers);
    m "vst.commit_ratio" "ratio" (ratio l.vst_transfers l.vsa_assignments);
    m "vst.aborted" "count" (i l.vst_aborted);
    m "vst.skipped" "count" (i l.vst_skipped);
    m "vst.restructure_messages" "count" (i l.vst_restructure_messages);
    m "oracle.probes" "count" (i l.oracle_probes);
    m "oracle.sources" "count" (i l.oracle_sources);
    m "oracle.s" "s" (self "oracle.prime");
    m "dht.lookups" "count" (i l.dht_lookups);
    m "dht.hops_per_lookup" "count" (ratio l.dht_hops l.dht_lookups);
    m "engine.s" "s" (self "engine.run_until");
    m "engine.events" "count" (i l.engine_events);
    m "faults.arm_s" "s" (self "faults.arm");
    m "faults.retries" "count" (i l.retries);
    m "faults.timeouts" "count" (i l.timeouts);
    m "invariants.s" "s" (self "invariants");
    m "gc.minor_collections" "count" (i l.minor_collections);
    m "gc.major_collections" "count" (i l.major_collections);
    m "outcome.final_ratio" "ratio" o.final_ratio;
    m "outcome.heavy_after" "count" (i o.final_heavy);
    m "outcome.transfer_loss_frac" "ratio" (transfer_loss_frac o);
    m "outcome.failed_frac" "ratio" (failed_frac o);
    m "trace.balance_s" "s" o.balance_s;
    m "trace.unattributed_s" "s" (o.balance_s -. attributed);
    m "trace.overhead_frac" "ratio" ((o.balance_s /. untraced_balance_s) -. 1.0);
  ]

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
             (number x.value) x.unit_)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body

let table title metrics =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (title ^ "\n");
  List.iter
    (fun x ->
      Buffer.add_string buf
        (Printf.sprintf "  %-28s %16.6g %s\n" x.name x.value x.unit_))
    metrics;
  Buffer.contents buf

(* Names listed under one top-level key of BENCHMARK.json: the text of
   that key's [...] value, scanned for "name" members.  Enough for the
   file's fixed shape, without a JSON library. *)
let benchmark_names ~section text =
  let key = Printf.sprintf "%S" section in
  let klen = String.length key and n = String.length text in
  let rec find_key i =
    if i + klen > n then None
    else if String.equal (String.sub text i klen) key then Some (i + klen)
    else find_key (i + 1)
  in
  match find_key 0 with
  | None -> []
  | Some i ->
    let start = String.index_from text i '[' in
    (* matching bracket, skipping string contents *)
    let rec close j depth in_str =
      if j >= n then n
      else
        match text.[j] with
        | '\\' when in_str -> close (j + 2) depth in_str
        | '"' -> close (j + 1) depth (not in_str)
        | '[' when not in_str -> close (j + 1) (depth + 1) in_str
        | ']' when not in_str ->
          if depth = 1 then j else close (j + 1) (depth - 1) in_str
        | _ -> close (j + 1) depth in_str
    in
    let body = String.sub text start (close start 0 false - start) in
    let marker = "\"name\"" in
    let ml = String.length marker and bl = String.length body in
    let rec names j acc =
      if j + ml > bl then List.rev acc
      else if String.equal (String.sub body j ml) marker then
        let q1 = String.index_from body (j + ml) '"' in
        let q2 = String.index_from body (q1 + 1) '"' in
        names (q2 + 1) (String.sub body (q1 + 1) (q2 - q1 - 1) :: acc)
      else names (j + 1) acc
    in
    names 0 []
