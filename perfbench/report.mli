(** Metric assembly and output. *)

type metric = { name : string; unit_ : string; value : float }

val end_to_end_names : string list
(** The end-to-end metrics printed in the result line of an untraced
    run — exactly the [end_to_end] names of [BENCHMARK.json]. *)

val per_layer_names : string list
(** The per-layer metrics printed in the result line of a traced run —
    exactly the [per_layer] names of [BENCHMARK.json]. *)

val end_to_end :
  setup_s:float -> balance_s:float -> peak_heap_mb:float ->
  Workloads.outcome -> metric list
(** Every end-to-end figure of an untraced run, including those that
    can be 0 on some workloads (heavy_after, transfer_loss_frac,
    failed_frac) and so are printed in the table but gated per layer. *)

val per_layer :
  untraced_balance_s:float -> Workloads.outcome -> Workloads.layers ->
  metric list
(** Every per-layer figure of a traced run.  Times are self times:
    each layer's span durations minus what its child spans cover.
    [trace.unattributed_s] is the traced [balance_s] that no layer
    span accounts for. *)

val json_line :
  correct:bool -> attempted:int -> failed:int -> metric list -> string
(** The benchmark's one-line result object. *)

val table : string -> metric list -> string
(** Human-readable listing, one metric per line with its unit. *)

val benchmark_names : section:string -> string -> string list
(** The ["name"] members under one top-level array key of a
    [BENCHMARK.json] text, in file order. *)
