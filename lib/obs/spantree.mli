module Histogram = P2plb_metrics.Histogram

(** The one reader of a recorded trace — the [lb_sim trace-analyze]
    backend.

    One pass over the event list builds the span forest from the
    schema-v2 parent ids, each span keeping the point events recorded
    inside it.  Everything reported is derived from that forest: per
    round, one row per span name with its count, its point count and
    the sums of its numeric attributes (the per-phase message cost of
    §3 lives there); the point-event counts; and the paper's Figure
    7/8 histogram (moved load by underlay hop distance), rebuilt from
    ["vst/transfer"] points grouped by the ["mode"] of their enclosing
    span, without re-running the experiment.

    No figure here is a difference of timestamps: the trace's [t] is a
    logical clock laid out by the controller's barriers, not a duration
    (see {!Trace}).

    Everything is deterministic: ordering derives from event order and
    typed sorts only, so both reports are byte-identical across runs of
    the same seed (DESIGN.md §11). *)

type node = {
  nd_name : string;
  nd_t0 : float;  (** begin stamp — only places a bare root in its round *)
  nd_attrs : (string * Trace.value) list;
      (** begin attrs followed by end attrs *)
  nd_points : Trace.ev list;  (** point events recorded inside, in order *)
  nd_children : node list;  (** in begin order *)
}

type forest = {
  roots : node list;  (** in begin order *)
  loose : Trace.ev list;  (** point events outside any span *)
}

val of_events : Trace.ev list -> (forest, string) result
(** [Error] carries a diagnostic for a malformed trace: a span that
    begins twice, ends twice, ends without beginning or never ends
    (unbalanced), declares a parent that is not an open span (orphan
    parent), or a point naming a span that is not open. *)

(** {1 Rounds} *)

type round = { r_index : int; r_roots : node list; r_loose : Trace.ev list }

val rounds : forest -> round list
(** Roots and loose points grouped into balancing rounds, sorted by
    index.  A root span named ["round"] is placed by its ["index"]
    attr; any other root (a bare [Controller.run] emits its phases as
    roots) by [int_of_float t0], as is a loose point by its stamp —
    the controller gives each round one unit of logical time. *)

type row = {
  name : string;
  count : int;
  points : int;  (** point events recorded directly inside *)
  totals : (string * float) list;
      (** every numeric attribute, summed, sorted by key *)
}

val span_rows : round -> row list
(** One row per span name over the round's spans, sorted by name. *)

val point_counts : round list -> (string * int) list
(** Occurrences per point-event name, sorted. *)

val hop_histograms : round list -> (string * Histogram.t) list
(** Load-weighted hop histograms rebuilt from ["vst/transfer"] points
    ([hops] bin, [load] weight), one per enclosing-span ["mode"]
    (["all"] when untagged), sorted by mode. *)

(** {1 Reports}

    [?round] keeps one round; [?phase] keeps the span rows of one
    name.  Point counts and hop histograms cover the kept rounds. *)

val render : ?phase:string -> ?round:int -> forest -> string
(** Per-round span tables, the point-event table, the hop-cost table
    and its ASCII CDF plot. *)

val to_jsonl : ?phase:string -> ?round:int -> forest -> string
(** The same figures, one {!Trace.flat_to_line} object per line
    ([{"k":"trace",...}], [{"k":"span",...}], [{"k":"point",...}],
    [{"k":"hops",...}]). *)
