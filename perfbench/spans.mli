(** In-memory host-time spans around the calls into each layer.

    A span has a name (the layer call it wraps), an id, the id of the
    span that was open when it began (its parent; -1 at top level),
    start and end readings of {!Clock.now}, and the bytes allocated
    between them.  Spans are kept in memory while the workload runs
    and written out once it has finished, so recording costs two clock
    and two allocation reads per call. *)

type span = {
  id : int;
  name : string;
  parent : int;
  start : float;
  stop : float;
  alloc : float;  (** bytes allocated inside the span, children included *)
}

type t

val create : unit -> t

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Runs the thunk inside a span; the span is closed even if it
    raises. *)

val spans : t -> span list
(** Closed spans, in order of their start. *)

val self_time : start:float -> stop:float -> (float * float) list -> float
(** A span's duration minus the part of [start, stop] covered by the
    given child intervals (overlaps between children counted once,
    parts outside the parent ignored). *)

type summary = {
  name : string;
  count : int;
  total_s : float;  (** sum of durations *)
  self_s : float;  (** sum of self times *)
  self_alloc : float;  (** bytes, children's allocation subtracted *)
  durations : float list;  (** one per span, in start order *)
}

val summarize : span list -> summary list
(** Per-name totals, in order of each name's first appearance. *)

val find : summary list -> string -> summary option

val to_jsonl : span list -> string
(** One JSON object per line: name, id, parent, start, end (seconds
    from the first span's start), alloc_bytes. *)
