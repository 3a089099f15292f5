(** Order statistics for the benchmark's repeated measurements. *)

val median : float list -> float
(** Middle value (mean of the two middle values for an even count).
    Raises [Invalid_argument] on an empty list. *)

val quartiles : float list -> float * float * float
(** First quartile, median and third quartile by the same rule as
    Python's [statistics.quantiles(data, n=4)] (the default
    "exclusive" method), so the benchmark's quartiles agree with an
    external check over the same values.  A single value is
    its own quartiles.  Raises [Invalid_argument] on an empty list. *)

type tail = {
  pct : float;  (** the percentile reported, e.g. 90.0 *)
  value : float;
  beyond : int;  (** samples strictly above that rank *)
  n : int;  (** sample count *)
}

val tail : float list -> tail option
(** The highest of the 99.9th, 99th, 95th, 90th, 75th and 50th
    percentiles (nearest rank) that still has at least ten samples
    beyond it; [None] when even the median has fewer than ten. *)
