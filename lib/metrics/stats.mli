(** Summary statistics over float samples. *)

val mean : float array -> float
val stddev : float array -> float
val total : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [\[0, 100\]], linear interpolation
    between order statistics.  Requires non-empty input.  Does not
    mutate its argument. *)

val median : float array -> float

val gini : float array -> float
(** Gini coefficient of inequality in [\[0, 1\]]: 0 = perfectly even,
    →1 = concentrated.  Requires non-negative samples with positive
    sum.  Used to quantify load-distribution fairness. *)
