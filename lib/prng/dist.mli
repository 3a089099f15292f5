(** Random distributions used by the workload generators.

    Each sampler takes the {!Prng.t} stream explicitly.  Parameter
    conventions follow the paper's evaluation section (§5.1). *)

val normal : Prng.t -> mean:float -> stddev:float -> float
(** Gaussian via the Box–Muller transform.  [stddev >= 0]. *)

val normal_pos : Prng.t -> mean:float -> stddev:float -> float
(** Gaussian truncated at zero: resamples until non-negative (loads
    cannot be negative).  Requires [mean >= 0]. *)

val exponential : Prng.t -> mean:float -> float
(** Exponential with the given mean ([mean > 0]). *)

val pareto : Prng.t -> shape:float -> scale:float -> float
(** Pareto type-I with shape [alpha] and scale [x_m]:
    [P(X > x) = (x_m / x)^alpha] for [x >= x_m]. *)

val pareto_mean : Prng.t -> shape:float -> mean:float -> float
(** Pareto with shape [alpha > 1] parameterised by its mean:
    the scale is [mean * (alpha - 1) / alpha].  The paper draws
    virtual-server loads from Pareto(alpha = 1.5) with mean [mu * f]. *)

val zipf : Prng.t -> n:int -> s:float -> int
(** Zipf-distributed rank in [\[1, n\]] with exponent [s], by inverse
    transform on the exact CDF (O(log n) per draw after O(n) setup is
    avoided; this uses rejection-free linear scan bounded by harmonic
    partial sums computed lazily — suitable for the object workloads). *)

val weighted_index : Prng.t -> float array -> int
(** [weighted_index t w] picks index [i] with probability
    [w.(i) / sum w].  Weights must be non-negative with positive sum. *)

val dirichlet_fractions : Prng.t -> int -> float array
(** [dirichlet_fractions t k] draws [k] fractions summing to 1 whose
    marginals match the spacings of [k - 1] uniform order statistics —
    i.e. a flat Dirichlet.  Each fraction is Beta(1, k-1) marginally,
    approximately [Exp(1/k)] for large [k]: the classic model for the
    share of a DHT's identifier space owned by one of [k] random
    virtual servers. *)
