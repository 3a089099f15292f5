module Prng = P2plb_prng.Prng
module Dht = P2plb_chord.Dht

(** Load and capacity generation per the paper's evaluation setup
    (§5.1).

    Virtual-server loads depend on the fraction [f] of the identifier
    space the VS owns (exponentially distributed under random VS ids,
    which our {!Dht.join} produces).  Two load models:

    - {b Gaussian}: load ~ N(mu*f, sigma*sqrt f), truncated at 0 —
      the many-small-independent-objects regime;
    - {b Pareto}: load ~ Pareto(shape = 1.5, mean = mu*f) — heavy
      tail, infinite variance.

    [mu] and [sigma] are the mean and standard deviation of the
    {e total} system load.

    Node capacities follow the Gnutella-like profile: capacity
    1 / 10 / 10^2 / 10^3 / 10^4 with probability
    20% / 45% / 30% / 4.9% / 0.1%. *)

type dist =
  | Gaussian of { sigma : float }
  | Pareto of { shape : float }

type config = { dist : dist; mu : float }

val default_gaussian : config
(** mu = 1.0 (loads are reported relative to the total), sigma = 0.05
    — small enough that per-VS loads stay dominated by the share of
    identifier space owned rather than by sampling noise. *)

val default_pareto : config
(** mu = 1.0, shape = 1.5 — exactly the paper's Pareto parameters. *)

val vs_load : Prng.t -> config -> fraction:float -> float
(** One VS's load given the identifier-space fraction it owns. *)

val assign_loads : Prng.t -> config -> Dht.t -> unit
(** Draws a fresh load for every VS in the DHT. *)

val capacity_levels : float array
(** [| 1.; 10.; 100.; 1000.; 10000. |]. *)

val capacity_probabilities : float array
(** [| 0.20; 0.45; 0.30; 0.049; 0.001 |]. *)

val sample_capacity : Prng.t -> float

val capacity_category : float -> int
(** Index into {!capacity_levels} of the nearest level (capacities
    produced by {!sample_capacity} map exactly). *)
