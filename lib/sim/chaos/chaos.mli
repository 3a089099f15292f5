module Faults = P2plb_sim.Faults
module Multiround = P2plb.Multiround

(** Deterministic chaos-soak harness.

    For each of N seeds, derives a randomized fault mix (node crashes,
    message loss, per-message duplication, mid-transfer crash windows,
    and partition episodes — every class the fault layer can inject),
    runs multiround balancing under it, and asserts the full invariant
    battery — including VS conservation — after every round.  The
    report names the first failing seed with its complete fault config
    and a one-command replay line, so a red soak reproduces in one
    step.

    Everything derives from integer seeds: a soak re-run with the same
    base seed, node count and round budget is byte-identical. *)

val derive_config : seed:int -> Faults.config
(** The randomized fault mix for one seed: crash fraction up to 25%,
    message loss up to 4%, duplication and mid-transfer-crash
    probabilities in [2%, 20%], 1–2 partition episodes of 2–3 groups,
    and a randomized (capped) backoff policy.  Deterministic in
    [seed]; every transfer-path fault class is always enabled. *)

val render_config : Faults.config -> string
(** One-line rendering of a fault mix, as embedded in failure
    reports. *)

type seed_outcome = {
  o_seed : int;
  o_config : Faults.config;
  o_rounds : int;
  o_final_heavy : int;
  o_final_live : int;
  o_crashes : int;
  o_transfer_crashes : int;
  o_partitions : int;
  o_aborted : int;
  o_deduped : int;
  o_retries : int;
  o_timeouts : int;
  o_moved : float;  (** total moved load as a fraction of system load *)
  o_final_ratio : float;
      (** final max/avg utilization over the surviving nodes — the
          paper's convergence criterion ({!Timeseries.ratio}) *)
  o_stop : Multiround.stop;
      (** why the run ended; [Violation] names the first failing
          per-round invariant check *)
}

type report = {
  base_seed : int;
  seeds_requested : int;
  n_nodes : int;
  max_rounds : int;
  outcomes : seed_outcome list;
      (** in seed order; truncated after the first failure *)
  failure : seed_outcome option;  (** the first failing seed, if any *)
}

val run_seed :
  ?obs:P2plb_obs.Obs.t ->
  n_nodes:int ->
  max_rounds:int ->
  seed:int ->
  unit ->
  seed_outcome * Multiround.result
(** One soak iteration: builds the scenario and fault plan from
    [seed], derives the fault mix with {!derive_config}, and drives
    {!Multiround.run} with a per-round check asserting
    {!P2plb.Invariants.all} (load conservation against the initial
    total, plus VS conservation against a per-round snapshot with the
    round's crash budget). *)

val soak :
  ?pool:P2plb_sim.Par.t ->
  ?obs:P2plb_obs.Obs.t ->
  ?n_nodes:int ->
  ?max_rounds:int ->
  ?seeds:int ->
  ?base_seed:int ->
  unit ->
  report
(** [soak ()] runs seeds [base_seed .. base_seed + seeds - 1]
    (defaults: 64 seeds from 1, 256 nodes, up to 3 rounds each),
    stopping at the first invariant violation.

    With a multi-domain [?pool] the seeds run in parallel, one per
    task ({!P2plb_sim.Par}); per-seed outcomes are buffered and the
    report — and any [?obs] sinks — keep only the seeds up to and
    including the first failure, in seed order, byte-identical to the
    sequential early exit (seeds past a failure are computed and
    discarded). *)

val render : report -> string
(** The soak table (one row per seed) plus aggregate fault counts and,
    on failure, the failing seed's config and replay command. *)

val failed : report -> bool

val replay :
  ?obs:P2plb_obs.Obs.t ->
  ?n_nodes:int ->
  ?max_rounds:int ->
  seed:int ->
  unit ->
  string
(** Re-runs a single seed verbosely: fault config, per-round
    multiround statistics, and the invariant verdict. *)
