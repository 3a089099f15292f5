(** Machine-readable bench records ([BENCH_<rev>.json]) and the
    perf-regression gate.

    The file is JSONL on the trace sink's flat-object subset: a
    ["meta"] line (schema version, revision, experiment parameters),
    one ["experiment"] line per observed experiment (cpu seconds,
    allocated bytes, plus the simulation-derived convergence figures)
    and one ["bench"] line per micro-benchmark.  The
    simulation-derived fields are deterministic per seed —
    {!sim_digest} hashes exactly those, which is what the
    [@bench-smoke] alias pins across two runs — while cpu/alloc are
    the only wall-clock-tainted figures in the repo and are confined
    to this file (DESIGN.md §11). *)

val schema_version : int

type sim = {
  sm_rounds : int;
  sm_conv_round : int;  (** -1 when the run did not converge *)
  sm_final_ratio : float;
  sm_moved_frac : float;
  sm_transfers : int;
  sm_messages : int;
  sm_series_digest : string;
}

type experiment = {
  e_name : string;
  e_cpu_s : float;
  e_alloc_bytes : float;
  e_sim : sim;
}

type bench = { b_name : string; b_ns : float }

type meta = {
  m_schema : int;
  m_rev : string;
  m_nodes : int;
  m_graphs : int;
  m_seed : int;
  m_smoke : bool;
  m_jobs : int;
      (** [--jobs] domain count of the recording run *)
  m_wall_s : float;  (** wall-clock seconds of the figure phase *)
  m_speedup : float;
      (** total experiment cpu over wall — parallel utilisation.  Like
          cpu/alloc, wall-clock-tainted and excluded from
          {!sim_digest}. *)
}

type file = {
  f_meta : meta;
  f_experiments : experiment list;
  f_benches : bench list;
}

val sim_of_obs : Obs.t -> sim
(** Derives the deterministic figures from a finished run's bundle:
    timeseries rounds/convergence plus the [vst/transfers] and
    [round/messages] counters. *)

val to_json : file -> string
val write : file -> path:string -> unit

val parse : string -> (file, string) result
(** Rejects missing/mistyped fields, duplicate meta and unknown
    record kinds with a line-numbered diagnostic. *)

val load : string -> (file, string) result

val validate : file -> (unit, string) result
(** Schema version matches and at least one experiment is present.
    (Field presence/types are already enforced by {!parse}.) *)

val sim_digest : file -> string
(** Digest over the simulation-derived fields only — byte-identical
    across two runs of the same revision and parameters. *)

(** {1 The gate} *)

type gate = {
  g_max_regress_pct : float;  (** fail above this relative growth *)
  g_cpu_floor_s : float;  (** skip cpu rows with a baseline below this *)
  g_alloc_floor_bytes : float;
  g_ns_floor : float;
}

val default_gate : gate
(** 30% threshold (so an injected 50% slowdown fails), 20ms cpu floor,
    1MB alloc floor, 100ns bench floor — the floors keep timer noise
    on near-zero measurements from flapping the gate. *)

type report = { rp_checked : int; rp_regressions : string list }

val diff : gate -> baseline:file -> current:file -> report
(** Regressions: an experiment missing from the current run; cpu,
    alloc, transfers or messages above the threshold; convergence lost
    or reached in a later round; a micro-benchmark above the
    threshold; or the two records disagreeing on [m_jobs] (cpu/alloc
    comparisons are only like-with-like at equal domain counts).
    Benches missing from the current run are skipped (smoke runs carry
    none). *)
