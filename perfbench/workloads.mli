module Scenario = P2plb.Scenario
module Controller = P2plb.Controller
module Faults = P2plb_sim.Faults

(** The benchmark's workloads and the two ways it drives each one.

    The {e untraced} run drives the program's real entry points —
    {!P2plb.Multiround.run}, or {!P2plb.Controller.run} twice for the
    aware-then-ignorant proximity workload — and yields the end-to-end
    figures.  The {e traced} run re-composes every round from the
    layers' public functions in [Controller.run]'s order, with a host
    span around each call; the two runs must agree round by round.

    Both runs thread one simulated-time observability bundle
    ({!P2plb_obs.Obs}) through the program, as [lb_sim] does: its
    per-round ["round/messages"] counter is the only place
    [Multiround.run] reports KT message counts. *)

type plan =
  | Rounds of { max_rounds : int; faults : Faults.config option }
      (** [Multiround.run] until its stop (or exactly [max_rounds]
          when the fault plan keeps heavy nodes appearing) *)
  | Aware_then_ignorant
      (** one proximity-aware round, then one proximity-ignorant round
          on a second build of the same network ([Scenario.build
          ~base]), underlay-hop pricing on *)

type t = {
  name : string;
  scenario : Scenario.config;
  controller : Controller.config;
  plan : plan;
  network_seed : int option;
      (** [Some n]: every run uses the underlay, distance oracle and
          landmark space built at seed [n] (as the paper's §5 uses
          fixed GT-ITM graphs), and [--seed] draws the rest *)
}

val ring : n:int -> t
(** Pareto(1.5) loads on [Transit_stub.scaled ~n], proximity-aware
    VSA, pricing off, run to its stop within 6 rounds. *)

val proximity : n:int -> t
(** The paper's §5 setup (ts5k-large, Gaussian loads) at [n] nodes,
    [Aware_then_ignorant]. *)

val churn : n:int -> t
(** ts5k-large, Gaussian loads, pricing off, 8 rounds under
    [Faults.churn ~crash_fraction:0.1 ~message_loss:0.02
    ~duplicate_prob:0.05 ~transfer_crash:0.05 ~partitions:2]. *)

val all : t list
(** ring-32k, proximity-4k, churn-4k. *)

val find : string -> t option

(** {1 Round records} *)

type round = {
  heavy_before : int;
  heavy_after : int;
  moved : float;
  transfers : int;
  kt_messages : int;
  repairs : int;
  aborted : int;
  skipped : int;
  live : int;
}

val same_rounds : round list -> round list -> (unit, string) result
(** Round-by-round agreement of an untraced and a traced run: every
    field equal, moved load bit for bit.  The error names the first
    differing round and field. *)

(** {1 Runs} *)

type setup = { scenarios : Scenario.t list; build_s : float }

val setup : t -> seed:int -> setup
(** Builds the workload's network(s) from [seed]: one scenario, or
    two sharing an underlay for [Aware_then_ignorant]. *)

type outcome = {
  rounds : round list;
  failures : (int * string) list;
      (** (round index, reason) for every failed output check *)
  balance_s : float;  (** host seconds balancing, checks excluded *)
  alloc_bytes : float;  (** allocated while balancing, checks excluded *)
  stopped : bool;  (** converged or fixed point before the budget *)
  final_ratio : float;
  final_heavy : int;
  moved_frac : float;
      (** cumulative moved load / initial total (aware round only for
          [Aware_then_ignorant]) *)
  moved_within2 : float;
  aware_within2 : float;  (** [Aware_then_ignorant] only; else nan *)
  ignorant_within2 : float;
}

val untraced : t -> seed:int -> setup -> outcome
(** Balances the freshly built [setup] through the real entry points.
    Consumes the setup (its DHTs are mutated). *)

type layers = {
  spans : Spans.t;
  oracle_probes : int;
  oracle_sources : int;
  dht_lookups : int;
  dht_hops : int;
  engine_events : int;
  retries : int;
  timeouts : int;
  ktree_nodes : int;  (** largest tree of the run *)
  ktree_depth : int;
  ktree_live_mb : float;  (** largest live heap right after a KT build *)
  ktree_repairs : int;
  ktree_repair_messages : int;
  lbi_messages : int;
  lbi_rounds : int;
  vsa_offered : int;
  vsa_assignments : int;
  vsa_rounds : int;
  vsa_publish_hops : int;
  vsa_stale_dropped : int;
  vst_transfers : int;
  vst_aborted : int;
  vst_skipped : int;
  vst_restructure_messages : int;
  minor_collections : int;
  major_collections : int;
}

val traced : t -> seed:int -> outcome * layers
(** Builds the workload inside a ["scenario.build"] span and
    re-composes every round from the layer calls, each inside its own
    span: [ktree.build], [ktree.query] (the depth and size walks
    [Controller.run] makes twice a round), [lbi.aggregate], [lbi.disseminate],
    [classify.census], [vsa.run], [oracle.prime] (pricing on only),
    [vst.apply], [engine.run_until] (fault plans only), [faults.arm],
    [invariants], [invariants.snapshot] and [gc.live] (the benchmark's
    own heap walk, once per run).  All of them nest in one [balance]
    span except [scenario.build] and [invariants.snapshot]. *)
