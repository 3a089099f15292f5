module Faults = P2plb_sim.Faults

(** Driving the load balancer to convergence.

    The paper's scheme runs periodically; one round usually suffices
    (Fig. 4), but adversarial load shapes (heavy Pareto tails, tiny
    epsilon) can need a few rounds, and a live system re-balances
    after every load drift.  This module iterates {!Controller.run}
    until quiescence and reports per-round statistics.

    With a fault plan the iteration doubles as a churn experiment: the
    plan's node crashes and partition episodes are armed on a
    simulated clock spanning all rounds and fire at the phase barriers
    inside each round, while message loss stresses the retry layer and
    transfer-path faults exercise the VST protocol's abort paths.
    Rounds then run on whatever nodes remain, and convergence is
    judged against the live population.

    A per-round [check] hook turns the iteration into a soak: the
    first failing check stops the run and is reported as a
    {!Violation}, so a chaos harness can assert whole-system invariants
    after every round and name the exact round that broke them. *)

type round = {
  index : int;  (** 0-based *)
  heavy_before : int;
  heavy_after : int;
  moved_load : float;
  transfers : int;
  live_nodes : int;  (** alive after the round *)
  skipped : int;  (** transfers dropped (stale pairing after churn) *)
  aborted : int;  (** transfer transactions rolled back per cause *)
  deduped : int;  (** duplicated TRANSFERs dropped by sequence number *)
  repairs : int;  (** KT nodes re-planted this round *)
  repair_messages : int;
  retries : int;
  timeouts : int;
  tree_depth : int;  (** depth of the round's KT *)
  moved_fraction : float;  (** {!Controller.moved_fraction} of the round *)
}

(** Why the iteration stopped — the one answer to "did it converge".
    The checks run in this order after every round. *)
type stop =
  | Converged  (** a check passed and the round left no heavy node *)
  | Fixed_point
      (** heavies remain but the round made no transfer: each residual
          heavy holds VSs no light node can take, so further rounds
          would repeat this one *)
  | Budget  (** heavies remain and [max_rounds] rounds have run *)
  | Violation of int * string
      (** the per-round check failed: (round index, message) *)

type result = {
  rounds : round list;  (** in execution order, at least one *)
  stop : stop;
  converged : bool;
      (** derived from [stop]: [Converged] or [Fixed_point] *)
  total_moved : float;
  final_heavy : int;
  final_live : int;
  total_repairs : int;
  total_repair_messages : int;
  total_retries : int;
  total_timeouts : int;
  total_aborted : int;
  total_deduped : int;
  crashes : int;  (** fault-plan scheduled crashes that fired *)
  transfer_crashes : int;  (** mid-transfer-window crashes injected *)
  partitions_formed : int;  (** partition episodes that started *)
}

val run :
  ?config:Controller.config ->
  ?faults:Faults.t ->
  ?obs:P2plb_obs.Obs.t ->
  ?max_rounds:int ->
  ?check:(round -> (unit, string) Stdlib.result) ->
  Scenario.t ->
  result
(** Runs up to [max_rounds] (default 10) rounds, stopping early when
    no heavy nodes remain or a round makes no transfer (see {!stop}).
    When [faults] is enabled, its crash schedule and partition
    episodes are armed over a horizon of [max_rounds] simulated time
    units and every round is driven with the fault plan attached;
    without it, behaviour is byte-identical to the fault-free path.
    [obs] is
    threaded into every round (see {!Controller.run}); successive
    rounds occupy successive units of simulated time.

    [check] runs after every round (after the round's remaining fault
    events have been drained); the first [Error] stops the iteration
    with {!Violation}.  With [obs], each round is wrapped in a
    ["round"] span. *)

val stop_to_string : stop -> string
(** ["converged"], ["fixed point"], ["round budget"] or
    ["violation@r<round>"]. *)

val pp : Format.formatter -> result -> unit
