module Prng = P2plb_prng.Prng
module Id = P2plb_idspace.Id
module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree
module Leaf_reports = P2plb_ktree.Leaf_reports
module Landmark = P2plb_landmark.Landmark
module Hilbert = P2plb_hilbert.Hilbert
module Faults = P2plb_sim.Faults

(** Phase 3: virtual-server assignment (paper §3.4 and §4.3).

    Heavy nodes select the minimal set of virtual servers to shed
    ({!Excess}); heavy and light nodes inject VSA records at the KT
    leaves; rendezvous pairing ({!Pairing}) runs bottom-up along the
    tree, pairing earlier the records that are closer in identifier
    space.

    Two report-injection modes:

    - {b Proximity-ignorant} (§3.4): a node hands its records to a
      random one of its own VSs, whose designated leaf receives them —
      so proximity in the identifier space is accidental.
    - {b Proximity-aware} (§4.3): a node publishes its records into
      the DHT keyed by its landmark-vector Hilbert number; each VS
      reports the records that landed in its region to its designated
      leaf.  Physically close nodes' records are then adjacent in
      identifier space and pair at low rendezvous points. *)

type mode =
  | Ignorant
  | Aware of {
      space : Landmark.space;
      order : int;
      curve : Hilbert.curve;
      binning : Landmark.binning;
    }

type result = {
  assignments : Types.assignment list;
  unassigned : Pairing.pool;  (** still unmatched at the root *)
  n_heavy : int;
  n_light : int;
  n_neutral : int;
  shed_offered : int;     (** VSs offered by heavy nodes *)
  load_offered : float;
  publish_hops : int;     (** overlay hops spent publishing (aware mode) *)
  direct_messages : int;  (** rendezvous→endpoint notifications *)
  rounds : int;
  stale_dropped : int;
      (** records dropped at rendezvous because their reporter died (or
          its shed VS vanished/changed owner) mid-round *)
  records_lost : int;
      (** records whose publication/report timed out after all retries *)
  assignments_lost : int;
      (** pairings abandoned because an endpoint notification timed out *)
}

val default_threshold : int
(** 30, the rendezvous threshold the paper suggests. *)

val node_records :
  epsilon:float -> lbi:Types.lbi -> Dht.node -> Types.vsa_record list
(** What one node reports for pairing: a heavy node's shed VSs (the
    minimal set chosen by {!Excess.choose_shed}), a light node's single
    spare-capacity slot, or nothing for a neutral node. *)

val deliver_published :
  Dht.t ->
  slot_of_vs:(Id.t -> int) ->
  (Id.t * 'r) list ->
  'r Leaf_reports.buffer ->
  unit
(** [deliver_published dht ~slot_of_vs published reports] hands on
    records published into the DHT, given as [(key, record)] pairs in
    publication order.  Each record lands at the VS owning its key, and
    that VS reports what landed in its region to leaf
    [slot_of_vs vs_id], or to none when that is -1: from the key
    nearest its own id back to its region's start, records under equal
    keys in publication order.  [slot_of_vs] must give distinct VSs
    distinct slots, as {!Ktree.slot_of_vs} does. *)

val run :
  ?threshold:int ->
  ?epsilon:float ->
  ?faults:Faults.t ->
  ?route_messages:bool ->
  mode:mode ->
  rng:Prng.t ->
  lbi:Types.lbi ->
  Ktree.t ->
  Dht.t ->
  result
(** One full VSA sweep against the current ring and tree.  In [Aware]
    mode, publications are routed through the DHT (counting lookups
    and hops) and delivered by {!deliver_published}.

    Churn resilience: the tree is {!Ktree.repair}ed first; record
    publications and rendezvous→endpoint notifications go through the
    fault plan's retry/timeout wrapper; stale records from dead
    reporters are dropped at the rendezvous instead of producing
    doomed transfers; failed landmarks degrade the proximity signal
    of the affected axes only. *)
