module Id = P2plb_idspace.Id
module Region = P2plb_idspace.Region
module Prng = P2plb_prng.Prng

(** A simulated Chord DHT with virtual servers (32-bit id space).

    Physical nodes host multiple virtual servers (VSs); each VS is a
    first-class ring participant responsible for the arc between its
    predecessor VS and itself (paper §2, Fig. 1).  Load lives on VSs
    and moves with them; moving a VS between physical nodes is the
    unit of load transfer.

    Routing uses Chord's greedy finger algorithm evaluated against the
    current ring, counting overlay hops; lookup and message counters
    support the cost accounting in the experiments.  No finger table
    is stored: each hop computes its finger from the sorted ring in
    one probe (see {!lookup}). *)

type node_id = int

type vs = private {
  vs_id : Id.t;
  mutable owner : node_id;
  mutable load : float;
}

type node = private {
  node_id : node_id;
  underlay : int;  (** attachment vertex in the underlay topology *)
  capacity : float;
  mutable alive : bool;
  mutable vss : vs list;
}

type t

val create : seed:int -> t

(** {1 Membership} *)

val join : t -> capacity:float -> underlay:int -> n_vs:int -> node_id
(** Adds a physical node hosting [n_vs] virtual servers with
    pseudo-random identifiers.  When a VS lands inside an existing
    VS's region it takes over the sub-arc up to its own id, and
    inherits the proportional share of that VS's load (so total system
    load is invariant under joins). *)

val join_with_ids :
  t -> capacity:float -> underlay:int -> Id.t list -> node_id
(** Like {!join}, but the node's VSs get the given identifiers, in
    order: rings with chosen ids, such as the ends of the id space.
    Raises [Invalid_argument] when the list is empty, an id is outside
    the id space, repeats, or is already on the ring. *)

val crash : t -> node_id -> unit
(** Fail-stop departure, modelled as the post-repair state: each VS's
    region and load are absorbed by its successor VS (replication is
    assumed to have preserved the objects and hence the load).  Raises
    [Invalid_argument] when the crash would empty the ring; see
    {!can_crash}. *)

val can_crash : t -> node_id -> bool
(** The one rule every crash site follows: the node is alive, another
    node is alive, and the node does not host every VS (its VSs'
    successors must survive to absorb them). *)

val node : t -> node_id -> node
(** Raises [Not_found] for unknown ids. *)

val is_alive : t -> node_id -> bool
val n_nodes : t -> int
(** Number of alive nodes. *)

val n_vs : t -> int

val fold_nodes : t -> init:'acc -> f:('acc -> node -> 'acc) -> 'acc
(** Over alive nodes, in increasing [node_id] order (deterministic). *)

val fold_vs : t -> init:'acc -> f:('acc -> vs -> 'acc) -> 'acc
(** Over all virtual servers in ring order. *)

val alive_nodes : t -> node list
(** In increasing [node_id] order. *)

val alive_nth : t -> int -> node
(** [alive_nth t i] is the [i]-th alive node in increasing [node_id]
    order — [List.nth (alive_nodes t) i] without building the list.
    One scan of the node table (indexed by [node_id], dead nodes
    included): O(nodes ever joined).  Raises [Invalid_argument] when
    [i] is out of range. *)

val dead_nodes : t -> node list
(** Departed/crashed nodes, in increasing [node_id] order — for
    live-node-scoped invariant checks. *)

(** {1 Virtual servers, regions and load} *)

val ring_ids : t -> Id.t array
(** All VS ids in ascending order.  The array is shared, not copied:
    callers must never mutate it.  The DHT never mutates it either; it
    is the same array (physically) until the ring gains or loses a VS,
    and a fresh one afterwards, so [ring_ids t == a] tells whether the
    ring still has the ids it had when [a] was read.  Moving a VS
    ({!transfer_vs}) or changing its load keeps the array.  Built on
    the first read after a membership change: O(VSs) then, O(1)
    otherwise. *)

val vs_of_id : t -> Id.t -> vs option
val region_of_vs : t -> vs -> Region.t

val owner_of_key : t -> Id.t -> vs
(** The VS responsible for a key ([successor(k)]).  Raises
    [Invalid_argument] on an empty ring. *)

val set_vs_load : t -> vs -> float -> unit
val add_vs_load : t -> vs -> float -> unit
val node_load : node -> float
val node_unit_load : node -> float
(** Load per unit capacity — the y-axis of the paper's Figure 4. *)

val total_load : t -> float
val total_capacity : t -> float

val random_vs_of_node : t -> Prng.t -> node -> vs
(** A node reports LBI through one randomly chosen VS (§3.2). *)

val report_vs : t -> Prng.t -> node -> vs
(** Like {!random_vs_of_node}, but a node that currently hosts no VS
    (it shed everything in a previous round) reports through the VS
    owning its home key instead. *)

val transfer_vs : t -> vs_id:Id.t -> to_node:node_id -> unit
(** Re-hosts a VS (with its load and region) on another physical node:
    the VST operation.  Raises [Invalid_argument] if the VS does not
    exist or the target is dead. *)

val remove_vs : t -> vs_id:Id.t -> unit
(** Deletes a VS; its region and load are absorbed by the successor —
    CFS-style shedding (used by the CFS baseline).  The last VS on the
    ring cannot be removed. *)

(** {1 Routing} *)

val lookup : t -> from:Id.t -> key:Id.t -> vs * int
(** [lookup t ~from ~key] routes from the VS [from] to the VS
    responsible for [key] using greedy finger routing; returns the
    responsible VS and the overlay hop count (0 if [from] is itself
    responsible).  Each hop goes to the closest finger
    [successor(cur + 2^k)] strictly preceding [key], or to the
    successor when none does.  That finger is found in one probe:
    with [p] the last ring id before [key], it is
    [successor(cur + 2^floor(log2 (distance_cw cur p)))], which is what a
    scan of the 32 fingers from the farthest down returns. *)

(** {1 Cost accounting} *)

val lookups_performed : t -> int
val hops_used : t -> int
val reset_counters : t -> unit
