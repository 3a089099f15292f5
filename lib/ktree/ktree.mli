module Id = P2plb_idspace.Id
module Region = P2plb_idspace.Region
module Dht = P2plb_chord.Dht

(** The self-organised, fully distributed K-nary tree built on top of
    the DHT (paper §3.1).

    Every KT node is responsible for a region of the identifier space
    (the root for the whole ring) and is {e planted} in the virtual
    server owning the centre point of that region.  A KT node whose
    region is completely covered by its hosting VS's region is a leaf;
    otherwise its region splits into K equal parts, one per child.
    This guarantees at least one KT leaf is planted in every VS.

    The tree is a function of the ring, so it is not stored: a value
    of {!t} keeps the DHT's sorted id array ({!Dht.ring_ids}) of the
    last {e sync} ({!build}, {!repair} or a changing {!refresh}), no
    copy of its own, plus per-VS summaries, and every operation
    computes the nodes it needs by one descent over those ids.  Sweeps, {!fold_nodes} and the per-VS
    queries see the tree of the last sync, not the live ring.

    Maintenance is soft state: {!repair} and {!refresh} diff the tree
    of the current ring against the tree of the last sync and charge
    what the distributed protocol would send.  A host change (the node
    is re-planted) costs K+1 messages, a pruned child one, a planted
    child one plus, with [route_messages], the hops of its DHT lookup.
    {!refresh} adds one heartbeat per edge; a sweep costs one message
    per edge of the tree. *)

type t

type node = {
  region : Region.t;
  depth : int;  (** root = 0 *)
  host : Id.t;  (** id of the VS owning the region's centre key *)
  leaf : bool;  (** the host's region covers [region] *)
}
(** A KT node as {!fold_nodes} shows it: computed on the fly, not part
    of any stored structure. *)

val set_obs : t -> P2plb_obs.Obs.t -> unit
(** Routes tree-maintenance events to an observability bundle:
    {!refresh} host changes emit ["kt/rehost"] points and {!repair}
    re-plants emit ["kt/replant"] points (both with a [depth]
    attribute, in preorder), each also bumping the counter of the same
    name.  Without an attachment the tree stays silent. *)

val build : ?route_messages:bool -> k:int -> Dht.t -> t
(** Plants the tree against the current ring, one message per node.
    Requires a non-empty ring and [k >= 2].  [route_messages]
    (default false) additionally routes each child's planting lookup
    through Chord from its parent's host to charge realistic hop
    counts to the message counter. *)

val k : t -> int

val depth : t -> int
(** Maximum depth over all KT nodes — the bound on aggregation /
    dissemination rounds.  An interval splits until no other id cuts
    it, so depth follows how closely VS ids crowd, not N alone: the
    bound is log_K of the id space (32 at K = 2), not O(log_K N).
    O(1). *)

val n_nodes : t -> int
(** O(1). *)

val n_leaves : t -> int
(** KT leaves at the last sync.  O(1). *)

val refresh : t -> Dht.t -> unit
(** One periodic maintenance pass: re-resolve every KT node's hosting
    VS, prune children of nodes that became leaves, grow children that
    became necessary, and send one heartbeat per edge.  On a ring with
    the ids of the last sync only the heartbeats are charged. *)

val repair : ?route_messages:bool -> t -> Dht.t -> int
(** Reactive self-repair, run before a sweep traverses the tree under
    churn: re-plant every KT node whose hosting VS left the ring or no
    longer owns the node's centre key, then prune/grow against the
    current ring.  With [route_messages] a re-plant's lookup is issued
    from the parent's healed host (at the root from the old host if it
    is alive, else by the key's new owner).  Free, and it counts
    nothing, when the ring has the ids of the last sync (an O(1)
    check: {!Dht.ring_ids} is still the array of that sync).  Returns the
    number of KT nodes re-planted this pass; cumulative costs are
    exposed by {!repairs} / {!repair_messages}. *)

val check_consistent : t -> Dht.t -> (unit, string) result
(** Structural invariants against the live ring, derived through the
    DHT ([owner_of_key], [region_of_vs]) rather than the walk's own
    arithmetic: every KT node is planted in the live VS owning its
    region's centre, leaves are exactly the covered nodes, {!n_nodes}
    and {!depth} match the walk, and every VS hosts at least one
    leaf.  Fails when the ring changed since the last sync. *)

val fold_nodes : t -> init:'a -> f:('a -> node -> 'a) -> 'a
(** Over all KT nodes, preorder. *)

val slot_of_vs : t -> Id.t -> int
(** The VS's rank among the ids of the last sync, or -1 if it was not
    on the ring then.  Every such VS reports through one designated
    leaf — the deepest leaf planted in it, the first in preorder on a
    tie (§3.2, §4.3) — and the sweeps hand that leaf this slot, so
    reports can be grouped by slot in an array. *)

val hosted : t -> Id.t -> int
(** KT nodes planted in the VS at the last sync (0 if it was not on
    the ring then): what moving the VS drags along (§4.4). *)

(** {1 Sweeps}

    The communication patterns of LBI aggregation (bottom-up),
    dissemination (top-down) and VSA (bottom-up), over the tree of the
    last sync.  A sweep is charged as the full tree's edges, one
    message each ({!n_nodes} - 1), and {!depth} + 1 rounds, whichever
    nodes the simulator actually visits: its work follows the reports,
    its cost follows the tree.  A leaf is passed as its slot (see
    {!slot_of_vs}) and its depth; an internal node as its depth. *)

val sweep_up :
  t ->
  occupied:(int -> bool) ->
  at_leaf:(int -> int -> 'a) ->
  combine:(int -> 'a list -> 'a) ->
  'a
(** [occupied slot] says whether a VS's designated leaf (see
    {!slot_of_vs}) has something to report.  The sweep visits the root
    and every node above an occupied designated leaf, nothing else:
    [at_leaf slot depth] runs on those leaves in preorder, [combine
    depth children] at each visited internal node on its visited
    children's results in child order, deepest first, and the root's
    value is returned.  When the root is a leaf, [at_leaf] runs on it
    whatever [occupied] says; a root with no occupied leaf below it
    gets [combine 0 []].  This equals the dense sweep over every node
    exactly when an unoccupied subtree's result is a unit of
    [combine] (LBI's zero, VSA's empty pool). *)

val sweep_down : t -> at_leaf:(unit -> unit) -> unit
(** Pushes the root's value down to every leaf: [at_leaf ()] runs once
    per KT leaf of the last sync ({!n_leaves} times), designated or
    not.  Only LBI dissemination pushes, and its value is the same at
    every leaf, so the sweep carries none. *)

(** {1 Cost accounting} *)

val messages : t -> int
(** Messages spent so far on building, maintaining and sweeping. *)

val rounds_last_sweep : t -> int
(** Rounds (tree levels traversed) of the most recent sweep. *)

val repairs : t -> int
(** KT nodes re-planted by {!repair} so far. *)

val repair_messages : t -> int
(** Messages spent on {!repair} passes (also included in
    {!messages}). *)

val reset_counters : t -> unit
