(** Undirected weighted graphs and shortest paths.

    The underlay Internet topology.  Edge weights are latency units:
    the paper counts an interdomain hop as 3 units and an intradomain
    hop as 1 unit (§5.1). *)

type t

type builder

val create_builder : n:int -> builder
(** A mutable builder for a graph on vertices [0 .. n-1]. *)

val add_edge : builder -> int -> int -> weight:int -> unit
(** Adds an undirected edge ([weight >= 0]; zero-latency links are
    allowed).  Duplicate edges are ignored (the first weight wins);
    self-loops are rejected. *)

val has_edge : builder -> int -> int -> bool

val freeze : builder -> t
(** Immutable form: compressed adjacency arrays. *)

val n_vertices : t -> int
val n_edges : t -> int

val neighbors : t -> int -> (int * int) array
(** [(vertex, weight)] pairs (a fresh array). *)

val degree : t -> int -> int

val dijkstra : t -> src:int -> int array
(** Single-source shortest path distances in latency units.
    Unreachable vertices get [max_int]. *)

val distance : t -> src:int -> dst:int -> int
(** Convenience single-pair distance (runs a full Dijkstra). *)

val is_connected : t -> bool

(** Exact hierarchical distance oracle for graphs made of a core and
    single-homed clusters (a transit-stub underlay: the transit
    vertices are the core, each stub domain a cluster).

    Precondition, checked by {!create}: every cluster has exactly one
    edge leaving it, from its {e gateway} to a core vertex, and no edge
    joins two clusters.  Then, with weights [>= 0], every shortest path
    decomposes exactly:
    - between different clusters (or a cluster and the core) it climbs
      from the source to its gateway, crosses the attachment edge and
      the core, and descends the same way to the destination;
    - inside one cluster it never leaves the cluster (leaving crosses
      the one bridge twice);
    - between two core vertices it stays in the core.

    So [create] stores each vertex's distance up to its attachment
    vertex (one Dijkstra per cluster) and {!distance} adds that to a
    core-to-core distance, computed over the core subgraph once per
    core source; same-cluster rows come from one Dijkstra over that
    cluster per source.  Every answer equals {!dijkstra}'s.  With an
    all-core map ([cluster.(v) = -1] everywhere) the core is the whole
    graph: one full Dijkstra per distinct source, memoised. *)
module Oracle : sig
  type graph := t
  type t

  val create : graph -> cluster:int array -> t
  (** [cluster.(v)] is [-1] for a core vertex and the vertex's cluster
      id ([>= 0]) otherwise.  Raises [Invalid_argument] if the map's
      length is not the vertex count, or if a cluster has zero or
      several edges leaving it, or an edge into another cluster. *)

  val distance : t -> src:int -> dst:int -> int
  (** Exact shortest-path distance; [max_int] if unreachable. *)

  val n_vertices : t -> int

  val sources_computed : t -> int
  (** Distinct source vertices queried so far; equal to {!probes}. *)

  val probes : t -> int
  (** Distinct source vertices queried so far: [0] on a fresh oracle,
      and repeated queries from one source add nothing.  Counts what a
      per-source measurement would cost, independent of how much of
      the answer the oracle had already memoised. *)
end
