(** Immutable computational DAGs.

    Nodes are integers [0 .. n_nodes g - 1]; every edge carries a stable
    {e edge id} in [0 .. n_edges g - 1].  Edge ids are the currency of the
    PRBP game (partial-compute steps mark {e edges}) and of the S-edge
    partition machinery, so they are first-class here.

    The representation is CSR-style (offset + target arrays) in both
    directions, giving O(1) degree queries and allocation-free neighbor
    iteration.  Construction validates that the graph is acyclic and
    simple (no self-loops, no parallel edges). *)

type t

type node = int

type edge_id = int

exception Cycle of node list
(** Raised by {!make} when the edge set contains a directed cycle; the
    payload is one offending cycle, in order. *)

val make : ?names:string array -> ?family:string -> n:int -> (node * node) list -> t
(** [make ~n edges] builds a DAG on nodes [0..n-1].

    @param names optional display names, length [n].
    @param family optional family tag (e.g. ["fft:128"]) identifying the
      parameterized generator the DAG came from; the closed-form
      lower-bound registry keys off it.
    @raise Invalid_argument on out-of-range endpoints, self-loops or
      duplicate edges.
    @raise Cycle if [edges] contains a directed cycle. *)

val family : t -> string option
(** The family tag, if the DAG came from a tagged generator.  Derived
    views ({!reverse}, {!induced}) drop the tag: they are no longer the
    generated graph. *)

val with_family : t -> string option -> t
(** [with_family g f] is [g] re-tagged with family [f]; [None] drops
    the tag. *)

val n_nodes : t -> int

val n_edges : t -> int

val is_node : t -> int -> bool
(** [is_node g v]: [0 ≤ v < n_nodes g].  Moves and other input naming
    nodes from outside the library are checked with it. *)

val name : t -> node -> string
(** Display name of a node: the supplied name, or ["v<i>"]. *)

(** {1 Edges} *)

val edge_src : t -> edge_id -> node

val edge_dst : t -> edge_id -> node

val edge_id : t -> node -> node -> edge_id
(** [edge_id g u v] is the id of edge [(u, v)].
    @raise Not_found if there is no such edge. *)

val has_edge : t -> node -> node -> bool

val edges : t -> (node * node) list
(** All edges as pairs, in edge-id order. *)

val iter_edges : (edge_id -> node -> node -> unit) -> t -> unit
(** [iter_edges f g] calls [f e u v] for every edge, in edge-id order. *)

(** {1 Adjacency} *)

val in_degree : t -> node -> int

val out_degree : t -> node -> int

val max_in_degree : t -> int
(** The paper's Δ_in; 0 on an edgeless graph. *)

val max_out_degree : t -> int

val succs : t -> node -> node list

val preds : t -> node -> node list

val iter_succ : (node -> unit) -> t -> node -> unit

val iter_pred : (node -> unit) -> t -> node -> unit

val iter_succ_e : (edge_id -> node -> unit) -> t -> node -> unit
(** [iter_succ_e f g u] calls [f e v] for each out-edge [e = (u, v)]. *)

val iter_pred_e : (edge_id -> node -> unit) -> t -> node -> unit
(** [iter_pred_e f g v] calls [f e u] for each in-edge [e = (u, v)]. *)

val fold_succ : (node -> 'a -> 'a) -> t -> node -> 'a -> 'a

val fold_pred : (node -> 'a -> 'a) -> t -> node -> 'a -> 'a

(** {1 Sources and sinks} *)

val is_source : t -> node -> bool
(** In-degree 0. *)

val is_sink : t -> node -> bool
(** Out-degree 0. *)

val sources : t -> node list
(** In increasing node order. *)

val sinks : t -> node list

val n_sources : t -> int

val n_sinks : t -> int

val trivial_cost : t -> int
(** The paper's {e trivial cost} [m]: number of sources plus number of
    sinks — a lower bound on the I/O cost of any pebbling in both RBP
    and PRBP (every source is loaded and every sink saved at least
    once). *)

val has_isolated_nodes : t -> bool
(** The paper assumes DAGs without isolated nodes; generators never
    produce them, but user-built graphs may. *)

(** {1 Derived views} *)

val reverse : t -> t
(** The DAG with every edge flipped.  Edge ids are {e not} preserved. *)

val induced : t -> Bitset.t -> t * node array
(** [induced g keep] is the subgraph induced by the node set [keep],
    with nodes renumbered compactly; the returned array maps new node
    ids back to the original ones. *)

(** {1 Canonical form} *)

val canonical : t -> string * int array
(** [canonical g] is [(hash g, canonical_order g)] from one search:
    a caller that needs both (the [prbpd] cache key and the relabeling
    of a certificate into or out of canonical space) pays for one.

    The search is Weisfeiler–Leman color refinement with an
    individualize-and-refine search for the lexicographically smallest
    labeling.  The partition is an ordered node array cut into cells;
    a node's color is the position where its cell starts, and each
    refinement round re-sorts only the cells holding a neighbor of a
    node whose color just changed.  Those colors order the nodes exactly
    as dense ranks re-computed for every node each round would, so every
    comparison of the search — and so every byte of the result — is the
    same as under that simpler, slower refinement (pinned by
    [test/golden/canonical_v1.jsonl]).  The branch budget is 64
    individualizations.  Each call allocates its own scratch, so domains
    may canonicalize one value concurrently; nothing is memoized. *)

val canonical_order : t -> int array
(** A canonical relabeling of the nodes: [canonical_order g] is a
    permutation [id_of] with [id_of.(v)] the canonical id of node [v].
    It depends only on the structure of the graph — two isomorphic
    relabelings of the same DAG get the same canonical form — except on
    highly symmetric DAGs, where the search budget of {!canonical}
    makes the remaining ties break by node id (still deterministic and
    byte-stable across runs, merely labeling-sensitive).  Names and the
    family tag never participate.  [snd (canonical g)]. *)

val hash : t -> string
(** Content hash of the canonical form: the MD5, as a 32-character hex
    digest, of the node count followed by the canonically relabeled,
    sorted edge list (["n;u,v;u,v..."]).  Equal for isomorphic
    relabelings of the same structure (up to the {!canonical} search
    budget), different with overwhelming probability otherwise;
    byte-stable across runs and processes.  The key of the [prbpd]
    certificate cache.  [fst (canonical g)]. *)

val pp : Format.formatter -> t -> unit
(** One-line summary: node/edge counts and degree bounds. *)

val pp_full : Format.formatter -> t -> unit
(** Full adjacency dump, one node per line. *)
