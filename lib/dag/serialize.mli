(** Plain-text DAG serialization.

    A simple line-based format so DAGs can be exchanged with other
    tools and fed to the CLI:

    {v
    # anything after '#' is a comment
    nodes 4
    name 0 input
    edge 0 1
    edge 0 2
    edge 1 3
    edge 2 3
    v}

    [name] lines are optional; unnamed nodes print as [v<i>].
    Round-trips exactly: [of_string (to_string g)] rebuilds a DAG with
    identical nodes, names and edge ids. *)

val to_string : Dag.t -> string

val canonical : Dag.t -> string
(** The canonical rendering of the graph's {e structure}: nodes
    renumbered by {!Dag.canonical_order}, [edge] lines sorted, no
    [name] lines (names and the family tag are presentation, not
    structure).  Two isomorphic relabelings of the same DAG render
    identically (up to the canonicalization search budget, see
    {!Dag.canonical_order}); [of_string] parses it back into a DAG
    with the canonical numbering.  [Dag.hash] is not a digest of these
    bytes: it digests a compact rendering of the same canonical edge
    list (see {!Dag.hash}). *)

val of_string : string -> (Dag.t, string) result
(** Parse; errors carry the offending line number. *)

val to_file : string -> Dag.t -> unit

val of_file : string -> (Dag.t, string) result
(** [Error] also covers unreadable files. *)
