(** Heuristic pebblers: valid strategies (hence upper bounds on the
    optimum) at scales where exact search is impossible.

    Both pebblers process the DAG in topological order and manage fast
    memory with a pluggable eviction {!policy}; the default is Belady's
    rule (evict the value whose next use is farthest in the future),
    the classic offline caching policy.  LRU and FIFO are provided for
    ablation studies — they model what an online scheduler could do
    without knowledge of the future. *)

type policy =
  | Belady  (** farthest next use first (offline-optimal flavor) *)
  | Lru  (** least recently touched first *)
  | Fifo  (** oldest cache resident first *)

(** {b Determinism.}  Both pebblers are pure functions of their
    arguments.  Eviction ties are broken explicitly: first by the
    policy score, then by preferring a victim whose eviction is free
    (already saved, or never used again), and finally by the {e lowest
    node id} — so runs are reproducible move-for-move across OCaml
    versions and iteration-order changes, which the benchmark brackets
    rely on. *)

val rbp :
  ?policy:policy ->
  ?order:Prbp_dag.Dag.node array ->
  r:int ->
  Prbp_dag.Dag.t ->
  Prbp_pebble.Move.R.t list
(** One-shot RBP strategy.  Requires [r ≥ Δin + 1] (else
    [Invalid_argument]): each node is computed once, with its inputs
    loaded into fast memory as needed; evicted values are saved first
    when they will be used again (or are unsaved sinks).

    [order] overrides the processing order (default {!Prbp_dag.Topo.sort});
    it must be a topological order of the DAG (checked, else
    [Invalid_argument]) — the hook the local-search upper-bound
    portfolio uses to explore schedule perturbations. *)

val prbp :
  ?policy:policy ->
  ?order:Prbp_dag.Dag.node array ->
  ?defer_saves:bool ->
  r:int ->
  Prbp_dag.Dag.t ->
  Prbp_pebble.Move.P.t list
(** One-shot PRBP strategy; works for any [r ≥ 2] and any DAG.  Each
    target node is aggregated input by input; the current target holds
    one (dark) red pebble and the remaining capacity caches inputs.
    Completed values are kept resident while capacity allows, saved
    lazily on eviction, and dark values consumed entirely while
    resident are deleted for free.

    [order] as in {!rbp}.  [defer_saves] (default [false]) makes the
    evictor give up any free-to-evict resident value before paying a
    save for a partially-aggregated (dark) one, regardless of next-use
    distance — trading cache quality for fewer partial-value saves. *)

val rbp_cost : ?policy:policy -> r:int -> Prbp_dag.Dag.t -> int
(** Cost of {!rbp}, certified by replaying it through the rule-checking
    simulator. *)

val prbp_cost : ?policy:policy -> r:int -> Prbp_dag.Dag.t -> int
(** Cost of {!prbp}, certified by the simulator. *)

val prbp_greedy : r:int -> Prbp_dag.Dag.t -> Prbp_pebble.Move.P.t list
(** Greedy {e edge} scheduler: repeatedly marks the cheapest currently
    markable edge (0 loads before 1 before 2), so partially computed
    targets accumulate opportunistically instead of demanding all
    inputs in sequence — the scheduling freedom that defines PRBP.
    On aggregation-heavy DAGs (matvec, SpMV) this reaches the trivial
    cost where the node-major pebbler cannot.  O(m²) edge scans: meant
    for DAGs up to a few thousand edges. *)

val prbp_greedy_cost : r:int -> Prbp_dag.Dag.t -> int

val prbp_best : r:int -> Prbp_dag.Dag.t -> Prbp_pebble.Move.P.t list
(** The cheaper of {!prbp} (Belady) and {!prbp_greedy}. *)

val prbp_best_cost : r:int -> Prbp_dag.Dag.t -> int

val rbp_incumbent :
  r:int -> Prbp_dag.Dag.t -> (int * Prbp_pebble.Move.R.t list) option
(** {!rbp} (Belady) with its I/O count, or [None] when it cannot run
    ([r < Δin + 1]) — the exact engine's branch-and-bound seed for RBP
    and, lifted onto processor 0, for RBP-MC. *)

val prbp_incumbent :
  r:int -> Prbp_dag.Dag.t -> (int * Prbp_pebble.Move.P.t list) option
(** The cheaper of {!prbp} (Belady) and {!prbp_greedy} with its I/O
    count (ties keep {!prbp}), or [None] when neither runs ([r < 2]) —
    the exact engine's seed for PRBP and, lifted, for PRBP-MC. *)
