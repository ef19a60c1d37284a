(** Exact optimal RBP pebbling cost by exhaustive 0–1 shortest-path
    search over game states.

    A state is [(red, blue, computed)] as bitmasks; moves with cost 0
    (compute, slide, delete) and cost 1 (load, save) make the state
    graph a 0/1-weighted digraph, explored with a bucketed BFS (Dial's
    algorithm).  Safe prunings keep the space manageable: values are
    never deleted while still needed and unsaved (such states are dead
    ends in the one-shot game), and no-op loads/saves are skipped.

    Supports the same variants as {!Prbp_pebble.Rbp.config}: sliding,
    re-computation ([one_shot = false]), and no-deletion.  Intended for
    DAGs of ≲ 20 nodes; beyond the budget the search returns a
    certified {!Solver.Bounded} interval instead of an answer.

    This is what certifies statements like [OPT_RBP = 3] on the
    Figure-1 DAG (Proposition 4.2). *)

val solve :
  ?budget:Solver.Budget.t ->
  ?telemetry:Solver.Telemetry.sink ->
  ?want_strategy:bool ->
  ?prune:bool ->
  ?eager_deletes:bool ->
  ?jobs:int ->
  Prbp_pebble.Rbp.config ->
  Prbp_dag.Dag.t ->
  Prbp_pebble.Move.R.t Solver.outcome
(** [solve cfg g] is the unified entry point: an anytime exact solve
    under [budget] (default {!Solver.Budget.default}).

    - {!Solver.Optimal} carries the optimal I/O cost, search stats and
      (with [want_strategy], default off) one optimal move sequence
      replayable through {!Prbp_pebble.Rbp.run}.
    - {!Solver.Bounded} is returned when the budget stops the search
      first: a certified [lower <= OPT <= upper] interval, with the
      heuristic incumbent strategy attached when one exists and
      [want_strategy] is set.
    - {!Solver.Unsolvable} means no valid pebbling exists
      (e.g. [r < Δin + 1]).

    [prune] (default on) enables branch-and-bound seeded from the
    {!Heuristic} pebbler; any state whose distance plus an admissible
    residual bound (unsaved sinks + unloaded, still-needed sources)
    exceeds the seed is discarded.  This never changes the optimum.
    [eager_deletes] disables the capacity-normalization pruning
    (deletes of recoverable values are then branched on at every
    state) — the optimum is unchanged, only the explored-state count
    differs; exposed for the pruning ablation in the benchmark
    harness.  [telemetry] streams start/progress/prune/stop events.
    [jobs] (default 1) searches on that many domains — same optimum,
    same certified interval on state-count-stopped runs; see
    {!Engine.Make.solve} for the exact determinism contract and the
    {!Solver.Budget.spill_words} interaction. *)
