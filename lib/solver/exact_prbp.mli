(** Exact optimal PRBP pebbling cost by exhaustive 0–1 shortest-path
    search over game states.

    A state packs the four-valued pebble state of every node (2 bits
    each) together with the set of marked edges; the search explores
    save/load (cost 1) and partial-compute/delete (cost 0) transitions
    with the same bucketed 0–1 BFS as {!Exact_rbp}, plus safe prunings
    (a dark sink is never deleted — that state cannot be completed in
    the one-shot game; no-op loads are skipped).

    Limits: at most 31 nodes and 62 edges.  This certifies statements
    like [OPT_PRBP = 2] on the Figure-1 DAG (Proposition 4.2) and the
    per-copy optimality of Proposition 4.7 chains.

    The Appendix-B.1 re-computation variant ([recompute = true] in the
    config) is supported: [Clear] transitions rebuild internal values
    from scratch, making the marked-edge set non-monotone — the state
    space stays finite, but grows quickly; expect smaller feasible
    sizes. *)

val solve :
  ?budget:Solver.Budget.t ->
  ?telemetry:Solver.Telemetry.sink ->
  ?want_strategy:bool ->
  ?prune:bool ->
  ?eager_deletes:bool ->
  ?jobs:int ->
  Prbp_pebble.Prbp.config ->
  Prbp_dag.Dag.t ->
  Prbp_pebble.Move.P.t Solver.outcome
(** [solve cfg g] is the unified entry point: an anytime exact solve
    under [budget] (default {!Solver.Budget.default}).  Returns
    {!Solver.Optimal} (with one optimal strategy when [want_strategy],
    default off), {!Solver.Bounded} with a certified
    [lower <= OPT <= upper] interval (plus, under [want_strategy], the
    heuristic incumbent strategy) when the budget stops the search
    first, or {!Solver.Unsolvable} (only
    at [r = 1] — PRBP pebbles every DAG at [r >= 2]).

    [prune] (default on) seeds branch-and-bound from the cheaper of
    the two {!Heuristic} pebblers; any state whose distance plus an
    admissible residual bound (non-blue sinks + unloaded sources with
    unmarked out-edges) exceeds it is discarded — the optimum is
    unchanged.  [eager_deletes] disables the light-red
    capacity-normalization pruning (ablation measurements only).
    [telemetry] streams start/progress/prune/stop events.  [jobs]
    (default 1) searches on that many domains — same optimum, same
    certified interval on state-count-stopped runs; see
    {!Engine.Make.solve} for the exact determinism contract and the
    {!Solver.Budget.spill_words} interaction. *)
