(** The generic exact-solver engine: one anytime 0-1 BFS +
    branch-and-bound core shared by every game.

    {!Make} turns any {!Game.S} instance into an exhaustive optimal
    solver.  The machinery is the PR-1 state core, factored out once:
    packed states live unboxed in a {!State_table.Flat} (dense
    insertion indices as state handles), the work queue is a {!Deque01}
    of dense indices only, a state's tentative distance lives in the
    table value and is flipped to [lnot d] (negative) once the state is
    popped and settled — the 0-1 BFS invariant guarantees the first pop
    sees the final distance, so stale queue entries are skipped on the
    sign alone.  Branch-and-bound prunes any {e new} state whose
    distance plus the game's admissible residual bound exceeds the
    cost of the game's {!Game.S.incumbent}; this never changes the
    optimum, only the explored count.

    {!Make.solve} is the single entry point: it honours a
    {!Solver.Budget} (state cap, wall-clock deadline, memory estimate,
    cooperative cancellation), reports into an optional
    {!Solver.Telemetry} sink, and always returns a {!Solver.outcome} —
    a proven optimum, a certified [lower ≤ OPT ≤ upper] interval when
    the budget stops the search first, or a proof that no goal state is
    reachable.  Nothing raises when the budget runs out.

    A sequential solve allocates nothing per expansion: moves travel
    as the games' int codes, and the state table, deque and parent
    arrays come from a workspace its domain recycles across solves
    (held weakly between them), so a repeated solve of an instance
    also leaves the major heap alone.  Every count and size a solve
    reports — [mem_words] included — is that of fresh memory. *)

module Make (G : Game.S) : sig
  val solve :
    ?budget:Solver.Budget.t ->
    ?telemetry:Solver.Telemetry.sink ->
    ?want_strategy:bool ->
    ?prune:bool ->
    ?jobs:int ->
    G.inst ->
    G.move Solver.outcome
  (** [solve inst] searches until a goal state is settled
      ({!Solver.Optimal}), the reachable space is exhausted
      ({!Solver.Unsolvable}), or [budget] (default
      {!Solver.Budget.default}) stops the search ({!Solver.Bounded},
      with the frontier-distance lower bound, clamped to the
      incumbent's cost, and the incumbent's cost as the certified
      interval).  [want_strategy] (default off) additionally
      reconstructs one optimal move sequence through the parent arrays,
      and attaches the incumbent's moves to a {!Solver.Bounded} outcome
      — strategy bookkeeping is strictly opt-in and is the only
      consumer of the parent arrays, which are never grown otherwise.
      [prune] (default on) computes [G.incumbent] once, before the
      search, and arms branch-and-bound with its cost; without [prune]
      there is no incumbent and no upper bound.  [telemetry] receives
      start/progress/prune/stop events; [None] keeps the hot loop
      allocation-free.

      [jobs] (default 1) runs the search on that many domains over a
      hash-sharded state table, as a level-synchronized 0-1 BFS with
      chunk stealing between domains.  The optimum, the certified
      interval of state-count-stopped runs, and the aggregated
      explored/expanded/pruned counters are identical for every [jobs]
      value (deadline/cancellation stops are timing-dependent by
      nature; the parallel path's pop order differs from the
      sequential engine's, so its counters match across [jobs >= 2]
      and may differ from [jobs = 1] on truncated runs).  A budget
      with {!Solver.Budget.spill_words} also routes through this path
      — even at [jobs = 1] — so a solve that outgrows [max_words]
      degrades to dropping its settled states from memory instead of
      stopping (re-reaching one costs re-exploration, never
      soundness), unless [want_strategy] is set (eviction would orphan
      the parent pointers; such solves stop at [max_words] as
      before).  The sequential and the parallel search return through
      one exit, which builds the outcome, emits the [Stop] event,
      publishes the end-of-solve metrics and annotates the solve
      span. *)
end
