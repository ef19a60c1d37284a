(** Exact optimal multiprocessor pebbling costs (RBP-MC and PRBP-MC)
    by exhaustive 0–1 shortest-path search — two more instances of the
    generic {!Engine}, for the Section-8.1 extension formalized in
    {!Prbp_pebble.Multi}.

    {b State packings.}  RBP-MC packs a state as [p + 2] ints: one red
    bitmask per processor, the shared blue mask, and the computed mask.
    PRBP-MC uses [2p + 2] ints: a light mask and a dark mask per
    processor (dark pebbles are exclusive — a partial value lives on at
    most one processor), the blue mask, and the marked-edge mask.

    {b Symmetry.}  Processors are interchangeable (each has the same
    capacity [r]), so successor states are canonicalized by sorting the
    per-processor masks, cutting the reachable space by up to [p!].
    [solve ~want_strategy:true] disables the canonicalization — its
    moves name concrete processors and replay through
    {!Prbp_pebble.Multi}'s checkers — and therefore explores more
    states.

    {b Limits.}  At most 8 processors (more raises
    [Invalid_argument]), at most 62 nodes (and,
    for PRBP-MC, 62 edges).  The state space grows like the
    single-processor games raised to the [p]-th power, so in practice
    expect [p ≤ 3] and [n ≲ 12]; past the budget the solves return a
    certified {!Solver.Bounded} interval.

    {b Sanity anchor.}  At [p = 1] both games coincide move-for-move
    with the Section-1/3 games, so [rbp_solve] / [prbp_solve] must
    match {!Exact_rbp.solve} / {!Exact_prbp.solve} on one-shot
    configs — checked by the engine regression suite and certified
    across DAG families by experiment E29. *)

(** {1 RBP-MC} *)

val rbp_solve :
  ?budget:Solver.Budget.t ->
  ?telemetry:Solver.Telemetry.sink ->
  ?want_strategy:bool ->
  ?prune:bool ->
  ?jobs:int ->
  Prbp_pebble.Multi.config ->
  Prbp_dag.Dag.t ->
  Prbp_pebble.Multi.Move.rbp Solver.outcome
(** Anytime exact solve for the total I/O (communication volume) of a
    complete RBP-MC pebbling under [budget] (default
    {!Solver.Budget.default}).  {!Solver.Optimal} carries one optimal
    strategy when [want_strategy] (default off; replayable through
    {!Prbp_pebble.Multi.R.check}, at the cost of disabling the
    processor-symmetry canonicalization); {!Solver.Bounded} attaches
    (under [want_strategy]) the single-processor heuristic incumbent
    lifted onto processor 0;
    {!Solver.Unsolvable} when no pebbling exists (e.g. [r < Δin + 1]).
    [prune] (default on) is the branch-and-bound switch.  [jobs]
    (default 1) searches on that many domains; see
    {!Engine.Make.solve} for the determinism contract. *)

(** {1 PRBP-MC} *)

val prbp_solve :
  ?budget:Solver.Budget.t ->
  ?telemetry:Solver.Telemetry.sink ->
  ?want_strategy:bool ->
  ?prune:bool ->
  ?jobs:int ->
  Prbp_pebble.Multi.config ->
  Prbp_dag.Dag.t ->
  Prbp_pebble.Multi.Move.prbp Solver.outcome
(** Anytime exact solve for the total I/O of a complete PRBP-MC
    pebbling; same contract as {!rbp_solve}, with strategies
    replayable through {!Prbp_pebble.Multi.P.check}.
    {!Solver.Unsolvable} only at [r = 1] — PRBP pebbles every DAG once
    [r ≥ 2]. *)
