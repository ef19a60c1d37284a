(** The classic black pebble game and its pebbling number.

    Appendix B.2 of the paper grounds the sliding-pebble RBP variant in
    the black pebble game, where results are traditionally developed.
    This module provides that substrate: a node may be pebbled when all
    its in-neighbors carry pebbles (sources any time), pebbles may be
    removed freely, and — in the sliding variant — a pebble may move
    from an in-neighbor onto the node it enables.  Re-computation is
    allowed (the game is about {e space}, not work), and the goal is to
    have touched every sink at least once.

    The {e pebbling number} is the minimum capacity for which a
    complete strategy exists.  It measures the pure space requirement
    of the computation, with no I/O at all — a useful companion to the
    trivial-cost cache thresholds of the red-blue games (see experiment
    E26).

    Implemented as the all-zero-cost instance of the generic
    {!Engine}: every move is free, so feasibility at capacity [s] is
    exactly "the engine finds a goal state" — the third game sharing
    the one search core, after {!Exact_rbp} and {!Exact_prbp}. *)

type move = Place of int | Slide of int * int | Remove of int
(** The black-game move vocabulary; [solve ~want_strategy:true]
    reconstructs one complete pebbling as a move list. *)

val solve :
  ?budget:Solver.Budget.t ->
  ?telemetry:Solver.Telemetry.sink ->
  ?want_strategy:bool ->
  ?sliding:bool ->
  ?jobs:int ->
  s:int ->
  Prbp_dag.Dag.t ->
  move Solver.outcome
(** Anytime feasibility solve at capacity [s].  {!Solver.Optimal}
    (always with [cost = 0] — every black move is free) means a
    complete pebbling exists; {!Solver.Unsolvable} means none does;
    {!Solver.Bounded} means [budget] (default
    {!Solver.Budget.default}) ran out before either was settled —
    feasibility at this capacity is then genuinely open.
    Branch-and-bound is moot in an all-zero-cost game and stays off.
    [jobs] (default 1) searches on that many domains; see
    {!Engine.Make.solve}. *)

val feasible :
  ?sliding:bool -> ?max_states:int -> s:int -> Prbp_dag.Dag.t -> bool option
(** Is there a complete black pebbling using at most [s] pebbles?
    Decided by exhaustive search over (pebble-set, visited-sinks)
    states; [max_states] defaults to [2_000_000].  [None] when the
    state budget runs out first (where {!solve} returns [Bounded]). *)

val number :
  ?sliding:bool -> ?max_states:int -> Prbp_dag.Dag.t -> int option
(** The pebbling number: the least [s] with [feasible ~s = Some true].
    At most [n]; at least [Δin + 1] without sliding ([Δin] with, when
    [Δin ≥ 1]).  [None] when the state budget of one of the feasibility
    solves runs out before the number is settled. *)
