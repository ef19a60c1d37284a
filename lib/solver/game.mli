(** The [GAME] signature: what a pebble game must provide for the
    generic exact {!Engine} to solve it.

    Every exact solver in this library — classic RBP, PRBP, the black
    pebble game, and the multiprocessor extensions — is a 0–1
    shortest-path problem over packed integer states: moves cost 0
    (computes, deletes, slides) or 1 (loads, saves), and the optimum
    is the distance from the initial state to any goal state.  A
    [GAME] instance supplies the packing (a state is [width]
    consecutive ints in a caller-owned buffer), the initial state, the
    terminality test, the successor enumeration with 0/1 costs, an
    admissible residual lower bound, and an incumbent strategy for
    branch-and-bound.  {!Engine.Make} supplies everything else: the
    open-addressing state table, the 0-1 BFS deque, settled-state
    encoding, pruning, the incumbent's use as seed and certificate,
    and optimal-trace reconstruction.

    States are flat ints rather than a type parameter so that the hot
    path never boxes: the engine hands games [int array] scratch
    buffers and the games read/write raw packed words
    ({!State_table.Flat} stores them column-wise).  Moves travel the
    same way, as immediate int codes that only strategy reconstruction
    turns back into the game's [move] type. *)

(** The game interface.  All state buffers have exactly
    [width inst] ints; games must not retain the buffers they are
    handed (the engine reuses them). *)
module type S = sig
  type inst
  (** A preprocessed problem instance: the DAG as packed adjacency
      masks, the game configuration, and any per-instance pruning
      data.  Built once per [search] call by the concrete solver. *)

  val name : string
  (** Short stable identifier of the game ("rbp", "prbp", "black",
      "multi-rbp", "multi-prbp"); names the engine's solve spans and
      tags its telemetry. *)

  type move
  (** Move vocabulary of the strategies the engine reconstructs.  The
      search itself never builds a [move]: it records an immediate
      int code per transition, and {!decode} turns the codes of the
      one optimal path back into moves. *)

  val width : inst -> int
  (** Ints per packed state (constant for a given instance). *)

  val write_init : inst -> int array -> unit
  (** Store the initial state into [buf.(0 .. width-1)]. *)

  val is_goal : inst -> int array -> bool
  (** Terminality test on the state in [buf.(0 .. width-1)]. *)

  val residual_lb : inst -> int array -> int
  (** Admissible lower bound on the cost-to-go from the given state:
      never exceeds the true remaining optimal cost.  Return [0] to
      opt out.  Consulted by branch-and-bound when pruning is armed,
      and by the certified lower bound of truncated
      ({!Solver.Bounded}) outcomes.  Called once per new successor
      state, so it must not allocate. *)

  val incumbent : inst -> (int * move list) option
  (** A complete valid strategy and its cost (typically a heuristic
      pebbler's), or [None] when the game has none for this instance.
      The engine calls it once per pruned solve, before the search
      starts: the cost seeds branch-and-bound and is the upper bound of
      a truncated ({!Solver.Bounded}) outcome, which carries the moves
      as its [incumbent_strategy] when a strategy was requested.
      [None] disables pruning. *)

  val expand : inst -> int array -> scratch:int array ->
    emit:(int -> int -> unit) -> unit
  (** [expand inst cur ~scratch ~emit]: enumerate every legal move
      from the state in [cur]; for each, write the successor state
      into [scratch.(0 .. width-1)] and call [emit code cost01] with
      the move's int code (see {!decode}) and [cost01] ∈ {0, 1}.
      [emit] consumes [scratch] immediately, so the buffer may be
      reused across successors.  [cur] must not be modified.  This is
      the engine's innermost loop: it must not allocate (no boxed
      move, no local closure). *)

  val decode : inst -> int -> move
  (** The move an [expand] code stands for.  Called only when a
      strategy is rebuilt, once per move of the optimal path. *)
end
