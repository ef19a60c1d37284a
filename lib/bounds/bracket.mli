(** Certified brackets: [lower ≤ OPT ≤ upper] at any scale.

    A bracket runs the {!Lower} rule portfolio and the {!Upper}
    strategy portfolio under one {!Prbp_solver.Solver.Budget} and
    returns the pair with its certificates embedded: the witness
    partition behind the winning lower-bound rule (when one exists),
    the complete verified move list behind the upper bound, and a
    constructive {!Segment} partition profile of the DAG at cache size
    [2r].  Each certificate re-validates independently — {!Segment}
    re-checks partitions through {!Prbp_partition.Spart}, {!Upper}
    replays every strategy through the literal rules of
    {!Prbp_pebble.Verifier} at any DAG size — so a bracket is
    trustworthy even where the exact solvers cannot reach.

    Where the exact solvers {e can} reach, a bracket must contain the
    optimum; the test suite and experiment E31 enforce exactly that. *)

type moves =
  | Rbp_moves of Prbp_pebble.Move.R.t list
  | Prbp_moves of Prbp_pebble.Move.P.t list
      (** the verified strategy achieving [upper], tagged by game *)

type t = {
  game : Lower.game;
  r : int;
  n : int;  (** nodes of the bracketed DAG *)
  m : int;  (** edges *)
  lower : Lower.t;  (** best certified lower bound, with its rule *)
  upper : int;
      (** cost of [moves], certified by {!Prbp_pebble.Verifier} *)
  width : int;  (** [upper − lower.bound], the interval width *)
  moves : moves;
  meth : Upper.meth;  (** how the winning strategy was found *)
  profile : Segment.t option;
      (** constructive partition of the DAG at [s = 2r] (validated);
          [None] on very large DAGs, when no partition exists, or when
          the budget's deadline had passed before it was computed (it
          only describes the DAG; no bound depends on it) *)
  tight : bool;  (** [lower.bound = upper]: the bracket pins OPT *)
  elapsed_s : float;
  curve : Prbp_solver.Solver.Convergence.curve;
      (** how the bracket tightened over the run, as monotone
          [(t_s, lower, upper)] points: one when the lower portfolio
          is done, one per upper-bound candidate that passed
          verification and beat the incumbent (recorded the moment its
          replay passed), and one if a lower re-run raised the floor.
          The final point always equals [(lower.bound, Some upper)];
          its [t_s] is when that interval was first certified, at or
          before [elapsed_s]. *)
}

val rbp :
  ?budget:Prbp_solver.Solver.Budget.t ->
  ?telemetry:Prbp_solver.Solver.Telemetry.sink ->
  ?rules:string list ->
  r:int ->
  Prbp_dag.Dag.t ->
  (t, string) result
(** Bracket [OPT_RBP(r)].  The budget's wall clock is balanced across
    the two portfolios: the lower phase gets a 40% slice, the upper
    phase inherits {e everything still on the clock} when the lower
    phase finishes (so a short-circuiting rule portfolio donates its
    unused allotment), and leftover time after the upper phase flows
    back into a lower re-run when some rule was budget-truncated.
    The upper phase checks the clock before every base candidate after
    the first, and the profile is skipped once the deadline has passed,
    so a bracket overruns its deadline by about one candidate; under a
    tight deadline it can be wider than without one.
    Closed-form analytic bounds attach automatically from the DAG's
    {!Prbp_dag.Dag.family} tag.  [rules] restricts the {!Lower}
    registry (see {!Lower.compute}).  [telemetry] receives a [Start]
    event, one [Progress] event per point of [curve] as that point is
    certified (its [lower] and [upper] carry the interval; the search
    counters are 0), and a terminal [Stop] whose outcome is
    ["optimal"] when the bracket is tight, ["bounded"] otherwise.
    [Error] when no valid strategy exists at this [r] (below the
    feasibility threshold). *)

val prbp :
  ?budget:Prbp_solver.Solver.Budget.t ->
  ?telemetry:Prbp_solver.Solver.Telemetry.sink ->
  ?rules:string list ->
  r:int ->
  Prbp_dag.Dag.t ->
  (t, string) result
(** Bracket [OPT_PRBP(r)]. *)

val pp : Format.formatter -> t -> unit
(** One-line human summary. *)

(** {1 Budget split}

    Shared with {!Multi_bounds}, whose brackets split their budget the
    same way. *)

val scale_budget :
  Prbp_solver.Solver.Budget.t -> float -> Prbp_solver.Solver.Budget.t
(** [scale_budget b frac] is [b] with its wall-clock deadline scaled by
    [frac] (at least 1 ms); an unbounded budget stays unbounded. *)

val ms_left : Prbp_solver.Solver.Budget.t -> float -> int option
(** [ms_left b t0]: the milliseconds left of [b]'s deadline, counted
    from the {!Prbp_obs.Clock.now} reading [t0] (negative once it has
    passed); [None] when the budget is unbounded. *)
