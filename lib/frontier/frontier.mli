(** Anytime certified Pareto frontiers for the multiprocessor games:
    memory (per-processor capacity [r]) versus communication volume
    versus makespan, at a fixed processor count [p].

    The enumerator sweeps the ε-constraint over the memory axis: for
    each requested [r] it minimizes communication — exactly
    ({!Prbp_solver.Exact_multi}) when the instance is in exact reach,
    by certified bracket ({!Prbp_bounds.Multi_bounds}) beyond it — and
    prices the resulting witness under the unit {!Cost_model} to attach
    the time axis.  All probes run under {e one} shared
    {!Prbp_solver.Solver.Budget}; whatever each probe returns is a
    certified interval, so the sweep is {e anytime}: stopping early
    widens intervals but never invalidates a point.

    {b Certified geometry.}  Each point at capacity [r] carries
    [comm_lower ≤ OPT_comm(r) ≤ comm_upper] and
    [time_lower ≤ makespan of every valid strategy at r], with
    [(comm_upper, time_upper)] {e jointly} achieved by the embedded
    witness strategy.  One replay through the literal rules
    ({!Cost_model.eval_rbp} / [eval_prbp], which run the
    {!Prbp_pebble.Multi} checkers) both certifies the witness's cost
    and prices its makespan before either is believed.  Objective-space regions:
    everything componentwise above a point's
    [(r, comm_upper, time_upper)] corner is {b certified dominated}
    (the witness beats it), everything below [(comm_lower, time_lower)]
    at capacity ≤ [r] is {b certified infeasible}, and the band
    between a point's corners is {b still open} — more budget narrows
    it.  A point is marked [dominated] when another point's achievable
    corner certifiably beats its infeasibility corner at no more
    memory; {!front} is the surviving certified Pareto front.

    The reverse ε-constraint — the least memory meeting a
    communication cap — is {!min_r_for_comm}, a binary search over the
    same probes (sound because extra capacity never hurts:
    [OPT_comm] is non-increasing in [r]). *)

type game = Rbp_mc | Prbp_mc

val game_label : game -> p:int -> string
(** ["multi-rbp:P"] | ["multi-prbp:P"] — the wire spelling. *)

type point = {
  p : int;
  r : int;  (** per-processor capacity: the memory axis is [p·r] *)
  comm_lower : int;  (** certified: [OPT_comm(r) ≥ comm_lower] *)
  comm_upper : int option;
      (** certified cost of [witness]; [None] when the budget stopped
          a probe before any strategy was found *)
  time_lower : int;
      (** certified makespan floor for every strategy at this [r]
          ({!Cost_model.makespan_lower} at [comm_lower]) *)
  time_upper : int option;
      (** the witness strategy's priced makespan — jointly achieved
          with [comm_upper] by one strategy *)
  status : [ `Exact | `Bracketed ];
      (** [`Exact]: an exact solve settled [comm_lower = comm_upper];
          [`Bracketed]: a certified interval (truncated exact solve or
          {!Prbp_bounds.Multi_bounds} bracket) *)
  source : string;
      (** provenance: ["exact"], ["exact-truncated"], or the winning
          pooled lower-bound rule of the bracket *)
  verified : bool;
      (** the witness replayed through the {!Prbp_pebble.Multi}
          checker at exactly [comm_upper] (always re-checked here,
          independently of the producing engine, in the same replay
          that prices [time_upper]) *)
  settled : bool;  (** [comm_upper = Some comm_lower] *)
  dominated : bool;
      (** some other point's [(r, comm_upper, time_upper)] corner
          certifiably beats this point's
          [(r, comm_lower, time_lower)] corner, strictly in memory *)
  witness : Prbp_bounds.Multi_bounds.moves option;
  curve : Prbp_solver.Solver.Convergence.curve;
      (** how the probe's communication interval tightened over its
          budget slice (probe-relative seconds).  Exact probes record
          live through {!Prbp_solver.Solver.Convergence}; pooled
          brackets report a single terminal sighting. *)
}

type t = {
  game : game;
  p : int;
  model : string;  (** {!Cost_model.name}, the time axis' model *)
  points : point list;  (** one per feasible swept [r], ascending *)
  infeasible_rs : int list;
      (** swept capacities below the game's feasibility threshold *)
  exhausted : bool;  (** some point is still open: more budget helps *)
  elapsed_s : float;
}

val front : t -> point list
(** The certified Pareto front: points not certified dominated. *)

val open_points : t -> point list
(** Points whose communication interval is still open. *)

val sweep :
  ?budget:Prbp_solver.Solver.Budget.t ->
  ?rules:string list ->
  ?jobs:int ->
  game ->
  p:int ->
  rs:int list ->
  Prbp_dag.Dag.t ->
  t
(** Sweep the memory ε-constraint over [rs] (deduplicated, sorted
    ascending) under one shared budget: a wall-clock deadline is split
    evenly across the axes still to run, and an axis that finishes
    early donates its slack to the rest.  [rules] restricts the pooled
    lower-bound registry for bracketed points; [jobs] is threaded to
    the exact engine.
    @raise Invalid_argument if [p < 1], [rs] is empty, or any [r < 1]. *)

type min_r =
  | Min_r of { r : int; comm : int }
      (** least swept capacity whose certified [OPT_comm ≤ cap];
          exact when every probe settled *)
  | Min_r_between of int * int
      (** the budget left probes open: the least such capacity is
          certified to lie in this inclusive range *)
  | Min_r_infeasible  (** certified [OPT_comm > cap] even at [r_max] *)

val min_r_for_comm :
  ?budget:Prbp_solver.Solver.Budget.t ->
  ?rules:string list ->
  ?jobs:int ->
  game ->
  p:int ->
  comm_cap:int ->
  ?r_max:int ->
  Prbp_dag.Dag.t ->
  min_r
(** The reverse ε-constraint: binary-search the least per-processor
    capacity in [1, r_max] (default: the node count, which always
    suffices) at which the communication cap is certified achievable.
    Monotone because [OPT_comm(r)] is non-increasing in [r]. *)
