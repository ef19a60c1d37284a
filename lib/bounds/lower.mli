(** Certified I/O lower bounds: a pluggable registry of admissible
    rules with a budget-aware scheduler.

    Every rule is a theorem-backed inequality on the {e optimal} cost,
    so the maximum over every result is itself a certified lower bound.
    Crucially, only {e minimum} class counts are admissible in the
    paper's [r·(MIN(2r)−1)] bounds — a constructive partition's class
    count merely upper-bounds [MIN] and proves nothing by itself — so
    partition-backed rules only report counts that are certified exact
    (a finished {!Prbp_partition.Minpart} search, or its early
    certification where a validated constructive partition meets the
    search's anytime floor) or certified floors (the anytime floor of a
    truncated search).  Witness partitions are re-validated through
    {!Segment.of_minpart} before any count is believed.

    The built-in rules, in registration (= tie-break priority) order:

    - ["trivial"] — every source is loaded and every sink saved at
      least once ({!Prbp_dag.Dag.trivial_cost}); both games.
    - ["closed-form"] — the Section 6.3 analytic bounds, auto-attached
      from the DAG's {!Prbp_dag.Dag.family} tag through the
      {!Prbp_graphs.Closed_form} registry; results are labelled
      ["closed-form:<name>"].
    - ["exact-dominator"] / ["exact-spartition"] / ["exact-edge"] —
      Theorems 6.7 / 5.4 / 6.5 with [MIN] computed by
      {!Prbp_partition.Minpart} under the rule's budget slice
      (["exact-spartition"] is RBP-only; the others hold for PRBP and
      therefore RBP).  Result labels grade the provenance:
      ["exact-*"] for a finished search, ["constructive-*"] for an
      early certification seeded by a {!Segment} partition, and
      ["anytime-*"] for a truncated search's certified floor. *)

type game = Rbp | Prbp

val game_label : game -> string
(** ["rbp"] | ["prbp"]. *)

type result = {
  label : string;
      (** attribution label, e.g. ["closed-form:fft"]; need not equal
          the rule's name when one rule yields graded or multiple
          results *)
  bound : int;  (** a certified lower bound on [OPT_game(r)]; ≥ 0 *)
  witness : Segment.t option;
      (** for partition rules: the minimum partition realizing the
          count, re-validated through {!Segment.of_minpart} *)
  truncated : bool;
      (** [true] when the result is a budget-truncated floor that more
          budget could improve *)
}

(** A lower-bound rule.  {b Soundness contract}: every [result.bound]
    returned by [compute] must be a certified lower bound on
    [OPT_game(r)] for each game the rule declares. *)
module type RULE = sig
  val name : string
  (** Registry key, unique; also the [?rules] selection handle. *)

  val games : game list
  (** Games the rule's inequality holds for. *)

  val share : int
  (** Relative weight of the rule's wall-clock consumption; the
      scheduler splits the budget deadline among applicable rules
      proportionally.  0 marks a negligible (closed-form style) rule,
      which runs under the unsliced budget. *)

  val applies :
    budget:Prbp_solver.Solver.Budget.t ->
    game:game ->
    r:int ->
    Prbp_dag.Dag.t ->
    bool
  (** Cheap feasibility gate, evaluated before budget slicing (so only
      rules that will actually run dilute the shares). *)

  val compute :
    budget:Prbp_solver.Solver.Budget.t ->
    game:game ->
    r:int ->
    Prbp_dag.Dag.t ->
    result list
  (** Run the rule under its budget slice.  May return several graded
      results, or none; raising [Invalid_argument]/[Failure] is treated
      as none. *)
end

val register : (module RULE) -> unit
(** Append a rule to the registry (registration order is the tie-break
    priority in {!compute}).
    @raise Invalid_argument on a duplicate name. *)

val names : unit -> string list
(** Registered rule names, in registration order. *)

val check_name : string -> (string, string) Stdlib.result
(** [Ok name] when a rule of that name is registered, else
    [Error "unknown lower rule \"name\" (registered: …)"] — the one
    name check behind every interface that takes rule names. *)

type t = {
  game : game;
  r : int;
  bound : int;  (** the best certified lower bound on [OPT_game(r)] *)
  rule : string;  (** label of the winning result; ["none"] if empty *)
  witness : Segment.t option;
      (** the winning result's witness partition, when it has one *)
  evaluated : (string * int) list;
      (** every result produced, as (label, bound) — the per-rule
          attribution trail *)
  truncated : bool;
      (** some rule was budget-truncated: a re-run with more budget
          could tighten the bound *)
}

val compute :
  ?budget:Prbp_solver.Solver.Budget.t ->
  ?rules:string list ->
  game:game ->
  r:int ->
  Prbp_dag.Dag.t ->
  t
(** Run every applicable registered rule and keep the best bound (ties
    keep the earliest-registered).  [?rules] restricts to the named
    rules (unknown names simply select nothing).  Total function: with
    the built-ins registered the trivial rule always applies, so the
    result is at least 0.

    The exact rules are gated — at most 62 nodes / edges (the lattice
    representation's hard limit), and beyond 18 only when [budget]
    carries a wall-clock deadline — and the deadline is split across
    the applicable budget-consuming rules by [share]; a search that
    exhausts its slice still contributes its certified anytime floor,
    marked [truncated].

    The rules run on the DAG without its isolated nodes, family tag
    kept: an isolated node starts blue, is a sink that is already blue,
    and needs no move in either game, so removing it changes no
    optimum, and the paper's theorems assume there is none (a partition
    rule would count it as a class of its own).  On a DAG with
    isolated nodes the result carries no [witness], since a witness
    would partition the smaller DAG. *)
