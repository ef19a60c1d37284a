(** Certified I/O upper bounds: local search over heuristic strategies.

    A candidate strategy's cost is {e never} taken from the pebbler
    that produced it: every candidate, at every DAG size, is replayed
    through {!Prbp_pebble.Verifier} — the literal, paper-transcribed
    rules, which share no code with the engines that produce
    strategies — and a candidate the checker rejects is
    dropped from the portfolio, not repaired.  The returned cost is
    therefore the certified cost of a complete pebbling whose move
    list is included as the certificate.

    The portfolio, per game, in the order it runs:

    - Belady's offline eviction ({!Prbp_solver.Heuristic}) on the
      default topological order, and for PRBP also with [defer_saves]
      ([belady+defer]) — the recompute-vs-save trade: deferring the
      save of a partially-aggregated value in favor of evicting a free
      resident;
    - {e banded} orders ({!banded_order} at heights 1–3) under Belady:
      blocked schedules that keep a band of consecutive depth levels'
      components cache-resident — the classic tiling win on layered
      DAGs like FFT, where the default row-by-row order thrashes;
    - the PRBP greedy {e edge} scheduler (small DAGs);
    - hill climbing over the processing order: deterministic LCG-driven
      adjacent transpositions of the topological order (only swaps that
      keep the order topological), re-running the Belady pebbler on
      each perturbed order while the budget's wall clock allows.

    Each of these sets the best bound of some bracket in a survey over
    the generator families; candidates that never did are not run.

    The portfolio is anytime: each verified candidate that beats the
    incumbent is reported to the caller's [on_improve] as soon as its
    replay passes.  The first base candidate (Belady) always runs; the
    budget's wall clock and cancellation are checked before every later
    candidate, so the stage overruns its deadline by at most one
    candidate.  With tracing on, each [upper.candidate] and
    [upper.reorder] span carries the verified [cost] (absent when the
    checker rejected it) and [improved=true] when the candidate became
    the incumbent. *)

type meth = {
  base : string;  (** ["belady"], ["belady+defer"], ["greedy-edges"], … *)
  reorder_seed : int option;
      (** LCG seed of the order perturbation, when hill climbing won *)
}

val meth_label : meth -> string
(** E.g. ["belady+reorder"]. *)

type 'm t = {
  cost : int;  (** certified by replay through {!Prbp_pebble.Verifier} *)
  moves : 'm list;  (** the complete pebbling achieving [cost] *)
  meth : meth;
}

val banded_order : Prbp_dag.Dag.t -> h:int -> Prbp_dag.Dag.node array
(** A topological order that groups [h] consecutive depth levels into a
    band and emits each band connected-component by connected-component
    (components of the edges inside the band's one-level-overlapping
    span; deterministic: components by minimum emitted node id, nodes
    by (level, id)).  Always a valid topological order, for any DAG and
    any [h ≥ 1]. *)

val rbp :
  ?budget:Prbp_solver.Solver.Budget.t ->
  ?on_improve:(int -> meth -> unit) ->
  r:int ->
  Prbp_dag.Dag.t ->
  (Prbp_pebble.Move.R.t t, string) result
(** Best verified RBP strategy found within [budget]: the first base
    candidate always runs, and the wall clock and cancellation are
    checked before each later one.  [on_improve cost meth] is called
    for every candidate that passes verification and beats the
    incumbent, in order, so its last call reports the result.
    [Error] if [r] is below the RBP feasibility threshold [Δin + 1] or
    no candidate survives verification. *)

val prbp :
  ?budget:Prbp_solver.Solver.Budget.t ->
  ?on_improve:(int -> meth -> unit) ->
  r:int ->
  Prbp_dag.Dag.t ->
  (Prbp_pebble.Move.P.t t, string) result
(** PRBP counterpart; requires [r ≥ 2] on any DAG with an edge. *)
