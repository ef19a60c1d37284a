(** Certified brackets for the multiprocessor games (RBP-MC /
    PRBP-MC), extending the {!Lower} rule registry and the {!Upper}
    strategy portfolio past the single-processor games.

    {b Lower bounds by pooled capacity.}  Any [p]-processor strategy
    at per-processor capacity [r] simulates on one processor with the
    pooled capacity [p·r] at no extra I/O: merge the per-processor red
    sets; a Load lands only if the value is not already red anywhere,
    a Save only if the value is not already blue, Computes run
    directly (all inputs are red in the merged set), and a Delete
    drops the value only when the last copy goes (PRBP-MC light/dark
    pebbles merge the same way, and a dark pebble is exclusive so it
    never collides).  Hence [OPT_1(p·r) ≤ OPT_p(r)] and {e every}
    single-processor rule of the {!Lower} registry evaluated at
    capacity [p·r] is a sound lower bound on the [p]-processor
    optimum.  Result labels are prefixed ["pooled:"] to record the
    reduction.

    {b Upper bounds by lifting.}  Conversely [OPT_p(r) ≤ OPT_1(r)]:
    a single-processor strategy {e is} a [p]-processor strategy played
    entirely on processor 0.  The {!Upper} portfolio runs at
    per-processor capacity [r] and its winner is lifted through
    {!Prbp_pebble.Multi.lift_rbp} / [lift_prbp], then re-verified —
    cost and all — through the {!Prbp_pebble.Multi} checkers (the
    literal rules of {!Prbp_pebble.Verifier}) before being believed.

    Together these bracket [OPT_p(r)] for any [p], far past
    {!Prbp_solver.Exact_multi}'s [p ≤ 8], [n ≤ 62] exact reach. *)

type moves =
  | Rbp_mc_moves of Prbp_pebble.Multi.Move.rbp list
  | Prbp_mc_moves of Prbp_pebble.Multi.Move.prbp list
      (** the verified multiprocessor strategy achieving [upper] *)

type t = {
  game : Lower.game;  (** the underlying game; [p] rides separately *)
  p : int;
  r : int;  (** per-processor fast-memory capacity *)
  n : int;
  m : int;
  lower : Lower.t;
      (** best pooled-capacity bound; [lower.r] is the per-processor
          [r], the labels carry the ["pooled:"] provenance *)
  upper : int;  (** certified by {!Prbp_pebble.Multi} replay *)
  width : int;  (** [upper − lower.bound] *)
  moves : moves;
  meth : Upper.meth;
      (** how the single-processor strategy was found; {!Upper}
          certified it through {!Prbp_pebble.Verifier} before the lift *)
  tight : bool;
  elapsed_s : float;
}

val lower :
  ?budget:Prbp_solver.Solver.Budget.t ->
  ?rules:string list ->
  game:Lower.game ->
  p:int ->
  r:int ->
  Prbp_dag.Dag.t ->
  Lower.t
(** The {!Lower} portfolio at the pooled capacity [p·r], relabelled
    ["pooled:…"]; a certified lower bound on [OPT_p(r)] for the
    [p]-processor game.  [?rules] restricts the registry as in
    {!Lower.compute}. *)

val rbp :
  ?budget:Prbp_solver.Solver.Budget.t ->
  ?rules:string list ->
  p:int ->
  r:int ->
  Prbp_dag.Dag.t ->
  (t, string) result
(** Bracket [OPT^RBP-MC_p(r)] under one budget (40% lower slice, the
    rest to the upper portfolio, mirroring {!Bracket}).  [Error] below
    the feasibility threshold or when no lifted strategy survives the
    multiprocessor checker. *)

val prbp :
  ?budget:Prbp_solver.Solver.Budget.t ->
  ?rules:string list ->
  p:int ->
  r:int ->
  Prbp_dag.Dag.t ->
  (t, string) result
(** Bracket [OPT^PRBP-MC_p(r)]. *)

val pp : Format.formatter -> t -> unit
