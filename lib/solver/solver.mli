(** Resource governance and observability for the exact solvers.

    Every engine-backed solve in the library goes through one request
    shape — [solve ?budget ?telemetry ?want_strategy … config dag] —
    and returns one {!outcome} shape.  A solve is {e anytime}: it
    either proves the optimum, or is stopped by its {!Budget} and
    still returns a certified interval [lower ≤ OPT ≤ upper] (the
    lower bound from the settled 0-1 BFS frontier plus the game's
    admissible residual, the upper bound from the branch-and-bound
    incumbent), or proves that no complete pebbling exists at all.
    Running out of budget is an outcome, never an exception.

    The {!Telemetry} sink makes long searches observable: progress
    callbacks every K expansions with explored/pruned counts, frontier
    size, settled depth, state-table load and elapsed wall time, plus
    start/stop/prune events; the JSON-lines form harnesses consume
    ([pebble_cli --trace]) lives in the wire schema ([Prbp_wire.Wire]).
    The default (no sink) keeps the
    hot loop allocation-free — governance costs one integer compare
    per expansion. *)

(** Resource budget for one solve. *)
module Budget : sig
  type t = {
    max_states : int;  (** distinct states inserted into the search *)
    max_millis : int option;  (** wall-clock deadline, milliseconds *)
    max_words : int option;
        (** cap on the search's estimated live heap words (state
            table + deque + strategy bookkeeping).  Polled every
            [check_every] expansions and re-checked whenever the state
            count crosses a power of two; since the tables grow
            geometrically, the estimate can still overshoot the cap by
            up to one growth step before the stop lands *)
    cancelled : (unit -> bool) option;
        (** cooperative cancellation, polled every [check_every]
            expansions; return [true] to stop the solve *)
    check_every : int;
        (** expansions between deadline/memory/cancellation polls *)
    spill_words : int option;
        (** when set, a solve that hits [max_words] evicts its settled,
            expanded states from memory instead of stopping (nothing
            is written anywhere: a state reached again is simply
            re-explored), and keeps searching until the evicted states
            reach this many words, counted as [width + 1] per state
            (then {!Max_words} applies).  Degrades throughput, never
            soundness.  Incompatible with strategy reconstruction: a
            [want_strategy] solve ignores it and stops at [max_words]
            as before *)
    prune_off_after : int;
        (** expansions of zero branch-and-bound prunes after which the
            engine stops paying for the residual bound check (the
            incumbent upper bound is kept).  Instances whose heuristic
            upper bound is far from OPT never prune, and for them the
            per-relaxation residual evaluation is pure overhead.
            [max_int] keeps pruning forever; recorded in
            {!stats.prune_disabled} when it fires *)
  }

  val default : t
  (** [{ max_states = 5_000_000; no deadline; no word cap; no
      cancellation; check_every = 2048 }] — the historical solver
      default. *)

  val v :
    ?max_states:int ->
    ?max_millis:int ->
    ?max_words:int ->
    ?cancelled:(unit -> bool) ->
    ?check_every:int ->
    ?spill_words:int ->
    ?prune_off_after:int ->
    unit ->
    t

  val default_prune_off_after : int
  (** 262144 expansions. *)

  val states : int -> t
  (** [default] with the given state cap (the old [~max_states:n]). *)

  val millis : int -> t
  (** [default] with a wall-clock deadline. *)

  val words : int -> t
  (** [default] with a memory cap. *)

  val unlimited : t
  (** No state cap either; the search runs until memory does. *)
end

type reason = Max_states | Deadline | Max_words | Cancelled
(** Why a budgeted solve stopped early. *)

val reason_label : reason -> string

val pp_reason : Format.formatter -> reason -> unit

type stats = {
  explored : int;  (** distinct states inserted into the search *)
  pruned : int;  (** states cut by branch-and-bound *)
  expansions : int;  (** states popped and expanded *)
  frontier : int;  (** queue entries left when the search ended *)
  elapsed_s : float;  (** wall-clock seconds *)
  mem_words : int;
      (** estimated live heap words of the search structures; strategy
          bookkeeping contributes 0 unless it was requested *)
  prune_disabled : bool;
      (** the engine switched branch-and-bound residual checks off
          mid-solve ({!Budget.t.prune_off_after} expansions passed with
          zero prunes) *)
  spilled : int;
      (** settled states evicted from memory by the spill tier
          ({!Budget.t.spill_words}); 0 unless spilling was enabled and
          triggered *)
}

val empty_stats : stats

(** Progress sink for the search loop. *)
module Telemetry : sig
  type progress = {
    expansions : int;
    explored : int;
    pruned : int;
    frontier : int;  (** 0-1 deque length *)
    depth : int;  (** settled 0-1 distance at the report *)
    table_load : float;  (** state-table probe-array load factor *)
    elapsed_s : float;
    lower : int;
        (** certified lower bound on OPT at this instant.  Mid-run it
            is the settled 0-1 distance (any cheaper pebbling would
            already have been popped); on a terminal {!event.Stop} it
            is the outcome's certified bound ({!interval}), which may
            exceed the last mid-run value. *)
    upper : int option;
        (** the branch-and-bound incumbent — the cost of a complete
            verified strategy already in hand — or [None] before one
            exists *)
  }

  type event =
    | Start of { width : int; max_states : int }
    | Progress of progress  (** every [every] expansions *)
    | Prune of { pruned : int }
        (** the cumulative branch-and-bound prune count crossed a
            power of two (logarithmic cadence keeps this out of the
            hot loop) *)
    | Stop of { outcome : string; progress : progress }
        (** terminal; [outcome] is ["optimal"], ["unsolvable"] or a
            {!reason_label} *)

  type sink = { every : int; emit : event -> unit }

  val default_every : int
  (** 65536 expansions. *)

  val make : ?every:int -> (event -> unit) -> sink
  (** Events serialize through the versioned wire schema —
      [Prbp_wire.Wire.encode_event] / [Prbp_wire.Wire.jsonl] — which
      lives above this library in the dependency order. *)

  (** Mutable aggregate over the events of one or more solves, for
      harnesses that report telemetry without storing it. *)
  type summary = {
    mutable events : int;
    mutable progress_events : int;
    mutable prune_events : int;
    mutable solves : int;  (** [Start] events seen *)
    mutable last : progress option;
    mutable peak_explored : int;
  }

  val summarize : ?every:int -> unit -> summary * sink
end

type 'move optimal = {
  cost : int;  (** the proven optimal I/O cost *)
  strategy : 'move list option;
      (** one optimal move sequence, when requested *)
  stats : stats;
}

type 'move bounded = {
  lower : int;
      (** certified lower bound on OPT: the minimum of (distance +
          admissible residual) over every exit from the settled region
          — the surviving 0-1 BFS frontier, plus any state the budget
          hid from it (successors dropped at the state cap, a state
          settled but not expanded when the stop landed).  Sound
          because any optimal path must leave the settled region
          through one of these states, and branch-and-bound only
          discards states that no optimal path visits *)
  upper : int option;
      (** the branch-and-bound incumbent (a valid strategy's cost);
          [None] when no heuristic strategy exists for the variant *)
  incumbent_strategy : 'move list option;
      (** the strategy achieving [upper], when requested and known *)
  stats : stats;
  stopped : reason;
}

type 'move outcome =
  | Optimal of 'move optimal  (** the search settled a goal state *)
  | Bounded of 'move bounded
      (** the budget stopped the search first; [lower ≤ OPT ≤ upper]
          is still certified *)
  | Unsolvable of stats
      (** the search exhausted the reachable space: no complete
          pebbling exists (e.g. [r] below the feasibility
          threshold) *)

val outcome_label : _ outcome -> string
(** ["optimal"] | ["bounded"] | ["unsolvable"]. *)

val stats_of : _ outcome -> stats

val optimal_cost : _ outcome -> int option
(** [Some cost] only for {!Optimal}. *)

val interval : _ outcome -> int * int option
(** The certified interval on OPT: [(c, Some c)] for {!Optimal},
    [(lower, upper)] for {!Bounded}, [(max_int, None)] for
    {!Unsolvable} (no optimum exists). *)

val pp : Format.formatter -> _ outcome -> unit
(** One-line human summary. *)

(** Convergence curves: the trajectory by which an anytime solve (or a
    bracket, or a frontier probe) tightened its certified interval.

    A {!Convergence.recorder} folds the [(lower, upper)] pair of every
    {!Telemetry} [Progress]/[Stop] event into a monotone time series —
    lower bounds never decrease, upper bounds never increase, and
    sightings that tighten nothing are dropped — so the curve answers
    "what was certified at time [t]?" directly: at any [t] between two
    points, the earlier point's interval was the certified state of
    knowledge. *)
module Convergence : sig
  type point = {
    t_s : float;  (** seconds since the solve started *)
    lower : int;  (** best certified lower bound by [t_s] *)
    upper : int option;  (** best verified upper bound by [t_s] *)
  }

  type curve = point list
  (** Chronological; non-empty for any solve that emitted a terminal
      event through a recorder-backed sink. *)

  type recorder

  val recorder : ?telemetry:Telemetry.sink -> unit -> recorder * Telemetry.sink
  (** A fresh recorder and the sink that feeds it.  Pass the sink to
      [solve]/[Bracket.run]; events also forward to [telemetry] when
      given (whose [every] cadence is preserved).  Thread-safe. *)

  val observe : recorder -> t_s:float -> lower:int -> upper:int option -> unit
  (** Fold one certified sighting directly (for layers that know their
      bounds without a telemetry event, e.g. bracket stages).
      Sightings with [lower = max_int] are ignored. *)

  val curve : recorder -> curve

  val width : point -> int option
  (** [upper - lower], when an upper bound exists. *)

  val final : curve -> point option

  val time_to_width : curve -> int -> float option
  (** Earliest recorded time at which the certified width was ≤ the
      target; [None] if the curve never got there. *)

  val monotone : curve -> bool
  (** Lower bounds non-decreasing, upper bounds non-increasing (and
      never vanishing), times non-decreasing — true for every curve a
      recorder produces; exposed for the regression gate. *)
end
