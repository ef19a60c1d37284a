(** Rule-checking engine for the classic red-blue pebble game (RBP).

    Implements the Hong–Kung game exactly as recalled in Section 1 of
    the paper, in its one-shot form by default, plus the Appendix-B
    variants (re-computation, sliding pebbles, no-deletion, compute
    costs) behind configuration flags.

    The engine is mutable: {!start} produces the initial state (blue
    pebbles on the sources), {!apply} validates and performs one move.
    Illegal moves are reported, never silently ignored, so replaying a
    strategy through the engine certifies both its validity and its
    cost. *)

type config = {
  r : int;  (** fast-memory capacity: max simultaneous red pebbles *)
  one_shot : bool;
      (** each node computed at most once (default; Section 3 fixes
          this variant for the whole paper) *)
  sliding : bool;  (** allow [Move.R.Slide] (Appendix B.2) *)
  no_delete : bool;
      (** Appendix B.4: [Delete] is illegal and [Save] replaces the red
          pebble by the blue one *)
  compute_cost : float;
      (** ε ≥ 0 charged per compute/slide step (Appendix B.3) *)
}

val config : ?one_shot:bool -> ?sliding:bool -> ?no_delete:bool ->
  ?compute_cost:float -> r:int -> unit -> config
(** Classic one-shot RBP with capacity [r] unless flags say otherwise. *)

type t

val start : config -> Prbp_dag.Dag.t -> t

val dag : t -> Prbp_dag.Dag.t

val capacity : t -> int

(** {1 State observation} *)

val has_red : t -> Move.node -> bool

val has_blue : t -> Move.node -> bool

val is_computed : t -> Move.node -> bool

val red_count : t -> int

val red_set : t -> Prbp_dag.Bitset.t
(** A copy of the current red-pebble set. *)

val blue_set : t -> Prbp_dag.Bitset.t

val computed_set : t -> Prbp_dag.Bitset.t

(** {1 Cost accounting} *)

val io_cost : t -> int
(** Loads + saves so far — the paper's pebbling cost. *)

val loads : t -> int

val saves : t -> int

val computes : t -> int

val total_cost : t -> float
(** [io_cost + ε·computes] (Appendix B.3); equals [io_cost] when
    [compute_cost = 0]. *)

val max_red_seen : t -> int
(** High-water mark of simultaneous red pebbles. *)

val is_terminal : t -> bool
(** Every sink carries a blue pebble. *)

(** {1 Execution} *)

val apply : t -> Move.R.t -> (unit, string) result
(** Validate and perform one move; [Error] carries a human-readable
    reason and leaves the state unchanged. *)

val run : config -> Prbp_dag.Dag.t -> Move.R.t list -> (t, string) result
(** Replay a whole strategy from the initial state.  [Error] pinpoints
    the first illegal move.  The returned state need not be terminal;
    combine with {!is_terminal}. *)

val run_exn : config -> Prbp_dag.Dag.t -> Move.R.t list -> t
(** @raise Failure on an illegal move. *)

val check : config -> Prbp_dag.Dag.t -> Move.R.t list -> (int, string) result
(** Replay and additionally require terminality; returns the I/O cost
    of the complete pebbling. *)

val normalize : config -> Prbp_dag.Dag.t -> Move.R.t list -> Move.R.t list
(** Drop {e redundant} I/O moves — loads of nodes already red and saves
    of nodes already blue — which are legal in RBP but never helpful.
    The result is a valid strategy of cost ≤ the original, and is free
    of the wasteful moves that have no PRBP counterpart, as required by
    {!Move.rbp_to_prbp} (Proposition 4.1).
    @raise Failure on an illegal strategy, an out-of-range node id
    included. *)

val pp_state : Format.formatter -> t -> unit
(** One-line snapshot: red / blue / computed sets and cost so far,
    using node names.  For debugging and interactive exploration. *)
