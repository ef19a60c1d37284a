(** Independent re-implementation of the game rules: the certificate
    checker of every upper bound, and the reference the engines are
    tested against.

    {!Rbp} and {!Prbp} are optimized mutable engines (bitsets, counter
    caches).  This module re-implements the Section-1 and Section-3
    transition rules a second time in the most literal way possible —
    a state is a handful of persistent integer sets (RBP: the red,
    blue and computed nodes; PRBP: the blue, light-red and dark-red
    nodes and the marked edge ids), with no counters or other caches,
    and every precondition spelled out next to the sentence of the
    paper it comes from.  It shares no code with {!Rbp}, {!Prbp} or
    {!Multi}.  A move costs O(deg · log n) set operations, plus an
    O(r) count of the red pebbles when it places a new one, so a
    strategy checks in time near-linear in its length at any DAG size.
    {!R.step} and {!P.step} are pure: the state passed in stays valid,
    so a caller can probe every candidate move from one state.

    The test-suite drives both implementations with the same (legal
    and illegal) move sequences and requires identical verdicts,
    states and costs, so a bug would have to be introduced twice, in
    two different shapes, to go unnoticed. *)

(** Literal RBP checker. *)
module R : sig
  type state = {
    red : Set.Make(Int).t;
    blue : Set.Make(Int).t;
    computed : Set.Make(Int).t;  (** nodes computed once already *)
    io : int;  (** loads and saves so far *)
  }

  val initial : Prbp_dag.Dag.t -> state

  val step :
    r:int -> Prbp_dag.Dag.t -> state -> Move.R.t -> (state, string) result
  (** One-shot, no sliding, deletion allowed — the paper's base game. *)

  val is_terminal : Prbp_dag.Dag.t -> state -> bool

  val run :
    r:int -> Prbp_dag.Dag.t -> Move.R.t list -> (state, string) result

  val check : r:int -> Prbp_dag.Dag.t -> Move.R.t list -> (int, string) result
  (** Replay through the literal rules and additionally require the
      final state to be {!is_terminal}; [Ok cost] is the certified I/O
      cost of a {e complete} pebbling.  This is the independent
      certificate checker used by the bounds subsystem: a strategy cost
      is believed only after this accepts the full move list. *)
end

(** Literal PRBP checker. *)
module P : sig
  type state = {
    blue : Set.Make(Int).t;  (** nodes with a blue pebble *)
    light : Set.Make(Int).t;  (** nodes with a light red pebble (all blue) *)
    dark : Set.Make(Int).t;  (** nodes with a dark red pebble (none blue) *)
    marked : Set.Make(Int).t;  (** marked edge ids *)
    io : int;
  }

  val initial : Prbp_dag.Dag.t -> state

  val step :
    r:int -> Prbp_dag.Dag.t -> state -> Move.P.t -> (state, string) result

  val is_terminal : Prbp_dag.Dag.t -> state -> bool

  val run :
    r:int -> Prbp_dag.Dag.t -> Move.P.t list -> (state, string) result

  val check : r:int -> Prbp_dag.Dag.t -> Move.P.t list -> (int, string) result
  (** Like {!R.check}: replay plus terminality (every edge marked,
      every sink blue), returning the certified I/O cost. *)
end

val agree_rbp :
  r:int -> Prbp_dag.Dag.t -> Move.R.t list -> (unit, string) result
(** Replays the moves through both the engine and this verifier; [Ok]
    iff both accept with equal costs and equal final red/blue/computed
    sets, or both reject at the same move index. *)

val agree_prbp :
  r:int -> Prbp_dag.Dag.t -> Move.P.t list -> (unit, string) result
