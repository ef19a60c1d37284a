(** Independent re-implementation of the game rules: the certificate
    checker of every upper bound and of every multiprocessor strategy,
    and the reference the engines are tested against.

    {!Rbp} and {!Prbp} are optimized mutable engines (bitsets, counter
    caches), and so are the exact solvers ([Exact_rbp], [Exact_prbp],
    [Exact_multi]).  This module re-implements the Section-1 and
    Section-3 transition rules a second time in the most literal way
    possible — a state is a handful of persistent integer sets (RBP:
    the red, blue and computed nodes; PRBP: the blue, light-red and
    dark-red nodes and the marked edge ids), with no counters or other
    caches, and every precondition spelled out next to the sentence of
    the paper it comes from.  The rules share no code with the engines.
    A move costs O(deg · log n) set operations, plus an O(r) count of
    the red pebbles when it places a new one, so a strategy checks in
    time near-linear in its length at any DAG size.  {!R.step} and
    {!P.step} are pure: the state passed in stays valid, so a caller
    can probe every candidate move from one state.

    {b Processors.}  The rules are written once for [p] processors
    (the RBP-MC and PRBP-MC games of {!Multi}): [step ~p ~q] plays a
    move in processor [q]'s fast memory, of capacity [r], and slow
    memory (the blue pebbles), the computed nodes and the marked edges
    are shared.  Processor [q]'s red pebble on node [v] is the key
    [q·n + v] of the red sets, so the red sets of a one-processor
    state ([p = 1], [q = 0], the defaults) hold the nodes themselves,
    and processor 0 of a one-processor state is exactly the
    single-processor game.  A processor outside [[0, p)] is an illegal
    move.

    The test-suite drives both implementations with the same (legal
    and illegal) move sequences and requires identical verdicts,
    states and costs, so a bug would have to be introduced twice, in
    two different shapes, to go unnoticed. *)

(** Literal RBP checker. *)
module R : sig
  type state = {
    red : Set.Make(Int).t;  (** [q·n + v] for processor [q]'s red pebble on [v] *)
    blue : Set.Make(Int).t;
    computed : Set.Make(Int).t;  (** nodes computed once already *)
    io : int;  (** loads and saves so far, on every processor *)
  }

  val initial : Prbp_dag.Dag.t -> state

  val step :
    r:int ->
    ?p:int ->
    ?q:int ->
    Prbp_dag.Dag.t ->
    state ->
    Move.R.t ->
    (state, string) result
  (** One-shot, no sliding, deletion allowed — the paper's base game,
      played by processor [q] (default 0) of [p] (default 1).  A
      compute needs every input red on [q]; each node is computed once
      over all processors. *)

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
    light : Set.Make(Int).t;
        (** [q·n + v] for processor [q]'s light red pebble on [v] (all
            blue) *)
    dark : Set.Make(Int).t;
        (** [q·n + v] for processor [q]'s dark red pebble on [v] (none
            blue, at most one processor per node) *)
    marked : Set.Make(Int).t;  (** marked edge ids *)
    io : int;
  }

  val initial : Prbp_dag.Dag.t -> state

  val step :
    r:int ->
    ?p:int ->
    ?q:int ->
    Prbp_dag.Dag.t ->
    state ->
    Move.P.t ->
    (state, string) result
  (** Like {!R.step}.  A partial value lives on one processor: a
      compute into [v] on [q] is refused while another processor holds
      [v]'s dark pebble, or while [v] is blue with no light copy on
      [q]; it turns [v] dark on [q] and makes every other processor's
      light copy of [v] stale (removed). *)

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
