(** The versioned wire schema ([{"v":1}]) shared by every JSON emitter
    and consumer in the system: [pebble_cli --json]/[--trace], the
    [prbpd] daemon, the benchmark's serve workloads, and the bracket and
    frontier rows of [BENCH_solver.json] (read back by
    {!Prbp_harness.Regression}) all speak exactly these records.

    Four record families, each with an encoder and a decoder that
    round-trip ([decode (encode x) = Ok x]):

    - {e requests} — a DAG plus game, capacity, variant flags, budget
      and delivery options ({!request});
    - {e outcomes} — the anytime solve verdict with its certified
      interval, stats and optional strategy certificate ({!outcome});
    - {e certificates} — the bracket and frontier records with their
      bounds, rule attribution and verified move lists ({!bracket},
      {!frontier});
    - {e telemetry} — the {!Prbp_solver.Solver.Telemetry} events as
      JSON lines ({!encode_event}/{!jsonl}).

    Each record is declared once, as a list of members in wire order
    from which a small bidirectional codec derives both directions, so
    the encoder and the decoder of a record cannot disagree.  All four
    move vocabularies share one flat move shape,
    [{"op", "q"?, "u"?, "v"}].

    Encoders are deterministic: equal values encode to equal bytes
    (what makes "a cache hit returns the byte-identical certificate"
    testable), and the v1 bytes are pinned by a golden file.  Decoders
    are total and hardened — any malformed input is an [Error], never
    an exception — because the daemon feeds them straight from the
    network.  Unknown members are ignored. *)

val version : int
(** [1].  Every encoded record carries ["v":1]; decoders reject other
    versions with a distinct error message. *)

val bench_schema : string
(** ["prbp-solver-bench/v11"] — the [BENCH_solver.json] schema tag this
    wire release pairs with.  Since v11 the file holds exactly
    ["schema"], ["brackets"] and ["frontiers"]: the rows the width gate
    ([bench/main.exe --check-widths]) reads.  Single-sourced here so
    the bench writer and the daemon's [/healthz] body can never
    disagree. *)

(** {1 Vocabulary} *)

type game =
  | Rbp
  | Prbp
  | Black  (** black pebbling feasibility at capacity [r] *)
  | Multi_rbp of int  (** RBP-MC with [p] processors *)
  | Multi_prbp of int

val game_label : game -> string
(** ["rbp"] | ["prbp"] | ["black"] | ["multi-rbp:P"] | ["multi-prbp:P"]. *)

val game_of_label : string -> (game, string) result

type variants = { sliding : bool; recompute : bool; no_delete : bool }

val no_variants : variants

type budget = {
  max_states : int option;
  max_millis : int option;
  max_words : int option;
}
(** The wire projection of {!Prbp_solver.Solver.Budget.t}: the three
    externally meaningful caps.  [None] everywhere means the server's
    defaults. *)

val no_budget : budget

val budget_class : budget -> string
(** The cache-key quantization of a budget: each set cap contributes
    its power-of-two bucket (so near-identical budgets share cache
    entries), unset caps contribute ["_"].  E.g. ["s22:m13:w_"]. *)

(** {1 Requests} *)

type kind = Solve | Bracket | Frontier

type request = {
  v : int;
  kind : kind;
  game : game;
  r : int;
  variants : variants;
  budget : budget;
  want_strategy : bool;  (** include the move-list certificate *)
  stream : bool;  (** stream telemetry as JSON-lines before the result *)
  rules : string list option;  (** bracket only: restrict {!Prbp_bounds.Lower} *)
  rs : int list option;
      (** frontier only: the capacities to sweep; [None] means just
          [r] *)
  dag : Prbp_dag.Dag.t;
}

val request :
  ?variants:variants ->
  ?budget:budget ->
  ?want_strategy:bool ->
  ?stream:bool ->
  ?rules:string list ->
  ?rs:int list ->
  kind:kind ->
  game:game ->
  r:int ->
  Prbp_dag.Dag.t ->
  request
(** Smart constructor: [v = version], flags default to false. *)

val encode_request : request -> string

val decode_request : string -> (request, string) result
(** Rejects [v <> 1], unknown games/kinds, negative [r], and any DAG
    payload {!Prbp_dag.Dag.make} refuses (cycles, duplicate edges,
    out-of-range endpoints). *)

(** {1 Strategies} *)

type strategy =
  | Rbp_strategy of Prbp_pebble.Move.R.t list
  | Prbp_strategy of Prbp_pebble.Move.P.t list
  | Multi_rbp_strategy of int * Prbp_pebble.Multi.Move.rbp list
      (** processor count, then moves; each move's JSON carries the
          acting processor as ["q"] *)
  | Multi_prbp_strategy of int * Prbp_pebble.Multi.Move.prbp list
      (** the move-list certificate, tagged by move vocabulary (black
          strategies have no wire form and are omitted) *)

(** {1 Outcomes} *)

type outcome = {
  v : int;
  game : game;
  r : int;
  variants : variants;
  dag_hash : string;  (** {!Prbp_dag.Dag.hash} of the solved DAG *)
  n : int;
  m : int;
  status : [ `Optimal | `Bounded | `Unsolvable ];
  lower : int;  (** [= upper = OPT] when optimal *)
  upper : int option;
  stopped : string option;  (** {!Prbp_solver.Solver.reason_label} *)
  strategy : strategy option;
  stats : Prbp_solver.Solver.stats;
  curve : Prbp_solver.Solver.Convergence.curve;
      (** how the certified interval tightened over the solve; [[]]
          when the producer did not record one.  Encoded as compact
          [[t_s, lower, upper]] triples ([null] upper before an
          incumbent exists); absent on the wire when empty, so
          pre-curve records still round-trip. *)
}

val outcome_of :
  game:game ->
  r:int ->
  ?variants:variants ->
  ?strategy:strategy ->
  ?curve:Prbp_solver.Solver.Convergence.curve ->
  ?dag_hash:string ->
  dag:Prbp_dag.Dag.t ->
  _ Prbp_solver.Solver.outcome ->
  outcome
(** Project a solver outcome onto the wire (the caller extracts the
    typed strategy, if any, since move types are per game; [curve]
    likewise rides in from a {!Prbp_solver.Solver.Convergence}
    recorder the caller owns, default [[]]).  [dag_hash] is
    [Dag.hash dag], for a caller that already holds it: the canonical
    search is the costly part of a small outcome. *)

val encode_outcome : outcome -> string

val decode_outcome : string -> (outcome, string) result

(** {1 Bracket certificates} *)

type bracket = {
  v : int;
  family : string option;
  game : game;  (** {!Rbp} or {!Prbp} only *)
  r : int;
  n : int;
  m : int;
  lower : int;
  lower_rule : string;
  upper : int;
  upper_rule : string;
  verifier : string;
      (** the checker that certified [upper]; {!bracket_of} writes
          ["literal"] ({!Prbp_pebble.Verifier}) *)
  tight : bool;
  width : int;
  rules : (string * int) list;  (** per-rule attribution, (label, bound) *)
  profile_classes : int option;
  strategy : strategy option;  (** the verified moves achieving [upper] *)
  curve : Prbp_solver.Solver.Convergence.curve;
      (** the bracket's convergence curve
          ({!Prbp_bounds.Bracket.t.curve}), one point per verified
          improvement; its final point carries [(lower, Some upper)] *)
  elapsed_s : float;
}

val bracket_of :
  ?family:string -> ?with_moves:bool -> Prbp_bounds.Bracket.t -> bracket
(** [with_moves] (default false) embeds the verified strategy — the
    re-checkable certificate the daemon caches and serves. *)

val encode_bracket : bracket -> string
(** One object (no trailing newline) carrying ["kind":"bracket"] plus
    the historical row fields ([family], [game], [r], [lower], [rule],
    [lower_rule], [upper], [method], [upper_rule], [verifier],
    [tight], [interval_width], [rules], [profile_classes],
    [elapsed_s]) — the row format of [BENCH_solver.json] and
    [pebble_cli bracket --json].  [rule] and [method] repeat
    [lower_rule] and [upper_rule]; they are written, never read. *)

val decode_bracket : string -> (bracket, string) result

(** {1 Frontier certificates} *)

type frontier_point = {
  p : int;
  r : int;
  comm_lower : int;
  comm_upper : int option;
  time_lower : int;
  time_upper : int option;
  status : [ `Exact | `Bracketed ];
  source : string;
  verified : bool;
  settled : bool;
  dominated : bool;
  strategy : strategy option;
      (** the witness ({!Multi_rbp_strategy} / {!Multi_prbp_strategy})
          jointly achieving [comm_upper] and [time_upper] *)
  curve : Prbp_solver.Solver.Convergence.curve;
      (** the probe's communication-interval convergence curve,
          probe-relative seconds *)
}
(** One swept capacity of a {!Prbp_frontier.Frontier.t}. *)

type frontier = {
  v : int;
  family : string option;
  game : game;  (** {!Multi_rbp} or {!Multi_prbp} *)
  dag_hash : string;
  n : int;
  m : int;
  model : string;  (** the {!Prbp_frontier.Cost_model} name *)
  points : frontier_point list;
  infeasible_rs : int list;
  exhausted : bool;
  elapsed_s : float;
}

val frontier_of :
  ?family:string ->
  ?with_moves:bool ->
  ?dag_hash:string ->
  dag:Prbp_dag.Dag.t ->
  Prbp_frontier.Frontier.t ->
  frontier
(** [with_moves] (default false) embeds each point's witness strategy
    — the re-checkable certificates the daemon caches and serves.
    [dag_hash] is [Dag.hash dag], as in {!outcome_of}. *)

val frontier_points_n : frontier -> int
(** Swept capacities with a feasible point ([points_n] on the wire). *)

val frontier_front_n : frontier -> int
(** Points not dominated by another ([front_n]). *)

val frontier_open_n : frontier -> int
(** Points whose communication interval is still open ([open_n]). *)

val frontier_width : frontier -> int
(** Summed communication interval widths ([front_width]). *)

val encode_frontier : frontier -> string
(** One object carrying ["kind":"frontier"] plus the derived row
    metrics above (written, never read) that the
    {!Prbp_harness.Regression} gate compares, with [elapsed_s] as the
    final field so golden-file comparisons can normalize it. *)

val decode_frontier : string -> (frontier, string) result

(** {1 Telemetry} *)

val encode_event : Prbp_solver.Solver.Telemetry.event -> string
(** One JSON object, no trailing newline, ["v":1] first.  Progress
    payloads carry the certified [lower] bound and (when an incumbent
    exists) the [upper] bound alongside the search counters. *)

val decode_event :
  string -> (Prbp_solver.Solver.Telemetry.event, string) result
(** Tolerant of pre-curve traces: a progress payload without [lower]
    decodes as [lower = 0] (the weakest certified statement) and a
    missing [upper] as [None]. *)

val jsonl :
  ?every:int -> out_channel -> Prbp_solver.Solver.Telemetry.sink
(** JSON-lines emitter: one {!encode_event} line per event, flushed
    as it is written — the sink behind [pebble_cli --trace]. *)

(** {1 Daemon status} *)

type req = {
  trace_id : int;  (** the request's {!Prbp_obs.Span} trace id *)
  route : string;
  status : int;  (** HTTP status served *)
  cache : string;  (** ["hit"] | ["miss"] | ["-"] *)
  dur_s : float;
  outcome : string;  (** solve status, or ["-"] for non-solve routes *)
}
(** One finished request, as the flight recorder remembers it. *)

type route_stat = {
  route : string;
  count : int;
  sum_s : float;
  buckets : (float * int) list;
      (** latency histogram: [(le, cumulative count)] in ascending
          [le] order, the +Inf bucket implied by [count] *)
}

type status_report = {
  v : int;
  uptime_s : float;
  workers : int;
  in_flight : int;  (** requests being served right now *)
  queued : int;  (** accepted connections waiting for a worker *)
  requests_total : int;
  cache_hits : int;
  cache_misses : int;
  flight_seen : int;  (** requests the flight recorder has recorded *)
  flight_capacity : int;
  routes : route_stat list;  (** per-route latency, registration order *)
  recent : req list;  (** newest first *)
  slowest : req list;  (** slowest first; spans retained server-side *)
}
(** The body of [GET /v1/status] — a live snapshot of the daemon. *)

val status_report :
  uptime_s:float ->
  workers:int ->
  in_flight:int ->
  queued:int ->
  requests_total:int ->
  cache_hits:int ->
  cache_misses:int ->
  flight_seen:int ->
  flight_capacity:int ->
  routes:route_stat list ->
  recent:req list ->
  slowest:req list ->
  unit ->
  status_report
(** Smart constructor, [v = version]. *)

val encode_status : status_report -> string
(** One object carrying ["kind":"status"]. *)

val decode_status : string -> (status_report, string) result

(** {1 Health} *)

type healthz = {
  v : int;
  wire : int;  (** = {!version} *)
  bench : string;  (** = {!bench_schema} *)
  uptime_s : float;
}
(** The body of [GET /healthz]: enough for a probe to check liveness
    {e and} that it is talking to a compatible schema generation. *)

val healthz : uptime_s:float -> healthz

val encode_healthz : healthz -> string
(** One object carrying ["kind":"healthz"]. *)

val decode_healthz : string -> (healthz, string) result

(** {1 Errors} *)

val encode_error : ?code:string -> string -> string
(** [{"v":1,"error":"...","code":"..."}] — the daemon's error body.
    [code] (omitted when absent, keeping historical bodies
    byte-identical) is a stable machine-readable discriminator, e.g.
    ["invalid-argument"] for requests the solvers structurally
    reject. *)

val decode_error : string -> string option
(** The ["error"] field of an error body, if that is what this is. *)

val decode_error_code : string -> string option
(** The ["code"] field of an error body, when present. *)
