(** Public facade of the PRBP library.

    [open Prbp] (or use qualified [Prbp.Game.…]) to reach the whole
    system through one module:

    {ul
    {- {!Dag}, {!Bitset}, {!Topo}, {!Reach}, {!Dominator}, {!Flow},
       {!Dot} — the DAG substrate;}
    {- {!Graphs} — every DAG family and proof construction of the
       paper;}
    {- {!Move}, {!Rbp}, {!Prbp_game} — the two pebble games and their
       Appendix-B variants;}
    {- {!Game}, {!Solver}, {!Engine} — the generic exact-solver core
       with its budget / telemetry / outcome vocabulary;
       {!Exact_rbp}, {!Exact_prbp}, {!Black}, {!Exact_multi},
       {!Heuristic}, {!Strategies} — its game instances, heuristic
       pebblers, and the paper's constructive strategies;}
    {- {!Spart}, {!Extract} — the S-partition lower-bound machinery;}
    {- {!Bounds} — certified brackets at scale: constructive
       partitioners ({!Bounds.Segment}), the lower- and upper-bound
       portfolios ({!Bounds.Lower}, {!Bounds.Upper}) and their
       orchestrator ({!Bounds.Bracket});}
    {- {!Obs} — spans, metrics and their exporters (Chrome trace,
       Prometheus text, JSON), plus the monotonic clock;}
    {- {!Wire} — the versioned JSON wire schema every emitter and the
       [prbpd] daemon speak;}
    {- {!Serve} — the [prbpd] daemon: HTTP service, worker pool with
       admission control, content-addressed certificate cache;}
    {- {!Table}, {!Experiment} — the experiment harness.}} *)

module Dag = Prbp_dag.Dag
module Bitset = Prbp_dag.Bitset
module Topo = Prbp_dag.Topo
module Reach = Prbp_dag.Reach
module Dominator = Prbp_dag.Dominator
module Flow = Prbp_dag.Flow
module Dot = Prbp_dag.Dot
module Serialize = Prbp_dag.Serialize

module Graphs = struct
  module Basic = Prbp_graphs.Basic
  module Tree = Prbp_graphs.Tree
  module Zipper = Prbp_graphs.Zipper
  module Collect = Prbp_graphs.Collect
  module Fig1 = Prbp_graphs.Fig1
  module Matvec = Prbp_graphs.Matvec
  module Matmul = Prbp_graphs.Matmul
  module Fft = Prbp_graphs.Fft
  module Attention = Prbp_graphs.Attention
  module Lemma54 = Prbp_graphs.Lemma54
  module Ugraph = Prbp_graphs.Ugraph
  module Hardness48 = Prbp_graphs.Hardness48
  module Levels71 = Prbp_graphs.Levels71
  module Random_dag = Prbp_graphs.Random_dag
  module Spmv = Prbp_graphs.Spmv
  module Closed_form = Prbp_graphs.Closed_form
end

(** Observability: the monotonic {!Obs.Clock} every deadline reads,
    hierarchical {!Obs.Span} tracing with Chrome-trace/text exporters,
    and the {!Obs.Metrics} registry with Prometheus/JSON exporters.
    Both recorders are off by default and cost the hot paths one
    branch. *)
module Obs = struct
  module Clock = Prbp_obs.Clock
  module Span = Prbp_obs.Span
  module Metrics = Prbp_obs.Metrics
  module Json = Prbp_obs.Json
  module Flight = Prbp_obs.Flight
end

module Move = Prbp_pebble.Move
module Rbp = Prbp_pebble.Rbp
module Trace = Prbp_pebble.Trace
module Verifier = Prbp_pebble.Verifier
module Multi = Prbp_pebble.Multi

module Prbp_game = Prbp_pebble.Prbp
(** Named [Prbp_game] to avoid clashing with this facade module. *)

module Game = Prbp_solver.Game
module Solver = Prbp_solver.Solver
module Engine = Prbp_solver.Engine
module Exact_rbp = Prbp_solver.Exact_rbp
module Exact_prbp = Prbp_solver.Exact_prbp
module Exact_multi = Prbp_solver.Exact_multi
module Black = Prbp_solver.Black
module Heuristic = Prbp_solver.Heuristic
module Thresholds = Prbp_solver.Thresholds
module Optimize = Prbp_solver.Optimize
module Strategies = Prbp_solver.Strategies
module Spart = Prbp_partition.Spart
module Extract = Prbp_partition.Extract
module Minpart = Prbp_partition.Minpart

(** The certified-bracket subsystem: constructive partitioners, the
    lower-bound rule portfolio, the verified-strategy upper-bound
    portfolio, and the bracket orchestrator. *)
module Bounds = struct
  module Segment = Prbp_bounds.Segment
  module Lower = Prbp_bounds.Lower
  module Upper = Prbp_bounds.Upper
  module Bracket = Prbp_bounds.Bracket
  module Multi_bounds = Prbp_bounds.Multi_bounds
end

(** Certified multiprocessor trade-off frontiers: the unit
    {!Frontier.Cost_model} (compute time and communication per
    processor) and the anytime ε-constraint Pareto enumerator
    {!Frontier.Frontier} over {!Exact_multi} and
    {!Bounds.Multi_bounds}. *)
module Frontier = struct
  module Cost_model = Prbp_frontier.Cost_model
  module Frontier = Prbp_frontier.Frontier
end

(** The versioned wire schema ([{"v":1}]): JSON request / outcome /
    bracket-certificate / telemetry records with deterministic
    encoders and hardened decoders — the one format [pebble_cli]'s
    [--json]/[--trace], the [prbpd] daemon and the bench load
    generator all speak.  {!Wire.Json} is its minimal JSON substrate,
    the same module as {!Obs.Json}. *)
module Wire = struct
  include Prbp_wire.Wire
  module Json = Prbp_obs.Json
end

(** The [prbpd] daemon: HTTP service over the wire schema with worker
    domains behind admission control ({!Serve.Pool}), a
    content-addressed LRU certificate cache ({!Serve.Cache}) keyed by
    {!Dag.hash}, and a minimal stdlib-[Unix] HTTP/1.1 layer
    ({!Serve.Http}). *)
module Serve = struct
  module Http = Prbp_serve.Http
  module Pool = Prbp_serve.Pool
  module Cache = Prbp_serve.Cache
  module Server = Prbp_serve.Server
end

module Table = Prbp_harness.Table
module Chart = Prbp_harness.Chart
module Experiment = Prbp_harness.Experiment
module Regression = Prbp_harness.Regression
