(** [prbpd]: the anytime pebbling service.

    One process serves exact solves, certified brackets and
    multiprocessor frontiers over a versioned JSON wire
    ({!Prbp_wire.Wire}), with four load-bearing properties:

    - {e Admission control.}  Requests run on a fixed {!Pool} of
      worker domains behind a bounded queue; past capacity the accept
      loop answers [503] immediately, without reading the request —
      overload degrades into fast refusals, not latency.
    - {e Anytime by construction.}  A request's budget (and the
      server-wide deadline cap) maps onto
      {!Prbp_solver.Solver.Budget}, so an over-budget solve returns a
      certified [Bounded] interval over the wire instead of timing
      out.
    - {e Content-addressed certificate cache.}  Results are cached in
      {e canonical label space} under
      [(kind, Dag.hash, game, r, variants, budget-class)], where the
      kind of a frontier names its capacities and that of a bracket or
      frontier restricted to some lower rules names the rule set —
      isomorphic relabelings of a DAG share entries.  A cached entry is relabeled
      back to the request's labels as a whole (one permutation, also
      for every point of a frontier), and each witness it carries is
      {b re-verified} through the games' own checkers at the cost it
      claims before being served; if any fails, the entry is dropped
      and the request recomputed.  Proven-optimal solves, tight
      brackets and settled frontiers are cached budget-independently
      (a certificate of OPT is valid under any budget); truncated
      results are keyed by budget class.  The [x-prbpd-cache: hit|miss]
      response header reports what happened (the body stays
      byte-identical either way).
    - {e One certificate path.}  Solves, brackets and frontiers share
      one lookup, re-verification, compute, cache and write path.
      Misuse (a game the route does not serve, out-of-reach [p] or
      size, variant flags on a multiprocessor game, an unregistered
      lower-rule name) is refused with a [400] wire error before the
      cache is touched or a byte is written, streamed or not.

    Routes: [POST /v1/solve], [POST /v1/bracket] (request body:
    {!Prbp_wire.Wire.request}; responses: wire outcome / bracket
    objects, or [{"v":1,"error":…}]), [POST /v1/frontier],
    [GET /metrics] (Prometheus text), [GET /healthz] (a
    {!Prbp_wire.Wire.healthz} JSON body: wire version, BENCH schema
    tag, uptime) and [GET /v1/status] (a
    {!Prbp_wire.Wire.status_report} live snapshot: in-flight and
    queued counts, cache hit/miss totals, per-route latency
    histograms, and the flight recorder's recent/slowest request
    summaries).  A request with [stream:true] receives a chunked
    response of telemetry JSON-lines followed by the result line.  A
    failure after the chunked head (the solver refusing the DAG, a
    bracket error) keeps the framing: a [200] chunked head, the
    telemetry so far, then one wire error line and the final chunk;
    unstreamed, the same failure is a plain [400].

    {e Request-scoped tracing.}  Every request runs under a fresh
    {!Prbp_obs.Span} context, so concurrent requests record disjoint,
    well-parented traces; the {!Prbp_obs.Flight} recorder keeps a
    bounded ring of request summaries plus the full span trees of the
    slowest few, and served solve outcomes carry their
    {!Prbp_solver.Solver.Convergence} curve.

    Metrics: [prbpd_requests_total], [prbpd_cache_hits_total],
    [prbpd_cache_misses_total], the [prbpd_request_seconds] histogram
    and the per-route [prbpd_route_request_seconds] family (label
    [route], fixed route set), exported alongside every other
    registered {!Prbp_obs.Metrics} instrument.
    [prbpd_gc_minor_collections_total] and
    [prbpd_gc_major_collections_total] are read from [Gc.quick_stat]
    at each scrape of [GET /metrics] and once more at shutdown; in
    OCaml 5 both count the collections of the whole process, all
    domains together. *)

type addr =
  | Tcp of string * int  (** interface, port *)
  | Unix_path of string  (** unix-domain socket path *)

type config = {
  addr : addr;
  workers : int;  (** solver domains (≥ 1) *)
  queue : int;  (** admission queue depth beyond the workers (≥ 0) *)
  cache_capacity : int;  (** LRU entries (≥ 1) *)
  max_deadline_ms : int;
      (** server-wide cap on a request's wall-clock budget; requests
          asking for more (or nothing) get this *)
  max_states : int;  (** state cap per solve *)
  max_body : int;
      (** request body cap, bytes.  The whole request must arrive
          within {!Http.request_deadline_s}, so a body at the
          default 64 MiB cap needs 2.2 MB/s or more. *)
}

val default_config : config
(** Loopback TCP on port 8367, [workers = 2], [queue = 16],
    [cache_capacity = 256], [max_deadline_ms = 30_000],
    [max_states = 5_000_000], [max_body = 64 MiB]. *)

val run : ?stop:bool Atomic.t -> config -> unit
(** Bind, serve, block.  Returns once [stop] is set (polled at 4 Hz
    between accepts) and in-flight requests have drained; the listen
    socket (and a unix-domain socket file) is cleaned up.  Enables
    {!Prbp_obs.Metrics} recording for the process. *)
