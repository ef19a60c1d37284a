module Dag = Prbp_dag.Dag
module Move = Prbp_pebble.Move
module Rbp = Prbp_pebble.Rbp
module Prbp_game = Prbp_pebble.Prbp
module Multi = Prbp_pebble.Multi
module Solver = Prbp_solver.Solver
module Exact_rbp = Prbp_solver.Exact_rbp
module Exact_prbp = Prbp_solver.Exact_prbp
module Exact_multi = Prbp_solver.Exact_multi
module Bracket = Prbp_bounds.Bracket
module Lower = Prbp_bounds.Lower
module Frontier = Prbp_frontier.Frontier
module Metrics = Prbp_obs.Metrics
module Span = Prbp_obs.Span
module Flight = Prbp_obs.Flight
module Clock = Prbp_obs.Clock
module Wire = Prbp_wire.Wire

type addr = Tcp of string * int | Unix_path of string

type config = {
  addr : addr;
  workers : int;
  queue : int;
  cache_capacity : int;
  max_deadline_ms : int;
  max_states : int;
  max_body : int;
}

let default_config =
  {
    addr = Tcp ("127.0.0.1", 8367);
    workers = 2;
    queue = 16;
    cache_capacity = 256;
    max_deadline_ms = 30_000;
    max_states = 5_000_000;
    max_body = 64 * 1024 * 1024;
  }

(* ------------------------------------------------------------------ *)
(* State *)

type entry =
  | Solve_cert of Wire.outcome
  | Bracket_cert of Wire.bracket
  | Frontier_cert of Wire.frontier
(* cached certificates, strategies in canonical label space *)

type state = {
  cfg : config;
  started : float;  (* Clock.now at boot, for uptime reporting *)
  pool : Pool.t;
  cache : entry Cache.t;
  requests_total : Metrics.Counter.t;
  rejected_total : Metrics.Counter.t;
  cache_hits : Metrics.Counter.t;
  cache_misses : Metrics.Counter.t;
  latency : Metrics.Histogram.t;
  route_latency : (string * Metrics.Histogram.t) list;
      (* per-route latency under one family name; the route set is
         fixed so the label cardinality is bounded *)
  gc_minor : Metrics.Counter.t;
  gc_major : Metrics.Counter.t;
  gc_sync : Mutex.t;
}

let routes = [ "/v1/solve"; "/v1/bracket"; "/v1/frontier"; "/v1/status";
               "/metrics"; "/healthz"; "other" ]

let route_of path = if List.mem path routes then path else "other"

(* Worker domains inherit the signal mask of the spawning thread.
   Blocking the shutdown signals across [Pool.create] forces the
   kernel to route process-directed SIGTERM/SIGINT to the accept-loop
   domain — the only thread with them unblocked — where the handler's
   stop flag is polled every select tick.  Without this, delivery to a
   worker parked in [Condition.wait] can leave the signal pending on a
   domain that never reaches a safepoint. *)
let spawn_with_shutdown_signals_blocked spawn =
  match
    Unix.sigprocmask Unix.SIG_BLOCK [ Sys.sigterm; Sys.sigint ]
  with
  | old ->
      Fun.protect
        ~finally:(fun () -> ignore (Unix.sigprocmask Unix.SIG_SETMASK old))
        spawn
  | exception Invalid_argument _ ->
      (* some platforms lack sigprocmask; delivery is then best-effort *)
      spawn ()

let make_state cfg =
  Metrics.set_enabled true;
  (* spans are cheap when nothing reads them, and the flight recorder
     needs them to retain the slowest requests' full traces *)
  Span.set_enabled true;
  {
    cfg;
    started = Clock.now ();
    pool =
      spawn_with_shutdown_signals_blocked (fun () ->
          Pool.create ~workers:cfg.workers ~queue:cfg.queue);
    cache = Cache.create ~capacity:cfg.cache_capacity;
    requests_total =
      Metrics.counter ~help:"Requests accepted by prbpd" "prbpd_requests_total";
    rejected_total =
      Metrics.counter ~help:"Requests refused with 503 at admission"
        "prbpd_rejected_total";
    cache_hits =
      Metrics.counter ~help:"Certificate cache hits (re-verified)"
        "prbpd_cache_hits_total";
    cache_misses =
      Metrics.counter ~help:"Certificate cache misses" "prbpd_cache_misses_total";
    latency =
      Metrics.histogram ~help:"Request handling latency, seconds"
        "prbpd_request_seconds";
    route_latency =
      List.map
        (fun route ->
          ( route,
            Metrics.histogram
              ~help:"Request handling latency by route, seconds"
              ~labels:[ ("route", route) ]
              "prbpd_route_request_seconds" ))
        routes;
    gc_minor =
      Metrics.counter ~help:"Minor collections of the process (all domains)"
        "prbpd_gc_minor_collections_total";
    gc_major =
      Metrics.counter
        ~help:"Major collection cycles of the process (all domains)"
        "prbpd_gc_major_collections_total";
    gc_sync = Mutex.create ();
  }

(* The GC counts come from [Gc.quick_stat] at scrape time.  In OCaml 5
   they are process-wide: every domain takes part in each collection.
   The lock keeps two concurrent scrapes from both adding the same
   increment. *)
let sync_gc_counters state =
  Mutex.protect state.gc_sync (fun () ->
      let st = Gc.quick_stat () in
      let catch_up c n = Metrics.Counter.add c (n - Metrics.Counter.value c) in
      catch_up state.gc_minor st.Gc.minor_collections;
      catch_up state.gc_major st.Gc.major_collections)

(* ------------------------------------------------------------------ *)
(* Per-request bookkeeping: the response writers note what they served
   so the flight recorder can summarize the request afterwards.  One
   request runs on one worker domain at a time, so a domain-local slot
   is race-free. *)

type req_info = {
  mutable ri_status : int;
  mutable ri_cache : string;
  mutable ri_outcome : string;
}

let fresh_info () = { ri_status = 0; ri_cache = "-"; ri_outcome = "-" }

let info_key = Domain.DLS.new_key fresh_info

let note_status st = (Domain.DLS.get info_key).ri_status <- st

let note_cache c = (Domain.DLS.get info_key).ri_cache <- c

let note_outcome o = (Domain.DLS.get info_key).ri_outcome <- o

(* ------------------------------------------------------------------ *)
(* Certificates.  Solves, brackets and frontiers share one path
   ([handle_certificate]).  Besides the request check and compute
   dispatch in [plan], these few functions over a cached entry are all
   that tells the kinds apart. *)

let map_strategies f = function
  | Solve_cert o -> Solve_cert { o with Wire.strategy = f o.Wire.strategy }
  | Bracket_cert b -> Bracket_cert { b with Wire.strategy = f b.Wire.strategy }
  | Frontier_cert fr ->
      Frontier_cert
        {
          fr with
          Wire.points =
            List.map
              (fun (pt : Wire.frontier_point) ->
                { pt with Wire.strategy = f pt.Wire.strategy })
              fr.Wire.points;
        }

(* The certificates an entry carries, as (r, strategy, claimed cost).
   A solve or bracket always lists its one strategy, so without it the
   entry certifies nothing; a frontier lists each point that carries a
   witness. *)
let witnesses = function
  | Solve_cert o ->
      let claimed =
        match o.Wire.status with
        | `Optimal -> Some o.Wire.lower
        | `Bounded -> o.Wire.upper
        | `Unsolvable -> None
      in
      [ (o.Wire.r, o.Wire.strategy, claimed) ]
  | Bracket_cert b -> [ (b.Wire.r, b.Wire.strategy, Some b.Wire.upper) ]
  | Frontier_cert f ->
      List.filter_map
        (fun (pt : Wire.frontier_point) ->
          Option.map
            (fun s -> (pt.Wire.r, Some s, pt.Wire.comm_upper))
            pt.Wire.strategy)
        f.Wire.points

(* proven results are budget-independent; truncated ones are only
   reusable under a comparable budget *)
let final = function
  | Solve_cert o -> o.Wire.status = `Optimal
  | Bracket_cert b -> b.Wire.tight
  | Frontier_cert f -> not f.Wire.exhausted

let outcome_tag = function
  | Solve_cert o -> (
      match o.Wire.status with
      | `Optimal -> "optimal"
      | `Bounded -> "bounded"
      | `Unsolvable -> "unsolvable")
  | Bracket_cert b -> if b.Wire.tight then "optimal" else "bounded"
  | Frontier_cert f -> if f.Wire.exhausted then "open" else "settled"

let encode = function
  | Solve_cert o -> Wire.encode_outcome o
  | Bracket_cert b -> Wire.encode_bracket b
  | Frontier_cert f -> Wire.encode_frontier f

(* ------------------------------------------------------------------ *)
(* Canonical label space: cache entries store strategies under the
   DAG's canonical ids so isomorphic relabelings share entries. *)

let permute_r perm : Move.R.t -> Move.R.t = function
  | Load v -> Load perm.(v)
  | Save v -> Save perm.(v)
  | Compute v -> Compute perm.(v)
  | Delete v -> Delete perm.(v)
  | Slide (u, v) -> Slide (perm.(u), perm.(v))

let permute_p perm : Move.P.t -> Move.P.t = function
  | Load v -> Load perm.(v)
  | Save v -> Save perm.(v)
  | Compute (u, v) -> Compute (perm.(u), perm.(v))
  | Delete v -> Delete perm.(v)
  | Clear v -> Clear perm.(v)

(* multiprocessor moves: permute node ids, keep the processor *)
let permute_mr perm : Multi.Move.rbp -> Multi.Move.rbp = function
  | Load (q, v) -> Load (q, perm.(v))
  | Save (q, v) -> Save (q, perm.(v))
  | Compute (q, v) -> Compute (q, perm.(v))
  | Delete (q, v) -> Delete (q, perm.(v))

let permute_mp perm : Multi.Move.prbp -> Multi.Move.prbp = function
  | Load (q, v) -> Load (q, perm.(v))
  | Save (q, v) -> Save (q, perm.(v))
  | Compute (q, (u, v)) -> Compute (q, (perm.(u), perm.(v)))
  | Delete (q, v) -> Delete (q, perm.(v))

let permute_strategy perm = function
  | Wire.Rbp_strategy ms -> Wire.Rbp_strategy (List.map (permute_r perm) ms)
  | Wire.Prbp_strategy ms -> Wire.Prbp_strategy (List.map (permute_p perm) ms)
  | Wire.Multi_rbp_strategy (p, ms) ->
      Wire.Multi_rbp_strategy (p, List.map (permute_mr perm) ms)
  | Wire.Multi_prbp_strategy (p, ms) ->
      Wire.Multi_prbp_strategy (p, List.map (permute_mp perm) ms)

let inverse perm =
  let inv = Array.make (Array.length perm) 0 in
  Array.iteri (fun v c -> inv.(c) <- v) perm;
  inv

(* every strategy of the entry through one permutation *)
let relabel perm = map_strategies (Option.map (permute_strategy perm))

(* to canonical space: request node v |-> order.(v), where [order] is
   the request DAG's [Dag.canonical_order] *)
let to_canonical order = relabel order

(* back to the labels of (a possibly different relabeling of) the DAG *)
let of_canonical order = relabel (inverse order)

(* ------------------------------------------------------------------ *)
(* Cache keys *)

let variants_tag (v : Wire.variants) =
  Printf.sprintf "%c%c%c"
    (if v.sliding then 's' else '-')
    (if v.recompute then 'c' else '-')
    (if v.no_delete then 'd' else '-')

let frontier_rs (rq : Wire.request) =
  match rq.rs with
  | Some rs when rs <> [] -> List.sort_uniq compare rs
  | _ -> [ rq.r ]

(* the swept capacities of a frontier, and the lower-rule set a
   bracket or frontier was restricted to, are part of its identity, so
   they join the kind *)
let cache_key (rq : Wire.request) ~dag_hash budget_part =
  let rules =
    match rq.rules with
    | Some names -> ":rules=" ^ String.concat "," (List.sort_uniq compare names)
    | None -> ""
  in
  let kind =
    match rq.kind with
    | Wire.Solve -> "solve"
    | Wire.Bracket -> "bracket" ^ rules
    | Wire.Frontier ->
        "frontier:"
        ^ String.concat "," (List.map string_of_int (frontier_rs rq))
        ^ rules
  in
  String.concat "|"
    [
      kind; dag_hash; Wire.game_label rq.game; string_of_int rq.r;
      variants_tag rq.variants; budget_part;
    ]

(* ------------------------------------------------------------------ *)
(* Re-verification: a cached certificate is replayed through the
   games' own checkers ([Rbp.check], [Prbp.check], and for the
   multiprocessor games [Multi.*.check], which run the literal rules of
   [Verifier]) against the request's DAG before it is served.
   [Some cost] = the strategy is valid and costs [cost]. *)

let checked_cost ~(rq : Wire.request) g strategy =
  let r = rq.r in
  let { Wire.sliding; recompute; no_delete } = rq.variants in
  match strategy with
  | Wire.Rbp_strategy moves -> (
      let cfg = Rbp.config ~one_shot:(not recompute) ~sliding ~no_delete ~r () in
      match Rbp.check cfg g moves with Ok c -> Some c | Error _ -> None)
  | Wire.Prbp_strategy moves -> (
      let cfg =
        Prbp_game.config ~one_shot:(not recompute) ~recompute ~no_delete ~r ()
      in
      match Prbp_game.check cfg g moves with Ok c -> Some c | Error _ -> None)
  | Wire.Multi_rbp_strategy (p, moves) -> (
      (* variant-free by construction: multi requests reject variants *)
      let cfg = Multi.config ~p ~r () in
      match Multi.R.check cfg g moves with Ok c -> Some c | Error _ -> None)
  | Wire.Multi_prbp_strategy (p, moves) -> (
      let cfg = Multi.config ~p ~r () in
      match Multi.P.check cfg g moves with Ok c -> Some c | Error _ -> None)

(* every witness replays at exactly its claimed cost *)
let replays ~(rq : Wire.request) g e =
  List.for_all
    (fun (r, strategy, claimed) ->
      match (strategy, claimed) with
      | Some s, Some cost -> checked_cost ~rq:{ rq with Wire.r } g s = Some cost
      | _ -> false)
    (witnesses e)

(* ------------------------------------------------------------------ *)
(* Request handling *)

let respond_json ?(headers = []) ~status fd body =
  note_status status;
  Http.write_response
    ~headers:(("content-type", "application/json") :: headers)
    ~status ~body fd

let respond_error ?code fd status msg =
  respond_json ~status fd (Wire.encode_error ?code msg)

let budget_of state (rq : Wire.request) =
  let b = rq.budget in
  let max_states =
    match b.max_states with
    | Some s when s > 0 && s <= state.cfg.max_states -> s
    | _ -> state.cfg.max_states
  in
  let max_millis =
    match b.max_millis with
    | Some ms when ms > 0 && ms <= state.cfg.max_deadline_ms -> ms
    | _ -> state.cfg.max_deadline_ms
  in
  match b.max_words with
  | Some w when w > 0 ->
      Solver.Budget.v ~max_states ~max_millis ~max_words:w ()
  | _ -> Solver.Budget.v ~max_states ~max_millis ()

let stream_head ~(rq : Wire.request) ~cache_status fd =
  if rq.stream then begin
    note_status 200;
    Http.write_chunked_head
      ~headers:
        [
          ("content-type", "application/jsonl");
          ("x-prbpd-cache", cache_status);
        ]
      ~status:200 fd
  end

(* the final line of a chunked stream, or a plain single-object
   response *)
let finish ~(rq : Wire.request) ?headers ~status fd body =
  if rq.stream then begin
    Http.write_chunk fd body;
    Http.write_chunk fd "\n";
    Http.write_chunk_end fd
  end
  else respond_json ?headers ~status fd body

let solve_telemetry ~(rq : Wire.request) fd =
  if rq.stream then
    Some
      (Solver.Telemetry.make ~every:8192 (fun ev ->
           Http.write_chunk fd (Wire.encode_event ev);
           Http.write_chunk fd "\n"))
  else None

(* How a request computes its certificate on a miss, or why it is
   refused: misuse gets [Error (code, message)] before the cache is
   touched or a byte is written.  The computation takes the DAG's
   [Dag.hash], which the request already holds, and runs after the
   chunked head, so what it raises ends the stream. *)
let plan state (rq : Wire.request) fd =
  (* a client's family tag is not checked against its DAG, and the
     cache key leaves it out, so no certificate may rest on it: the
     closed forms apply only to DAGs the library generated *)
  let g = Dag.with_family rq.dag None and r = rq.r in
  let budget = budget_of state rq and telemetry = solve_telemetry ~rq fd in
  let { Wire.sliding; recompute; no_delete } = rq.variants in
  let invalid msg = Error (Some "invalid-argument", msg) in
  (* the four exact-solve games: always solve with the strategy on (it
     is the certificate that makes the outcome cacheable and
     re-verifiable), and tee the telemetry through a convergence
     recorder so the served outcome carries its curve *)
  let exact wrap solve dag_hash =
    let conv, sink = Solver.Convergence.recorder ?telemetry () in
    let oc = solve ~telemetry:sink in
    let strategy =
      match oc with
      | Solver.Optimal { strategy = Some ms; _ }
      | Solver.Bounded { incumbent_strategy = Some ms; _ } ->
          Some (wrap ms)
      | _ -> None
    in
    Ok
      (Solve_cert
         (Wire.outcome_of ~game:rq.game ~r ~variants:rq.variants ?strategy
            ~curve:(Solver.Convergence.curve conv) ~dag_hash ~dag:g oc))
  in
  (* an unknown lower-rule name would select no rule, and the bare
     bound it leaves would be cached *)
  let unknown_rule =
    match (rq.kind, rq.rules) with
    | (Wire.Bracket | Wire.Frontier), Some names ->
        List.find_map
          (fun n ->
            match Lower.check_name n with Ok _ -> None | Error msg -> Some msg)
          names
    | _ -> None
  in
  match unknown_rule with
  | Some msg -> invalid msg
  | None ->
  match (rq.kind, rq.game) with
  | Wire.Solve, (Wire.Multi_rbp p | Wire.Multi_prbp p) when p < 1 || p > 8 ->
      invalid
        (Printf.sprintf "multiprocessor games support 1..8 processors, got %d" p)
  | Wire.Solve, (Wire.Multi_rbp _ | Wire.Multi_prbp _) when Dag.n_nodes g > 62
    ->
      invalid
        (Printf.sprintf "multiprocessor exact solves cap at 62 nodes, got %d"
           (Dag.n_nodes g))
  | Wire.Frontier, (Wire.Multi_rbp p | Wire.Multi_prbp p) when p < 1 ->
      invalid (Printf.sprintf "frontier needs p >= 1 processors, got %d" p)
  | (Wire.Solve | Wire.Frontier), (Wire.Multi_rbp _ | Wire.Multi_prbp _)
    when rq.variants <> Wire.no_variants ->
      invalid "multiprocessor games take no variant flags"
  | Wire.Solve, Wire.Multi_prbp _ when Dag.n_edges g > 62 ->
      invalid
        (Printf.sprintf "multiprocessor prbp exact solves cap at 62 edges, got %d"
           (Dag.n_edges g))
  | Wire.Solve, Wire.Rbp ->
      Ok
        (exact
           (fun ms -> Wire.Rbp_strategy ms)
           (fun ~telemetry ->
             Exact_rbp.solve ~budget ~telemetry ~want_strategy:true
               (Rbp.config ~one_shot:(not recompute) ~sliding ~no_delete ~r ())
               g))
  | Wire.Solve, Wire.Prbp ->
      Ok
        (exact
           (fun ms -> Wire.Prbp_strategy ms)
           (fun ~telemetry ->
             Exact_prbp.solve ~budget ~telemetry ~want_strategy:true
               (Prbp_game.config ~one_shot:(not recompute) ~recompute
                  ~no_delete ~r ())
               g))
  | Wire.Solve, Wire.Multi_rbp p ->
      Ok
        (exact
           (fun ms -> Wire.Multi_rbp_strategy (p, ms))
           (fun ~telemetry ->
             Exact_multi.rbp_solve ~budget ~telemetry ~want_strategy:true
               (Multi.config ~p ~r ()) g))
  | Wire.Solve, Wire.Multi_prbp p ->
      Ok
        (exact
           (fun ms -> Wire.Multi_prbp_strategy (p, ms))
           (fun ~telemetry ->
             Exact_multi.prbp_solve ~budget ~telemetry ~want_strategy:true
               (Multi.config ~p ~r ()) g))
  | Wire.Solve, Wire.Black ->
      Error
        ( None,
          Printf.sprintf "game %S is not served over the wire"
            (Wire.game_label rq.game) )
  | Wire.Bracket, ((Wire.Rbp | Wire.Prbp) as game) ->
      let bracket = if game = Wire.Rbp then Bracket.rbp else Bracket.prbp in
      Ok
        (fun _ ->
          Result.map
            (fun b ->
              Bracket_cert
                (Wire.bracket_of ~with_moves:true b))
            (bracket ~budget ?telemetry ?rules:rq.rules ~r g))
  | Wire.Bracket, _ -> Error (None, "only the rbp/prbp games have brackets")
  | Wire.Frontier, ((Wire.Multi_rbp p | Wire.Multi_prbp p) as game) ->
      let fgame =
        match game with Wire.Multi_rbp _ -> Frontier.Rbp_mc | _ -> Frontier.Prbp_mc
      in
      Ok
        (fun dag_hash ->
          let f =
            Frontier.sweep ~budget ?rules:rq.rules fgame ~p ~rs:(frontier_rs rq)
              g
          in
          Ok
            (Frontier_cert
               (Wire.frontier_of ~with_moves:true ~dag_hash ~dag:g f)))
  | Wire.Frontier, _ ->
      invalid
        "frontier requires a multiprocessor game (multi-rbp:P / multi-prbp:P)"

(* One canonical search per request gives the cache key and the
   relabeling into and out of canonical space.  Look the certificate up
   under the final key, then the budget-class key; a hit is relabeled
   out of canonical space and replayed before it is served (one failure
   drops the entry), a miss is computed, cached in canonical space and
   served through the same writer.  Each phase is a span, so the flight
   recorder shows where a request's time went. *)
let handle_certificate state (rq : Wire.request) fd =
  match plan state rq fd with
  | Error (code, msg) -> respond_error ?code fd 400 msg
  | Ok compute -> (
      let g = rq.dag in
      let dag_hash, order =
        Span.with_ ~name:"serve.canonicalize" (fun () -> Dag.canonical g)
      in
      let key = cache_key rq ~dag_hash in
      let fkey = key "final" and bkey = key (Wire.budget_class rq.budget) in
      let serve cache_status e =
        note_outcome (outcome_tag e);
        note_cache cache_status;
        (* the cache always carries the strategies (they ARE the
           certificate), responses only on request *)
        let e = if rq.want_strategy then e else map_strategies (fun _ -> None) e in
        let body = Span.with_ ~name:"serve.encode" (fun () -> encode e) in
        Span.with_ ~name:"serve.write" (fun () ->
            finish ~rq ~headers:[ ("x-prbpd-cache", cache_status) ] ~status:200
              fd body)
      in
      let cached =
        Span.with_ ~name:"serve.lookup" (fun () ->
            match Cache.find state.cache fkey with
            | Some e -> Some (fkey, e)
            | None ->
                Option.map (fun e -> (bkey, e)) (Cache.find state.cache bkey))
      in
      let verified =
        Option.bind cached (fun (key, canon) ->
            Span.with_ ~name:"serve.replay" (fun () ->
                let e = of_canonical order canon in
                if replays ~rq g e then Some e
                else begin
                  (* certificate no longer checks out: drop, recompute *)
                  Cache.remove state.cache key;
                  None
                end))
      in
      match verified with
      | Some e ->
          Metrics.Counter.incr state.cache_hits;
          stream_head ~rq ~cache_status:"hit" fd;
          serve "hit" e
      | None -> (
          Metrics.Counter.incr state.cache_misses;
          stream_head ~rq ~cache_status:"miss" fd;
          match Span.with_ ~name:"serve.compute" (fun () -> compute dag_hash) with
          | Ok e ->
              (* a solve without its strategy certifies nothing *)
              if List.for_all (fun (_, s, _) -> Option.is_some s) (witnesses e)
              then
                Cache.add state.cache
                  (if final e then fkey else bkey)
                  (to_canonical order e);
              serve "miss" e
          | Error msg | (exception Invalid_argument msg) ->
              finish ~rq ~status:400 fd (Wire.encode_error msg)))

(* ------------------------------------------------------------------ *)
(* Connection handling *)

let handle_api state fd (http_rq : Http.request) kind =
  match
    Span.with_ ~name:"serve.decode" (fun () ->
        Wire.decode_request http_rq.Http.body)
  with
  | Error msg -> respond_error fd 400 msg
  | Ok rq ->
      if rq.Wire.kind <> kind then
        respond_error fd 400 "request kind does not match the route"
      else handle_certificate state rq fd

let wire_req (s : Flight.summary) =
  {
    Wire.trace_id = s.Flight.trace_id;
    route = s.Flight.route;
    status = s.Flight.status;
    cache = s.Flight.cache;
    dur_s = s.Flight.dur_s;
    outcome = s.Flight.outcome;
  }

let status_body state =
  let routes =
    List.map
      (fun (route, h) ->
        let buckets, count, sum_s = Metrics.Histogram.snapshot h in
        { Wire.route; count; sum_s; buckets })
      state.route_latency
  in
  Wire.encode_status
    (Wire.status_report
       ~uptime_s:(Clock.elapsed_s state.started)
       ~workers:state.cfg.workers ~in_flight:(Pool.busy state.pool)
       ~queued:(Pool.queued state.pool)
       ~requests_total:(Metrics.Counter.value state.requests_total)
       ~cache_hits:(Metrics.Counter.value state.cache_hits)
       ~cache_misses:(Metrics.Counter.value state.cache_misses)
       ~flight_seen:(Flight.seen ()) ~flight_capacity:(Flight.capacity ())
       ~routes
       ~recent:(List.map wire_req (Flight.recent ()))
       ~slowest:
         (List.map
            (fun (e : Flight.entry) -> wire_req e.Flight.summary)
            (Flight.slowest ()))
       ())

let handle_connection state fd =
  let t0 = Clock.now () in
  (* a fresh trace context per request: concurrent requests record
     disjoint traces, span ids restart at 0, parents cannot cross *)
  let ctx = Span.new_context () in
  let info = fresh_info () in
  Domain.DLS.set info_key info;
  let path = ref "other" in
  Span.with_current ctx (fun () ->
      try
        match Http.read_request ~max_body:state.cfg.max_body fd with
        | Error msg -> respond_error fd 400 msg
        | Ok http_rq -> (
            path := route_of http_rq.Http.path;
            Span.with_
              ~name:("http " ^ http_rq.Http.meth ^ " " ^ !path)
              (fun () ->
                match (http_rq.Http.meth, http_rq.Http.path) with
                | "POST", "/v1/solve" ->
                    handle_api state fd http_rq Wire.Solve
                | "POST", "/v1/bracket" ->
                    handle_api state fd http_rq Wire.Bracket
                | "POST", "/v1/frontier" ->
                    handle_api state fd http_rq Wire.Frontier
                | "GET", "/metrics" ->
                    sync_gc_counters state;
                    note_status 200;
                    Http.write_response
                      ~headers:
                        [ ("content-type", "text/plain; version=0.0.4") ]
                      ~status:200
                      ~body:(Metrics.to_prometheus ())
                      fd
                | "GET", "/healthz" ->
                    respond_json ~status:200 fd
                      (Wire.encode_healthz
                         (Wire.healthz
                            ~uptime_s:(Clock.elapsed_s state.started)))
                | "GET", "/v1/status" ->
                    respond_json ~status:200 fd (status_body state)
                | ("POST" | "GET"), _ ->
                    respond_error fd 404 ("no route for " ^ http_rq.Http.path)
                | meth, _ ->
                    respond_error fd 405 ("method not allowed: " ^ meth)))
      with
      (* solver preconditions (size caps, bad parameters) are the
         client's fault; anything else is ours.  Either way the client
         gets a wire-schema error, never a silently dropped
         connection. *)
      | Invalid_argument msg -> respond_error fd 400 msg
      | exn -> respond_error fd 500 (Printexc.to_string exn));
  let dur_s = Clock.elapsed_s t0 in
  Metrics.Histogram.observe state.latency dur_s;
  (match List.assoc_opt !path state.route_latency with
  | Some h -> Metrics.Histogram.observe h dur_s
  | None -> ());
  Flight.record
    ~summary:
      {
        Flight.trace_id = Span.trace_id ctx;
        route = !path;
        status = info.ri_status;
        cache = info.ri_cache;
        t_start = t0;
        dur_s;
        outcome = info.ri_outcome;
      }
    ~spans:(Span.context_spans ctx)

(* ------------------------------------------------------------------ *)
(* Accept loop *)

let bind_socket = function
  | Tcp (iface, port) ->
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string iface, port));
      sock
  | Unix_path path ->
      (if Sys.file_exists path then try Unix.unlink path with _ -> ());
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind sock (Unix.ADDR_UNIX path);
      sock

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let run ?(stop = Atomic.make false) cfg =
  let state = make_state cfg in
  let sock = bind_socket cfg.addr in
  Unix.listen sock 64;
  let serve_one client =
    (* per-connection guard rails: a stalled peer times the worker out
       instead of pinning it forever *)
    (try
       Unix.setsockopt_float client Unix.SO_RCVTIMEO Http.request_deadline_s;
       Unix.setsockopt_float client Unix.SO_SNDTIMEO 30.0
     with Unix.Unix_error _ -> ());
    Fun.protect
      ~finally:(fun () -> close_quietly client)
      (fun () -> handle_connection state client)
  in
  let accept_ready () =
    match Unix.select [ sock ] [] [] 0.25 with
    | [ _ ], _, _ -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
  in
  while not (Atomic.get stop) do
    if accept_ready () then
      match Unix.accept sock with
      | client, _ ->
          Metrics.Counter.incr state.requests_total;
          if not (Pool.submit state.pool (fun () -> serve_one client)) then begin
            (* admission control: refuse in constant time, before any
               parsing, so overload cannot amplify itself *)
            Metrics.Counter.incr state.rejected_total;
            respond_error client 503 "server at capacity, retry later";
            (* drain the unread request so close sends FIN, not an RST
               that would clobber the 503 in the peer's buffer *)
            (try
               Unix.set_nonblock client;
               let buf = Bytes.create 4096 in
               let rec drain () =
                 match Unix.read client buf 0 4096 with
                 | 0 -> ()
                 | _ -> drain ()
               in
               drain ()
             with Unix.Unix_error _ -> ());
            close_quietly client
          end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  close_quietly sock;
  (match cfg.addr with
  | Unix_path path -> ( try Unix.unlink path with _ -> ())
  | Tcp _ -> ());
  Pool.shutdown state.pool;
  (* the shutdown snapshot ([--metrics-out]) is a scrape too *)
  sync_gc_counters state
