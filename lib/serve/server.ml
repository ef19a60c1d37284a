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
  }

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

let outcome_tag (o : Wire.outcome) =
  match o.Wire.status with
  | `Optimal -> "optimal"
  | `Bounded -> "bounded"
  | `Unsolvable -> "unsolvable"

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

(* to canonical space: request node v |-> canonical_order.(v) *)
let to_canonical g strategy = permute_strategy (Dag.canonical_order g) strategy

(* back to the labels of (a possibly different relabeling of) the DAG *)
let of_canonical g strategy =
  permute_strategy (inverse (Dag.canonical_order g)) strategy

(* ------------------------------------------------------------------ *)
(* Cache keys *)

let variants_tag (v : Wire.variants) =
  Printf.sprintf "%c%c%c"
    (if v.sliding then 's' else '-')
    (if v.recompute then 'c' else '-')
    (if v.no_delete then 'd' else '-')

let cache_key ~kind ~budget_part (rq : Wire.request) ~dag_hash =
  String.concat "|"
    [
      kind; dag_hash; Wire.game_label rq.game; string_of_int rq.r;
      variants_tag rq.variants; budget_part;
    ]

(* proven results are budget-independent; truncated ones are only
   reusable under a comparable budget *)
let final_key = cache_key ~budget_part:"final"

let budget_key (rq : Wire.request) =
  cache_key ~budget_part:(Wire.budget_class rq.budget) rq

(* ------------------------------------------------------------------ *)
(* Re-verification: a cached certificate is replayed through the
   literal game checkers against the request's DAG before it is
   served.  [Some cost] = the strategy is valid and costs [cost]. *)

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

let verify_solve_entry ~rq g (o : Wire.outcome) =
  match (o.strategy, o.status) with
  | None, _ | _, `Unsolvable -> None
  | Some canon_strategy, status -> (
      let strategy = of_canonical g canon_strategy in
      match checked_cost ~rq g strategy with
      | None -> None
      | Some cost -> (
          match status with
          | `Optimal when cost = o.lower ->
              Some { o with Wire.strategy = Some strategy }
          | `Bounded when Some cost = o.upper ->
              Some { o with Wire.strategy = Some strategy }
          | _ -> None))

let verify_bracket_entry ~rq g (b : Wire.bracket) =
  match b.strategy with
  | None -> None
  | Some canon_strategy -> (
      let strategy = of_canonical g canon_strategy in
      match checked_cost ~rq g strategy with
      | Some cost when cost = b.upper ->
          Some { b with Wire.strategy = Some strategy }
      | _ -> None)

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

(* chunked telemetry stream, or a plain single-object response *)
let deliver ~(rq : Wire.request) ~cache_status fd body =
  note_cache cache_status;
  let headers = [ ("x-prbpd-cache", cache_status) ] in
  if rq.stream then begin
    Http.write_chunk fd body;
    Http.write_chunk fd "\n";
    Http.write_chunk_end fd
  end
  else respond_json ~headers ~status:200 fd body

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

let solve_telemetry ~(rq : Wire.request) fd =
  if rq.stream then
    Some
      (Solver.Telemetry.make ~every:8192 (fun ev ->
           Http.write_chunk fd (Wire.encode_event ev);
           Http.write_chunk fd "\n"))
  else None

(* strip what the client did not ask for — the cache always carries
   the strategy (it IS the certificate), responses only on request *)
let client_view (rq : Wire.request) (o : Wire.outcome) =
  if rq.want_strategy then o else { o with Wire.strategy = None }

(* Exact_multi's structural preconditions, checked before any response
   bytes are written: violations get a structured 4xx (code
   "invalid-argument") instead of an [Invalid_argument] escaping
   mid-stream. *)
let multi_precheck (rq : Wire.request) =
  let g = rq.dag in
  let common p =
    if p < 1 || p > 8 then
      Error
        (Printf.sprintf "multiprocessor games support 1..8 processors, got %d"
           p)
    else if Dag.n_nodes g > 62 then
      Error
        (Printf.sprintf "multiprocessor exact solves cap at 62 nodes, got %d"
           (Dag.n_nodes g))
    else if rq.variants <> Wire.no_variants then
      Error "multiprocessor games take no variant flags"
    else Ok ()
  in
  match rq.game with
  | Wire.Multi_rbp p -> common p
  | Wire.Multi_prbp p -> (
      match common p with
      | Error _ as e -> e
      | Ok () ->
          if Dag.n_edges g > 62 then
            Error
              (Printf.sprintf
                 "multiprocessor prbp exact solves cap at 62 edges, got %d"
                 (Dag.n_edges g))
          else Ok ())
  | Wire.Rbp | Wire.Prbp | Wire.Black -> Ok ()

let handle_solve_checked state (rq : Wire.request) fd =
  let g = rq.dag in
  let dag_hash = Dag.hash g in
  let fkey = final_key ~kind:"solve" rq ~dag_hash in
  let bkey = budget_key ~kind:"solve" rq ~dag_hash in
  let cached =
    match Cache.find state.cache fkey with
    | Some (Solve_cert o) -> Some (fkey, o)
    | _ -> (
        match Cache.find state.cache bkey with
        | Some (Solve_cert o) -> Some (bkey, o)
        | _ -> None)
  in
  let verified =
    Option.bind cached (fun (key, o) ->
        match verify_solve_entry ~rq g o with
        | Some o -> Some o
        | None ->
            (* certificate no longer checks out: drop, re-solve *)
            Cache.remove state.cache key;
            None)
  in
  match verified with
  | Some o ->
      Metrics.Counter.incr state.cache_hits;
      note_outcome (outcome_tag o);
      stream_head ~rq ~cache_status:"hit" fd;
      deliver ~rq ~cache_status:"hit" fd
        (Wire.encode_outcome (client_view rq o))
  | None ->
      Metrics.Counter.incr state.cache_misses;
      stream_head ~rq ~cache_status:"miss" fd;
      let budget = budget_of state rq in
      let conv, telemetry =
        (* tee the solver's telemetry through a convergence recorder so
           the served outcome carries its curve; the client's stream
           (when requested) still sees every event *)
        let r, sink = Solver.Convergence.recorder ?telemetry:(solve_telemetry ~rq fd) () in
        (r, Some sink)
      in
      let { Wire.sliding; recompute; no_delete } = rq.variants in
      let r = rq.r in
      (* always solve with the strategy on: it is the certificate that
         makes the outcome cacheable and re-verifiable *)
      let outcome =
        match rq.game with
        | Wire.Rbp ->
            let cfg =
              Rbp.config ~one_shot:(not recompute) ~sliding ~no_delete ~r ()
            in
            let oc =
              Exact_rbp.solve ~budget ?telemetry ~want_strategy:true cfg g
            in
            let strategy =
              match oc with
              | Solver.Optimal { strategy = Some ms; _ }
              | Solver.Bounded { incumbent_strategy = Some ms; _ } ->
                  Some (Wire.Rbp_strategy ms)
              | _ -> None
            in
            Ok (Wire.outcome_of ~game:rq.game ~r ~variants:rq.variants
                  ?strategy ~curve:(Solver.Convergence.curve conv) ~dag:g oc)
        | Wire.Prbp ->
            let cfg =
              Prbp_game.config ~one_shot:(not recompute) ~recompute
                ~no_delete ~r ()
            in
            let oc =
              Exact_prbp.solve ~budget ?telemetry ~want_strategy:true cfg g
            in
            let strategy =
              match oc with
              | Solver.Optimal { strategy = Some ms; _ }
              | Solver.Bounded { incumbent_strategy = Some ms; _ } ->
                  Some (Wire.Prbp_strategy ms)
              | _ -> None
            in
            Ok (Wire.outcome_of ~game:rq.game ~r ~variants:rq.variants
                  ?strategy ~curve:(Solver.Convergence.curve conv) ~dag:g oc)
        | Wire.Multi_rbp p ->
            let cfg = Multi.config ~p ~r () in
            let oc =
              Exact_multi.rbp_solve ~budget ?telemetry ~want_strategy:true cfg
                g
            in
            let strategy =
              match oc with
              | Solver.Optimal { strategy = Some ms; _ }
              | Solver.Bounded { incumbent_strategy = Some ms; _ } ->
                  Some (Wire.Multi_rbp_strategy (p, ms))
              | _ -> None
            in
            Ok (Wire.outcome_of ~game:rq.game ~r ~variants:rq.variants
                  ?strategy ~curve:(Solver.Convergence.curve conv) ~dag:g oc)
        | Wire.Multi_prbp p ->
            let cfg = Multi.config ~p ~r () in
            let oc =
              Exact_multi.prbp_solve ~budget ?telemetry ~want_strategy:true
                cfg g
            in
            let strategy =
              match oc with
              | Solver.Optimal { strategy = Some ms; _ }
              | Solver.Bounded { incumbent_strategy = Some ms; _ } ->
                  Some (Wire.Multi_prbp_strategy (p, ms))
              | _ -> None
            in
            Ok (Wire.outcome_of ~game:rq.game ~r ~variants:rq.variants
                  ?strategy ~curve:(Solver.Convergence.curve conv) ~dag:g oc)
        | Wire.Black ->
            Error
              (Printf.sprintf "game %S is not served over the wire"
                 (Wire.game_label rq.game))
      in
      (match outcome with
      | Error msg ->
          if rq.stream then begin
            Http.write_chunk fd (Wire.encode_error msg);
            Http.write_chunk fd "\n";
            Http.write_chunk_end fd
          end
          else respond_error fd 400 msg
      | Ok o ->
          note_outcome (outcome_tag o);
          (match o.Wire.strategy with
          | Some strategy ->
              let canon = { o with Wire.strategy = Some (to_canonical g strategy) } in
              let key = if o.Wire.status = `Optimal then fkey else bkey in
              Cache.add state.cache key (Solve_cert canon)
          | None -> ());
          deliver ~rq ~cache_status:"miss" fd
            (Wire.encode_outcome (client_view rq o)))

let handle_solve state (rq : Wire.request) fd =
  match multi_precheck rq with
  | Error msg -> respond_error ~code:"invalid-argument" fd 400 msg
  | Ok () -> handle_solve_checked state rq fd

let bracket_view (rq : Wire.request) (b : Wire.bracket) =
  if rq.want_strategy then b else { b with Wire.strategy = None }

let handle_bracket state (rq : Wire.request) fd =
  let g = rq.dag in
  let dag_hash = Dag.hash g in
  match rq.game with
  | Wire.Black | Wire.Multi_rbp _ | Wire.Multi_prbp _ ->
      respond_error fd 400 "only the rbp/prbp games have brackets"
  | (Wire.Rbp | Wire.Prbp) as game ->
      let fkey = final_key ~kind:"bracket" rq ~dag_hash in
      let bkey = budget_key ~kind:"bracket" rq ~dag_hash in
      let cached =
        match Cache.find state.cache fkey with
        | Some (Bracket_cert b) -> Some (fkey, b)
        | _ -> (
            match Cache.find state.cache bkey with
            | Some (Bracket_cert b) -> Some (bkey, b)
            | _ -> None)
      in
      let verified =
        Option.bind cached (fun (key, b) ->
            match verify_bracket_entry ~rq g b with
            | Some b -> Some b
            | None ->
                Cache.remove state.cache key;
                None)
      in
      (match verified with
      | Some b ->
          Metrics.Counter.incr state.cache_hits;
          note_outcome (if b.Wire.tight then "optimal" else "bounded");
          stream_head ~rq ~cache_status:"hit" fd;
          deliver ~rq ~cache_status:"hit" fd
            (Wire.encode_bracket (bracket_view rq b))
      | None ->
          Metrics.Counter.incr state.cache_misses;
          stream_head ~rq ~cache_status:"miss" fd;
          let budget = budget_of state rq in
          let telemetry = solve_telemetry ~rq fd in
          let result =
            match game with
            | Wire.Rbp ->
                Bracket.rbp ~budget ?telemetry ?rules:rq.rules ~r:rq.r g
            | _ -> Bracket.prbp ~budget ?telemetry ?rules:rq.rules ~r:rq.r g
          in
          (match result with
          | Error msg ->
              if rq.stream then begin
                Http.write_chunk fd (Wire.encode_error msg);
                Http.write_chunk fd "\n";
                Http.write_chunk_end fd
              end
              else respond_error fd 400 msg
          | Ok bracket ->
              let wb =
                Wire.bracket_of ?family:(Dag.family g) ~with_moves:true
                  bracket
              in
              note_outcome (if wb.Wire.tight then "optimal" else "bounded");
              let canon =
                {
                  wb with
                  Wire.strategy =
                    Option.map (to_canonical g) wb.Wire.strategy;
                }
              in
              let key = if wb.Wire.tight then fkey else bkey in
              Cache.add state.cache key (Bracket_cert canon);
              deliver ~rq ~cache_status:"miss" fd
                (Wire.encode_bracket (bracket_view rq wb))))

(* ------------------------------------------------------------------ *)
(* Frontier handling *)

let frontier_rs (rq : Wire.request) =
  match rq.rs with
  | Some rs when rs <> [] -> List.sort_uniq compare rs
  | _ -> [ rq.r ]

(* the swept capacities are part of the identity of a frontier, so
   they join the cache key *)
let frontier_key ~budget_part (rq : Wire.request) ~dag_hash =
  let rs_tag = String.concat "," (List.map string_of_int (frontier_rs rq)) in
  cache_key ~kind:("frontier:" ^ rs_tag) ~budget_part rq ~dag_hash

(* every cached point's witness must replay at exactly its claimed
   comm_upper; one failure drops the whole entry *)
let verify_frontier_entry ~(rq : Wire.request) g (f : Wire.frontier) =
  let ok = ref true in
  let points =
    List.map
      (fun (pt : Wire.frontier_point) ->
        match pt.strategy with
        | None -> pt
        | Some canon -> (
            let strategy = of_canonical g canon in
            let rq_pt = { rq with Wire.r = pt.r } in
            match (checked_cost ~rq:rq_pt g strategy, pt.comm_upper) with
            | Some c, Some cu when c = cu ->
                { pt with Wire.strategy = Some strategy }
            | _ ->
                ok := false;
                pt))
      f.points
  in
  if !ok then Some { f with Wire.points } else None

let frontier_view (rq : Wire.request) (f : Wire.frontier) =
  if rq.want_strategy then f
  else
    {
      f with
      Wire.points =
        List.map
          (fun (pt : Wire.frontier_point) -> { pt with Wire.strategy = None })
          f.points;
    }

let handle_frontier state (rq : Wire.request) fd =
  let g = rq.dag in
  match rq.game with
  | Wire.Rbp | Wire.Prbp | Wire.Black ->
      respond_error ~code:"invalid-argument" fd 400
        "frontier requires a multiprocessor game (multi-rbp:P / multi-prbp:P)"
  | (Wire.Multi_rbp p | Wire.Multi_prbp p) when p < 1 ->
      respond_error ~code:"invalid-argument" fd 400
        (Printf.sprintf "frontier needs p >= 1 processors, got %d" p)
  | (Wire.Multi_rbp _ | Wire.Multi_prbp _)
    when rq.variants <> Wire.no_variants ->
      respond_error ~code:"invalid-argument" fd 400
        "multiprocessor games take no variant flags"
  | (Wire.Multi_rbp p | Wire.Multi_prbp p) as game -> (
      let fgame =
        match game with
        | Wire.Multi_rbp _ -> Frontier.Rbp_mc
        | _ -> Frontier.Prbp_mc
      in
      let dag_hash = Dag.hash g in
      let rs = frontier_rs rq in
      let fkey = frontier_key ~budget_part:"final" rq ~dag_hash in
      let bkey =
        frontier_key ~budget_part:(Wire.budget_class rq.budget) rq ~dag_hash
      in
      let cached =
        match Cache.find state.cache fkey with
        | Some (Frontier_cert f) -> Some (fkey, f)
        | _ -> (
            match Cache.find state.cache bkey with
            | Some (Frontier_cert f) -> Some (bkey, f)
            | _ -> None)
      in
      let verified =
        Option.bind cached (fun (key, f) ->
            match verify_frontier_entry ~rq g f with
            | Some f -> Some f
            | None ->
                Cache.remove state.cache key;
                None)
      in
      match verified with
      | Some f ->
          Metrics.Counter.incr state.cache_hits;
          note_outcome (if f.Wire.exhausted then "open" else "settled");
          stream_head ~rq ~cache_status:"hit" fd;
          deliver ~rq ~cache_status:"hit" fd
            (Wire.encode_frontier (frontier_view rq f))
      | None ->
          Metrics.Counter.incr state.cache_misses;
          stream_head ~rq ~cache_status:"miss" fd;
          let budget = budget_of state rq in
          let f = Frontier.sweep ~budget ?rules:rq.rules fgame ~p ~rs g in
          let wf =
            Wire.frontier_of ?family:(Dag.family g) ~with_moves:true ~dag:g f
          in
          let canon =
            {
              wf with
              Wire.points =
                List.map
                  (fun (pt : Wire.frontier_point) ->
                    {
                      pt with
                      Wire.strategy = Option.map (to_canonical g) pt.strategy;
                    })
                  wf.Wire.points;
            }
          in
          note_outcome (if wf.Wire.exhausted then "open" else "settled");
          (* a fully settled sweep is budget-independent *)
          let key = if not wf.Wire.exhausted then fkey else bkey in
          Cache.add state.cache key (Frontier_cert canon);
          deliver ~rq ~cache_status:"miss" fd
            (Wire.encode_frontier (frontier_view rq wf)))

(* ------------------------------------------------------------------ *)
(* Connection handling *)

let handle_api state fd (http_rq : Http.request) kind handler =
  match Wire.decode_request http_rq.Http.body with
  | Error msg -> respond_error fd 400 msg
  | Ok rq ->
      if rq.Wire.kind <> kind then
        respond_error fd 400 "request kind does not match the route"
      else handler state rq fd

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
                    handle_api state fd http_rq Wire.Solve handle_solve
                | "POST", "/v1/bracket" ->
                    handle_api state fd http_rq Wire.Bracket handle_bracket
                | "POST", "/v1/frontier" ->
                    handle_api state fd http_rq Wire.Frontier handle_frontier
                | "GET", "/metrics" ->
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
  Pool.shutdown state.pool
