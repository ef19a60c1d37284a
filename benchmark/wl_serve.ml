(* Workloads [serve-hit] and [serve-miss]: prbpd over HTTP.

   The daemon runs as a child process with 2 worker domains.  Load is
   closed loop from 2 client domains of this process, because prbpd's
   callers (pebble_cli, scripts) wait for each reply before sending the
   next request.

   [serve-hit] warms the certificate cache during set-up with a fixed
   mix of requests, all asking for the strategy; every timed request is
   then a hit, so time goes to HTTP, wire decode/encode, canonical
   hashing, the LRU lookup and certificate re-verification while the
   engine idles.  The mix is pinned, like the exact and bracket inputs,
   so the seed does not change it: even hashing a relabeled copy of a
   symmetric DAG costs a different amount (canonical ordering breaks
   its remaining ties by node id).

   [serve-miss] sends a stream of distinct seeded random DAGs, so every
   request misses, solves with strategy reconstruction, inserts and —
   past the cache capacity — evicts.  A hit-path win that costs the
   write path shows here, as does an engine win that reaches the
   service. *)

module W = Prbp.Wire

type item = {
  label : string;
  path : string;
  body : string;  (* the encoded request *)
  dag : Prbp.Dag.t;
  kind : W.kind;
  game : W.game;
  r : int;
  opt : int option;  (* pinned optimum of an exact solve *)
}

let item ?budget ?rs ?opt ~kind ~game ~r label dag =
  let path =
    match kind with
    | W.Solve -> "/v1/solve"
    | W.Bracket -> "/v1/bracket"
    | W.Frontier -> "/v1/frontier"
  in
  let rq = W.request ?budget ?rs ~want_strategy:true ~kind ~game ~r dag in
  { label; path; body = W.encode_request rq; dag; kind; game; r; opt }

let clients = 2

let workers = 2

(* ------------------------------------------------------------------ *)
(* The serve-hit mix: one request per item, unweighted.  prbpd has no
   recorded traffic to weight the items by. *)

let tree k depth = (Prbp.Graphs.Tree.make ~k ~depth).Prbp.Graphs.Tree.dag

let rand gen = Prbp.Graphs.Random_dag.make ~seed:gen ~max_in_degree:2 ~layers:3 ~width:3 ()

let mix ~quick =
  let diamond = Prbp.Graphs.Basic.diamond () in
  let chain = Prbp.Graphs.Basic.path 6 in
  let fig1 = fst (Prbp.Graphs.Fig1.full ()) in
  let solve ?budget ?opt game r label g = item ?budget ?opt ~kind:W.Solve ~game ~r label g in
  let bracket game r label g = item ~kind:W.Bracket ~game ~r label g in
  let frontier p rs label g =
    item ~rs ~kind:W.Frontier ~game:(W.Multi_prbp p) ~r:(List.hd rs) label g
  in
  if quick then
    [
      solve ~opt:2 W.Rbp 3 "solve rbp diamond r=3" diamond;
      solve ~opt:4 W.Prbp 2 "solve prbp diamond r=2" diamond;
      bracket W.Rbp 3 "bracket rbp diamond r=3" diamond;
      frontier 2 [ 3; 4 ] "frontier multi-prbp:2 fig1 rs=3,4" fig1;
    ]
  else
    [
      solve ~opt:2 W.Rbp 3 "solve rbp diamond r=3" diamond;
      solve ~opt:4 W.Prbp 2 "solve prbp diamond r=2" diamond;
      solve ~opt:2 W.Rbp 2 "solve rbp chain(6) r=2" chain;
      solve ~opt:2 W.Prbp 2 "solve prbp chain(6) r=2" chain;
      solve ~opt:15 W.Rbp 3 "solve rbp tree(2,3) r=3" (tree 2 3);
      solve ~opt:11 W.Prbp 3 "solve prbp tree(2,3) r=3" (tree 2 3);
      solve ~opt:6 W.Prbp 3 "solve prbp random(g1,3x3) r=3" (rand 1);
      solve ~opt:6 W.Rbp 3 "solve rbp random(g2,3x3) r=3" (rand 2);
      bracket W.Rbp 3 "bracket rbp diamond r=3" diamond;
      bracket W.Prbp 2 "bracket prbp tree(2,3) r=2" (tree 2 3);
      bracket W.Prbp 3 "bracket prbp random(g3,3x3) r=3" (rand 3);
      bracket W.Rbp 4 "bracket rbp random(g4,3x3) r=4" (rand 4);
      bracket W.Rbp 4 "bracket rbp fft:32 r=4"
        (Prbp.Graphs.Fft.make ~m:32).Prbp.Graphs.Fft.dag;
      solve
        ~budget:{ W.no_budget with W.max_states = Some 100_000 }
        W.Prbp 3 "solve prbp tree(2,4) r=3 states<=100k" (tree 2 4);
      frontier 2 [ 3; 4 ] "frontier multi-prbp:2 fig1 rs=3,4" fig1;
    ]

(* ------------------------------------------------------------------ *)
(* The serve-miss stream: distinct random DAGs, PRBP on 8 nodes (4
   layers of 2) and RBP on 12 (3×4 or 4×3), alternating, r = 3.  These
   shapes have thousands of isomorphism classes each (narrower ones
   have a few dozen) and solve in about 10 ms.  RBP DAGs keep max
   in-degree ≤ 2 so r = 3 is feasible; duplicates up to isomorphism are
   skipped, so no request can hit another's cache entry. *)

let stream ~seed ~count =
  let seen = Hashtbl.create count in
  let rec gen acc n i =
    if n = count || i > 50 * count then Array.of_list (List.rev acc)
    else
      let prbp = n mod 2 = 0 in
      let layers, width = if prbp then (4, 2) else if i mod 2 = 0 then (3, 4) else (4, 3) in
      let g =
        Prbp.Graphs.Random_dag.make ~seed:((seed * 1_000_003) + i) ~max_in_degree:2
          ~layers ~width ()
      in
      let game = if prbp then W.Prbp else W.Rbp in
      let key = (prbp, Prbp.Dag.hash g) in
      if ((not prbp) && Prbp.Dag.max_in_degree g > 2) || Hashtbl.mem seen key then
        gen acc n (i + 1)
      else begin
        Hashtbl.add seen key ();
        let it =
          item ~kind:W.Solve ~game ~r:3
            (Printf.sprintf "%s random(%d,%dx%d) r=3" (W.game_label game) i layers width)
            g
        in
        gen (it :: acc) (n + 1) (i + 1)
      end
  in
  gen [] 0 0

(* ------------------------------------------------------------------ *)
(* Correctness oracle: a reply's certificate replays at exactly its
   claimed cost, and a pinned optimum is met.  Returns the certified
   width, or [None].  With [~optimal], a solve must also be settled
   optimal: a reply the daemon's deadline cut short is a failure. *)

let verify ?(optimal = false) it body =
  let all_some l =
    if List.for_all Option.is_some l then Some (Util.isum (List.map Option.get l)) else None
  in
  match it.kind with
  | W.Solve -> (
      match W.decode_outcome body with
      | Ok { W.strategy = Some s; upper = Some u; lower; status; _ }
        when Replay.costs_exactly ~cost:u (Replay.wire ~r:it.r it.dag s) -> (
          match (it.opt, status) with
          | Some opt, `Optimal when lower = opt -> Some 0
          | Some _, _ -> None
          | None, `Optimal -> Some (u - lower)
          | None, `Bounded when not optimal -> Some (u - lower)
          | None, (`Bounded | `Unsolvable) -> None)
      | _ -> None)
  | W.Bracket -> (
      match W.decode_bracket body with
      | Ok { W.strategy = Some s; upper; width; _ }
        when Replay.costs_exactly ~cost:upper (Replay.wire ~r:it.r it.dag s) ->
          Some width
      | _ -> None)
  | W.Frontier -> (
      match W.decode_frontier body with
      | Ok f ->
          all_some
            (List.map
               (fun (pt : W.frontier_point) ->
                 match (pt.W.strategy, pt.W.comm_upper) with
                 | Some s, Some cu
                   when Replay.costs_exactly ~cost:cu (Replay.wire ~r:pt.W.r it.dag s) ->
                     Some (cu - pt.W.comm_lower)
                 | _ -> None)
               f.W.points)
      | Error _ -> None)

(* ------------------------------------------------------------------ *)
(* The closed-loop clients *)

type record = {
  k : int;  (* index of the item sent *)
  t0 : float;
  t1 : float;
  status : int;
  cache : string;
  digest : string;
  body : string;  (* kept only when [keep_bodies] *)
}

let client d ~items ~next ~until ~keep_bodies ~traced () =
  let acc = ref [] in
  let rec loop () =
    if Util.now () < until then
      match next () with
      | None -> ()
      | Some k ->
          let it = items.(k) in
          let send () =
            try Daemon.post d ~path:it.path it.body with Unix.Unix_error _ -> None
          in
          let t0 = Util.now () in
          let reply =
            if traced then
              Prbp.Obs.Span.with_ ~name:"bench.serve.request"
                ~attrs:[ ("item", it.label) ] send
            else send ()
          in
          let t1 = Util.now () in
          let status, cache, body =
            match reply with
            | Some r -> (r.Daemon.status, r.Daemon.cache, r.Daemon.body)
            | None -> (0, "-", "")
          in
          acc :=
            {
              k;
              t0;
              t1;
              status;
              cache;
              digest = Digest.string body;
              body = (if keep_bodies then body else "");
            }
            :: !acc;
          loop ()
  in
  loop ();
  List.rev !acc

(* Drive the daemon for [seconds] from [clients] domains.  The hit mix
   is cycled by every client from its own offset; the miss stream is
   shared, so no item is sent twice. *)
let drive d ~items ~shared ~seconds ~keep_bodies ~traced =
  let n = Array.length items in
  let cursor = Atomic.make 0 in
  let until = Util.now () +. seconds in
  let next c =
    if shared then fun () ->
      let k = Atomic.fetch_and_add cursor 1 in
      if k < n then Some k else None
    else
      let i = ref 0 in
      fun () ->
        let k = ((c * n / clients) + !i) mod n in
        incr i;
        Some k
  in
  let t_start = Util.now () in
  let records =
    List.init clients (fun c ->
        Domain.spawn (client d ~items ~next:(next c) ~until ~keep_bodies ~traced))
    |> List.map Domain.join
  in
  if shared && Atomic.get cursor >= n then
    Util.log "serve: the request stream ran out before the window ended";
  (t_start, Util.now (), records)

(* ------------------------------------------------------------------ *)

type mode = Hit | Miss

let limit_s = function Hit -> 0.020 | Miss -> 0.500

let cache_capacity = 256

let stream_len ~quick = if quick then 500 else 6_000

type fixture = {
  daemon : Daemon.t;
  items : item array;
  warm : string array;
      (* serve-hit: the warm-up replies, the certificates every hit
         must repeat byte for byte *)
}

(* Set-up: the inputs, a healthy daemon and, for [Hit], a warm cache. *)
let boot (st : Workload.settings) mode =
  let items =
    match mode with
    | Hit -> Array.of_list (mix ~quick:st.quick)
    | Miss -> stream ~seed:st.seed ~count:(stream_len ~quick:st.quick)
  in
  let daemon = Daemon.start ~prbpd:st.prbpd ~workers ~cache:cache_capacity in
  let warm =
    match mode with
    | Miss -> [||]
    | Hit ->
        Array.map
          (fun it ->
            match Daemon.post daemon ~path:it.path it.body with
            | Some r when r.Daemon.status = 200 -> r.Daemon.body
            | _ -> "")
          items
  in
  { daemon; items; warm }

let settings_json (st : Workload.settings) mode =
  let module J = Util.Json in
  [
    ("clients", J.Int clients);
    ("daemon_workers", J.Int workers);
    ("cache_capacity", J.Int cache_capacity);
    ("latency_limit_ms", J.Float (limit_s mode *. 1000.));
  ]
  @
  match mode with
  | Hit ->
      [ ("mix", J.List (List.map (fun it -> J.String it.label) (mix ~quick:st.quick))) ]
  | Miss -> [ ("stream_len", J.Int (stream_len ~quick:st.quick)) ]

(* Judge every record once the window is over.  A hit must repeat its
   warm-up reply byte for byte, and that reply must verify; a miss must
   verify on its own, and every 16th optimum is re-derived in-process. *)
let judge mode fx =
  let warm_widths = Array.mapi (fun k body -> verify fx.items.(k) body) fx.warm in
  let warm_digests = Array.map Digest.string fx.warm in
  let optimum it =
    match it.game with
    | W.Prbp ->
        Prbp.Solver.optimal_cost
          (Prbp.Exact_prbp.solve (Prbp.Prbp_game.config ~r:it.r ()) it.dag)
    | _ ->
        Prbp.Solver.optimal_cost (Prbp.Exact_rbp.solve (Prbp.Rbp.config ~r:it.r ()) it.dag)
  in
  List.map (fun rc ->
      let it = fx.items.(rc.k) in
      let width, target, ok =
        match mode with
        | Hit -> (
            match warm_widths.(rc.k) with
            | Some w -> (w, w, rc.status = 200 && rc.digest = warm_digests.(rc.k))
            | None -> (0, 0, false))
        | Miss -> (
            let verified = if rc.status = 200 then verify ~optimal:true it rc.body else None in
            let confirmed () =
              rc.k mod 16 <> 0
              ||
              match W.decode_outcome rc.body with
              | Ok o -> optimum it = Some o.W.lower
              | Error _ -> false
            in
            match verified with
            | Some w when confirmed () -> (w, 0, true)
            | _ -> (0, 0, false))
      in
      if not ok then Util.log "%s: %s failed its oracle (HTTP %d)"
          (match mode with Hit -> "serve-hit" | Miss -> "serve-miss") it.label rc.status;
      let lat = rc.t1 -. rc.t0 in
      ( rc,
        {
          Workload.input = rc.k;
          lat;
          ttw = lat;
          width;
          target;
          ok;
          good = ok && lat <= limit_s mode;
        } ))

(* Ten equal time slices of the window; a round — one client's pass
   through [n_items] consecutive requests — belongs to the slice it
   ends in. *)
let slices ~n_items ~t_start ~t_end judged_by_client =
  let n_slices = 10 in
  let len = (t_end -. t_start) /. float_of_int n_slices in
  let slot t = max 0 (min (n_slices - 1) (int_of_float ((t -. t_start) /. len))) in
  let ops = Array.make n_slices [] and rounds = Array.make n_slices [] in
  List.iter
    (fun judged ->
      let a = Array.of_list judged in
      Array.iter (fun (rc, op) -> ops.(slot rc.t1) <- op :: ops.(slot rc.t1)) a;
      for i = 0 to (Array.length a / n_items) - 1 do
        let first, _ = a.(i * n_items) and last, _ = a.(((i + 1) * n_items) - 1) in
        let ttw = ref 0. in
        for j = i * n_items to ((i + 1) * n_items) - 1 do
          ttw := !ttw +. (snd a.(j)).Workload.ttw
        done;
        let s = slot last.t1 in
        rounds.(s) <- (last.t1 -. first.t0, !ttw) :: rounds.(s)
      done)
    judged_by_client;
  List.init n_slices (fun s ->
      {
        Workload.ops = ops.(s);
        rounds = List.map fst rounds.(s);
        round_ttws = List.map snd rounds.(s);
        span_s = len;
      })

let round_len mode n = match mode with Hit -> n | Miss -> 16

let run mode (st : Workload.settings) =
  let fx, setup_times =
    Workload.setup ~k:5 ~discard:(fun fx -> Daemon.stop fx.daemon) (fun () -> boot st mode)
  in
  let t_start, t_end, records =
    drive fx.daemon ~items:fx.items ~shared:(mode = Miss) ~seconds:st.seconds
      ~keep_bodies:(mode = Miss) ~traced:false
  in
  let rss_mb = Util.peak_rss_mb fx.daemon.Daemon.pid in
  Daemon.stop fx.daemon;
  if mode = Hit then begin
    let by_label = Hashtbl.create 16 in
    List.iter
      (List.iter (fun rc ->
           let label = fx.items.(rc.k).label in
           Hashtbl.replace by_label label
             ((rc.t1 -. rc.t0) :: Option.value ~default:[] (Hashtbl.find_opt by_label label))))
      records;
    Hashtbl.iter
      (fun label lats ->
        Util.log "serve-hit: %-44s median %.3f ms over %d requests" label
          (Util.median lats *. 1e3) (List.length lats))
      by_label
  end;
  let judged = List.map (judge mode fx) records in
  let slices =
    slices ~n_items:(round_len mode (Array.length fx.items)) ~t_start ~t_end judged
  in
  Workload.result ~per_input:false ~setup_times ~rss_mb
    ~settings_json:(settings_json st mode) slices

(* ------------------------------------------------------------------ *)
(* Traced run: half the window with client spans on, half without (the
   ratio is the tracing overhead), server time scraped from /metrics
   around the traced half, then the hit path replayed in-process, layer
   by layer, on the bodies the daemon served. *)

let routes = [ ("solve", "/v1/solve"); ("bracket", "/v1/bracket"); ("frontier", "/v1/frontier") ]

let scrape d =
  Daemon.histogram_sum_count d "prbpd_request_seconds"
  :: List.map
       (fun (_, path) ->
         Daemon.histogram_sum_count d
           (Printf.sprintf "prbpd_route_request_seconds{route=\"%s\"}" path))
       routes

(* mean microseconds of [f] over [reps] calls *)
let us ~reps f =
  let _, dt =
    Util.time (fun () ->
        for _ = 1 to reps do
          ignore (Sys.opaque_identity (f ()))
        done)
  in
  dt /. float_of_int reps *. 1e6

let in_process replies =
  let module Sp = Prbp.Obs.Span in
  let reps = 20 in
  let cache = Prbp.Serve.Cache.create ~capacity:cache_capacity in
  List.iter
    (fun (it, _) ->
      Prbp.Serve.Cache.add cache (it.label ^ "|" ^ Prbp.Dag.hash it.dag) ())
    replies;
  let per f =
    Util.sum (List.map (fun (it, body) -> f it body) replies)
    /. float_of_int (max 1 (List.length replies))
  in
  let layer name f = Sp.with_ ~name (fun () -> per f) in
  let decode_us =
    layer "bench.wire.decode_request" (fun it _ -> us ~reps (fun () -> W.decode_request it.body))
  in
  let hash_us = layer "bench.dag.hash" (fun it _ -> us ~reps (fun () -> Prbp.Dag.hash it.dag)) in
  let canon_us =
    layer "bench.dag.canonical_order" (fun it _ ->
        us ~reps (fun () -> Prbp.Dag.canonical_order it.dag))
  in
  let find_us =
    layer "bench.cache.find" (fun it _ ->
        let key = it.label ^ "|" ^ Prbp.Dag.hash it.dag in
        us ~reps:(reps * 10) (fun () -> Prbp.Serve.Cache.find cache key))
  in
  let encode_us =
    layer "bench.wire.encode_response" (fun it body ->
        match it.kind with
        | W.Solve -> (
            match W.decode_outcome body with
            | Ok o -> us ~reps (fun () -> W.encode_outcome o)
            | Error _ -> 0.)
        | W.Bracket -> (
            match W.decode_bracket body with
            | Ok b -> us ~reps (fun () -> W.encode_bracket b)
            | Error _ -> 0.)
        | W.Frontier -> (
            match W.decode_frontier body with
            | Ok f -> us ~reps (fun () -> W.encode_frontier f)
            | Error _ -> 0.))
  in
  let bytes = per (fun _ body -> float_of_int (String.length body)) in
  (* the certificate check a hit pays, once per served body *)
  Sp.with_ ~name:"bench.verify" (fun () ->
      List.iter (fun (it, body) -> ignore (verify it body)) replies);
  [
    ("dag.hash_us", hash_us);
    ("dag.canonical_order_us", canon_us);
    ("wire.decode_request_us", decode_us);
    ("wire.encode_response_us", encode_us);
    ("wire.response_bytes", bytes);
    ("cache.find_us", find_us);
    ("verify.moves_per_s", Replay.moves_per_s ());
  ]

let trace mode (st : Workload.settings) =
  let module Sp = Prbp.Obs.Span in
  let fx = boot st mode in
  let half = st.seconds /. 2. in
  let s0 = scrape fx.daemon in
  Sp.set_enabled true;
  let gc0 = Gc.quick_stat () in
  let _, _, traced =
    drive fx.daemon ~items:fx.items ~shared:(mode = Miss) ~seconds:half
      ~keep_bodies:(mode = Miss) ~traced:true
  in
  let gc1 = Gc.quick_stat () in
  Sp.set_enabled false;
  let s1 = scrape fx.daemon in
  (* the miss stream continues where the traced half stopped *)
  let rest =
    match mode with
    | Hit -> fx.items
    | Miss ->
        let used = Util.isum (List.map List.length traced) in
        Array.sub fx.items used (Array.length fx.items - used)
  in
  let _, _, plain =
    drive fx.daemon ~items:rest ~shared:(mode = Miss) ~seconds:half ~keep_bodies:false
      ~traced:false
  in
  Daemon.stop fx.daemon;
  let mean_lat rs =
    let l = List.concat_map (List.map (fun rc -> rc.t1 -. rc.t0)) rs in
    if l = [] then 0. else Util.sum l /. float_of_int (List.length l)
  in
  let judged = List.concat (List.map (judge mode fx) traced) in
  let all = List.concat traced in
  let hits = List.length (List.filter (fun rc -> rc.cache = "hit") all) in
  let server_ms (sum0, n0) (sum1, n1) =
    if n1 > n0 then (sum1 -. sum0) /. (n1 -. n0) *. 1e3 else 0.
  in
  let server = List.map2 server_ms s0 s1 in
  (* served replies for the in-process replay: the mix's (every hit
     repeats its warm-up reply), or the first 64 of the miss stream *)
  let replies =
    match mode with
    | Hit -> List.combine (Array.to_list fx.items) (Array.to_list fx.warm)
    | Miss ->
        List.filteri
          (fun i _ -> i < 64)
          (List.filter_map
             (fun rc -> if rc.status = 200 then Some (fx.items.(rc.k), rc.body) else None)
             all)
  in
  let ratio a b = if b > 0. then a /. b else 0. in
  let metrics =
    in_process replies
    @ [
        ("cache.hit_ratio", ratio (float_of_int hits) (float_of_int (List.length all)));
        ("serve.server_ms", List.hd server);
        ("serve.outside_ms", max 0. ((mean_lat traced *. 1e3) -. List.hd server));
      ]
    @ List.map2
        (fun (name, _) ms -> ("serve.route." ^ name ^ ".server_ms", ms))
        routes (List.tl server)
    @ [ ("obs.trace_overhead", ratio (mean_lat traced) (mean_lat plain)) ]
    @ Workload.gc_delta gc0 gc1
  in
  Workload.trace_result ~attempted:(List.length judged)
    ~failed:(List.length (List.filter (fun (_, o) -> not o.Workload.ok) judged))
    ~settings_json:(settings_json st mode) metrics
