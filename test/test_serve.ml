(* The prbpd service stack: pool admission control, LRU cache
   mechanics, HTTP parsing, and the live daemon on a fixed port —
   cache hits byte-identical and re-verified, deadline → Bounded over
   the wire, 503 at capacity, concurrent clients. *)

open Test_util
module Wire = Prbp.Wire
module Serve = Prbp.Serve
module Dag = Prbp.Dag

(* writing to a peer that already hung up must not kill the test
   process (the daemon binary ignores SIGPIPE the same way) *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* ------------------------------------------------------------------ *)
(* Pool: bounded admission *)

let test_pool_admission () =
  let pool = Serve.Pool.create ~workers:2 ~queue:1 in
  let gate = Mutex.create () in
  let release = Condition.create () in
  let released = ref false in
  let done_count = Atomic.make 0 in
  let blocking_job () =
    Mutex.lock gate;
    while not !released do
      Condition.wait release gate
    done;
    Mutex.unlock gate;
    Atomic.incr done_count
  in
  (* 2 workers + queue 1 = 3 admissible blocking jobs *)
  check_true "job 1 admitted" (Serve.Pool.submit pool blocking_job);
  check_true "job 2 admitted" (Serve.Pool.submit pool blocking_job);
  (* wait for both workers to pick their job up (queue drains to 0) *)
  let rec settle tries =
    if Serve.Pool.busy pool < 2 && tries > 0 then begin
      Unix.sleepf 0.01;
      settle (tries - 1)
    end
  in
  settle 300;
  check_int "both workers busy" 2 (Serve.Pool.busy pool);
  check_true "job 3 queues" (Serve.Pool.submit pool blocking_job);
  check_false "job 4 refused: queue full"
    (Serve.Pool.submit pool blocking_job);
  Mutex.lock gate;
  released := true;
  Condition.broadcast release;
  Mutex.unlock gate;
  Serve.Pool.shutdown pool;
  check_int "all admitted jobs ran" 3 (Atomic.get done_count);
  check_false "no submits after shutdown" (Serve.Pool.submit pool ignore)

let test_pool_survives_raising_jobs () =
  let pool = Serve.Pool.create ~workers:1 ~queue:8 in
  let ran = Atomic.make 0 in
  check_true "raising job admitted"
    (Serve.Pool.submit pool (fun () -> failwith "boom"));
  check_true "next job admitted"
    (Serve.Pool.submit pool (fun () -> Atomic.incr ran));
  Serve.Pool.shutdown pool;
  check_int "worker survived the raise" 1 (Atomic.get ran);
  check_int "failure counted" 1 (Serve.Pool.failed pool)

(* ------------------------------------------------------------------ *)
(* Cache: LRU contract *)

let test_cache_lru () =
  let c = Serve.Cache.create ~capacity:2 in
  Serve.Cache.add c "a" 1;
  Serve.Cache.add c "b" 2;
  check_true "a present" (Serve.Cache.find c "a" = Some 1);
  (* a is now most recent; inserting c evicts b *)
  Serve.Cache.add c "c" 3;
  check_true "b evicted" (Serve.Cache.find c "b" = None);
  check_true "a survived (recency)" (Serve.Cache.find c "a" = Some 1);
  check_true "c present" (Serve.Cache.find c "c" = Some 3);
  check_int "at capacity" 2 (Serve.Cache.length c);
  Serve.Cache.add c "a" 10;
  check_true "overwrite" (Serve.Cache.find c "a" = Some 10);
  check_int "overwrite keeps size" 2 (Serve.Cache.length c);
  Serve.Cache.remove c "a";
  check_true "removed" (Serve.Cache.find c "a" = None)

(* ------------------------------------------------------------------ *)
(* HTTP: request reader *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with _ -> ());
      try Unix.close b with _ -> ())
    (fun () -> f a b)

let test_http_parse () =
  with_socketpair @@ fun client server ->
  let body = "{\"v\":1}" in
  let raw =
    Printf.sprintf
      "POST /v1/solve HTTP/1.1\r\nHost: x\r\nContent-Type: \
       application/json\r\nContent-Length: %d\r\n\r\n%s"
      (String.length body) body
  in
  let _ = Unix.write_substring client raw 0 (String.length raw) in
  Unix.close client;
  match Serve.Http.read_request server with
  | Error e -> Alcotest.failf "read_request: %s" e
  | Ok rq ->
      Alcotest.(check string) "method" "POST" rq.Serve.Http.meth;
      Alcotest.(check string) "path" "/v1/solve" rq.Serve.Http.path;
      Alcotest.(check string) "body" body rq.Serve.Http.body;
      check_true "header lookup is case-insensitive"
        (Serve.Http.header rq "content-TYPE" = Some "application/json")

let test_http_rejects () =
  with_socketpair (fun client server ->
      let raw = "NONSENSE\r\n\r\n" in
      let _ = Unix.write_substring client raw 0 (String.length raw) in
      Unix.close client;
      check_err "malformed request line" (Serve.Http.read_request server));
  with_socketpair (fun client server ->
      let raw =
        "POST / HTTP/1.1\r\nContent-Length: 999999\r\n\r\nshort"
      in
      let _ = Unix.write_substring client raw 0 (String.length raw) in
      Unix.close client;
      check_err "truncated body" (Serve.Http.read_request server));
  with_socketpair (fun client server ->
      let raw = "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n0123456789" in
      let _ = Unix.write_substring client raw 0 (String.length raw) in
      Unix.close client;
      check_err "body over cap"
        (Serve.Http.read_request ~max_body:4 server))

(* a client that trickles its request one byte at a time is cut off
   by the whole-request deadline, in the head or in the body, instead
   of holding the reader until its last byte.  The fake clock advances
   1 s per read, so the deadline passes after about
   [request_deadline_s] reads; the writer would need 2000. *)
let test_http_trickle_deadline () =
  List.iter
    (fun (what, prefix) ->
      with_socketpair @@ fun client server ->
      let stop = Atomic.make false in
      let writer =
        Domain.spawn (fun () ->
            let raw = prefix ^ String.make 2000 'a' in
            Unix.write_substring client prefix 0 (String.length prefix)
            |> ignore;
            let i = ref (String.length prefix) in
            while (not (Atomic.get stop)) && !i < String.length raw do
              ignore (Unix.write_substring client raw !i 1);
              incr i;
              Unix.sleepf 0.001
            done;
            (* end of input, so a reader without the deadline fails too *)
            Unix.shutdown client Unix.SHUTDOWN_SEND;
            !i - String.length prefix)
      in
      let t = ref 0. in
      Prbp.Obs.Clock.set_source
        (Some
           (fun () ->
             t := !t +. 1.;
             !t));
      let result =
        Fun.protect
          ~finally:(fun () ->
            Atomic.set stop true;
            Prbp.Obs.Clock.set_source None)
          (fun () -> Serve.Http.read_request server)
      in
      let sent = Domain.join writer in
      (match result with
      | Ok _ -> Alcotest.failf "%s: an unfinished request was accepted" what
      | Error e ->
          Alcotest.(check string)
            (what ^ ": deadline error")
            (Printf.sprintf "request not received within %.0f s"
               Serve.Http.request_deadline_s)
            e);
      check_true (what ^ ": cut off long before the end") (sent < 2000))
    [
      ("head", "GET / HTTP/1.1\r\nX-Pad: ");
      ("body", "POST / HTTP/1.1\r\nContent-Length: 2000\r\n\r\n");
    ]

(* ------------------------------------------------------------------ *)
(* Live server plumbing *)

let next_port = ref 18390

let with_server ?(workers = 2) ?(queue = 16) f =
  incr next_port;
  let port = !next_port in
  let cfg =
    {
      Serve.Server.default_config with
      addr = Serve.Server.Tcp ("127.0.0.1", port);
      workers;
      queue;
      max_deadline_ms = 10_000;
    }
  in
  let stop = Atomic.make false in
  let d = Domain.spawn (fun () -> Serve.Server.run ~stop cfg) in
  let connect () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
    with
    | () -> Some fd
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        None
  in
  (* wait for the listener, with a full /healthz round trip: a
     connect-and-close probe would still be in a worker's hands when
     the test's first real request arrives and steal its pool slot *)
  let rec ready tries =
    let ok =
      match connect () with
      | None -> false
      | Some fd ->
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with _ -> ())
            (fun () ->
              let probe = "GET /healthz HTTP/1.1\r\nHost: p\r\n\r\n" in
              (try
                 ignore (Unix.write_substring fd probe 0 (String.length probe))
               with Unix.Unix_error _ -> ());
              let buf = Bytes.create 256 in
              match Unix.read fd buf 0 256 with
              | 0 -> false
              | _ -> true
              | exception Unix.Unix_error _ -> false)
    in
    ok
    ||
    if tries = 0 then false
    else begin
      Unix.sleepf 0.02;
      ready (tries - 1)
    end
  in
  if not (ready 250) then Alcotest.fail "server did not come up";
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join d)
    (fun () -> f port)

let read_all fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 8192 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
        (* a refused connection may be torn down hard; keep whatever
           response bytes already arrived *)
        Buffer.contents buf
  in
  go ()

type reply = { status : int; headers : (string * string) list; body : string }

let split_head raw =
  match String.index_opt raw '\r' with
  | None -> Alcotest.failf "no status line in %S" raw
  | Some _ -> (
      let rec find_sep i =
        if i + 4 > String.length raw then None
        else if String.sub raw i 4 = "\r\n\r\n" then Some i
        else find_sep (i + 1)
      in
      match find_sep 0 with
      | None -> Alcotest.failf "no header/body separator in %S" raw
      | Some i ->
          (String.sub raw 0 i, String.sub raw (i + 4) (String.length raw - i - 4)))

(* reassemble a chunked body: size-line CRLF data CRLF ... 0 CRLF CRLF.
   Broken framing fails the test rather than passing as a short body. *)
let dechunk body =
  let b = Buffer.create (String.length body) in
  let len = String.length body in
  let rec go pos =
    let size_line, data =
      match String.index_from_opt body pos '\r' with
      | Some i -> (String.sub body pos (i - pos), i + 2)
      | None -> Alcotest.failf "chunked body: no chunk-size line in %S" body
    in
    match int_of_string_opt ("0x" ^ size_line) with
    | None -> Alcotest.failf "chunked body: bad chunk-size line %S" size_line
    | Some 0 ->
        if String.sub body (data - 2) (len - data + 2) <> "\r\n\r\n" then
          Alcotest.failf "chunked body: no terminating 0 CRLF CRLF in %S" body
    | Some size ->
        if data + size + 2 > len || String.sub body (data + size) 2 <> "\r\n"
        then Alcotest.failf "chunked body: truncated chunk in %S" body;
        Buffer.add_string b (String.sub body data size);
        go (data + size + 2)
  in
  go 0;
  Buffer.contents b

let parse_reply raw =
  let head, body = split_head raw in
  match String.split_on_char '\n' head with
  | [] -> Alcotest.fail "empty reply head"
  | status_line :: header_lines ->
      let status =
        match String.split_on_char ' ' (String.trim status_line) with
        | _ :: code :: _ -> int_of_string code
        | _ -> Alcotest.failf "bad status line %S" status_line
      in
      let headers =
        List.filter_map
          (fun line ->
            match String.index_opt line ':' with
            | None -> None
            | Some i ->
                Some
                  ( String.lowercase_ascii (String.trim (String.sub line 0 i)),
                    String.trim
                      (String.sub line (i + 1) (String.length line - i - 1)) ))
          header_lines
      in
      let body =
        if List.assoc_opt "transfer-encoding" headers = Some "chunked" then
          dechunk body
        else body
      in
      { status; headers; body }

let request ~port raw =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let _ = Unix.write_substring fd raw 0 (String.length raw) in
      parse_reply (read_all fd))

let post ~port path body =
  request ~port
    (Printf.sprintf
       "POST %s HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s" path
       (String.length body) body)

let get ~port path =
  request ~port (Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\n\r\n" path)

let diamond_edges = [ (0, 1); (0, 2); (1, 3); (2, 3) ]

let solve_body ?(game = Wire.Prbp) ?variants ?budget ?want_strategy ?stream
    ~r edges n =
  Wire.encode_request
    (Wire.request ?variants ?budget ?want_strategy ?stream ~kind:Wire.Solve
       ~game ~r (Dag.make ~n edges))

(* ------------------------------------------------------------------ *)
(* Live server: solve, cache, deadline, admission, concurrency *)

let test_serve_solve_and_cache () =
  with_server @@ fun port ->
  let body = solve_body ~r:2 ~want_strategy:true diamond_edges 4 in
  let first = post ~port "/v1/solve" body in
  check_int "status" 200 first.status;
  check_true "first is a miss"
    (List.assoc_opt "x-prbpd-cache" first.headers = Some "miss");
  (match Wire.decode_outcome first.body with
  | Error e -> Alcotest.failf "outcome decode: %s" e
  | Ok o ->
      check_true "optimal" (o.Wire.status = `Optimal);
      check_int "diamond PRBP opt at r=2" 4 o.Wire.lower;
      check_true "strategy present" (o.Wire.strategy <> None));
  let second = post ~port "/v1/solve" body in
  check_true "second is a hit"
    (List.assoc_opt "x-prbpd-cache" second.headers = Some "hit");
  Alcotest.(check string)
    "cache hit returns the byte-identical certificate" first.body second.body;
  (* an isomorphic relabeling shares the entry (content addressing):
     same structure, node ids permuted *)
  let relabeled = [ (3, 2); (3, 1); (2, 0); (1, 0) ] in
  let third =
    post ~port "/v1/solve" (solve_body ~r:2 ~want_strategy:true relabeled 4)
  in
  check_true "relabeled DAG hits too"
    (List.assoc_opt "x-prbpd-cache" third.headers = Some "hit");
  (match Wire.decode_outcome third.body with
  | Error e -> Alcotest.failf "relabeled outcome: %s" e
  | Ok o -> (
      check_int "same optimum" 4 o.Wire.lower;
      (* the translated strategy must replay on the relabeled DAG *)
      match o.Wire.strategy with
      | Some (Wire.Prbp_strategy moves) ->
          let g = Dag.make ~n:4 relabeled in
          check_int "served strategy replays at the served cost" 4
            (prbp_cost ~r:2 g moves)
      | _ -> Alcotest.fail "no strategy served"));
  (* a strategy-less request still hits, body minus the certificate *)
  let lean = post ~port "/v1/solve" (solve_body ~r:2 diamond_edges 4) in
  check_true "lean request hits"
    (List.assoc_opt "x-prbpd-cache" lean.headers = Some "hit");
  match Wire.decode_outcome lean.body with
  | Ok o -> check_true "strategy stripped" (o.Wire.strategy = None)
  | Error e -> Alcotest.failf "lean outcome: %s" e

let test_serve_bracket () =
  with_server @@ fun port ->
  let body =
    Wire.encode_request
      (Wire.request ~want_strategy:true ~kind:Wire.Bracket ~game:Wire.Prbp
         ~r:2
         (Dag.make ~n:4 diamond_edges))
  in
  let first = post ~port "/v1/bracket" body in
  check_int "status" 200 first.status;
  (match Wire.decode_bracket first.body with
  | Error e -> Alcotest.failf "bracket decode: %s" e
  | Ok b ->
      check_true "lower <= upper" (b.Wire.lower <= b.Wire.upper);
      check_true "moves served" (b.Wire.strategy <> None));
  let second = post ~port "/v1/bracket" body in
  check_true "bracket hit"
    (List.assoc_opt "x-prbpd-cache" second.headers = Some "hit");
  Alcotest.(check string) "bracket byte-identical" first.body second.body;
  (* streamed, every verified improvement arrives as a progress event
     ahead of the certificate: on fft:16 PRBP r=4, belady, banded1 and
     banded2 *)
  let fft = (Prbp.Graphs.Fft.make ~m:16).Prbp.Graphs.Fft.dag in
  let streamed =
    post ~port "/v1/bracket"
      (Wire.encode_request
         (Wire.request ~stream:true ~kind:Wire.Bracket ~game:Wire.Prbp ~r:4
            fft))
  in
  let uppers =
    List.filter_map
      (fun l ->
        match Wire.decode_event l with
        | Ok (Prbp.Solver.Telemetry.Progress p) -> p.Prbp.Solver.Telemetry.upper
        | _ -> None)
      (String.split_on_char '\n' streamed.body)
  in
  Alcotest.(check (list int)) "streamed improvements" [ 160; 120; 112 ] uppers

let test_serve_deadline_maps_to_bounded () =
  with_server @@ fun port ->
  (* big enough that 1ms of search cannot finish it *)
  let g = (Prbp.Graphs.Random_dag.make ~seed:5 ~max_in_degree:3 ~layers:8 ~width:3 ()) in
  let body =
    Wire.encode_request
      (Wire.request
         ~budget:
           { Wire.max_states = None; max_millis = Some 1; max_words = None }
         ~kind:Wire.Solve ~game:Wire.Prbp ~r:3 g)
  in
  let reply = post ~port "/v1/solve" body in
  check_int "status still 200" 200 reply.status;
  match Wire.decode_outcome reply.body with
  | Error e -> Alcotest.failf "bounded outcome: %s" e
  | Ok o ->
      check_true "deadline maps to a Bounded outcome"
        (o.Wire.status = `Bounded);
      check_true "stop reason is on the wire"
        (o.Wire.stopped = Some "deadline");
      check_true "certified interval survives the wire"
        (match o.Wire.upper with
        | Some u -> o.Wire.lower <= u
        | None -> true)

let test_serve_admission_503 () =
  with_server ~workers:1 ~queue:0 @@ fun port ->
  (* occupy the single worker with a request whose body is half sent:
     it blocks in [Http.read_request] until the rest arrives (or
     [Http.request_deadline_s] passes), so a second request can only be
     refused *)
  let body = solve_body ~r:2 diamond_edges 4 in
  let raw =
    Printf.sprintf
      "POST /v1/solve HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s"
      (String.length body) body
  in
  let held_back = String.length body / 2 in
  let sent = String.length raw - held_back in
  let rec attempt tries =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    let again =
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          ignore (Unix.write_substring fd raw 0 sent);
          let refused = post ~port "/v1/healthz-does-not-matter" "{}" in
          (* connections are accepted in order, so a refusal of the held
             request (the worker still finishing the readiness probe)
             has arrived by now; only then is there anything to read *)
          match Unix.select [ fd ] [] [] 0.1 with
          | _ :: _, _, _ -> true
          | [], _, _ ->
              check_int "over capacity: 503" 503 refused.status;
              check_true "error body is wire-schema"
                (Wire.decode_error refused.body <> None);
              ignore (Unix.write_substring fd raw sent held_back);
              let held = parse_reply (read_all fd) in
              check_int "occupied worker finishes" 200 held.status;
              false)
    in
    if again then
      if tries = 0 then Alcotest.fail "the held request was never admitted"
      else attempt (tries - 1)
  in
  attempt 5

let test_serve_rejections () =
  with_server @@ fun port ->
  check_int "garbage body: 400" 400 (post ~port "/v1/solve" "nonsense").status;
  check_int "unknown route: 404" 404 (post ~port "/v1/nope" "{}").status;
  check_int "bad method: 405"
    405
    (request ~port "PUT /v1/solve HTTP/1.1\r\nHost: t\r\n\r\n").status;
  let mismatched =
    Wire.encode_request
      (Wire.request ~kind:Wire.Bracket ~game:Wire.Prbp ~r:2
         (Dag.make ~n:4 diamond_edges))
  in
  check_int "kind/route mismatch: 400" 400
    (post ~port "/v1/solve" mismatched).status;
  let black =
    Wire.encode_request
      (Wire.request ~kind:Wire.Solve ~game:Wire.Black ~r:2
         (Dag.make ~n:4 diamond_edges))
  in
  check_int "unserved game: 400" 400 (post ~port "/v1/solve" black).status;
  (* a multiprocessor request past the exact engine's p ≤ 8 reach must
     come back as a structured wire error, not a bare string: the code
     field is what lets clients tell misuse from malformed JSON *)
  let out_of_reach =
    Wire.encode_request
      (Wire.request ~kind:Wire.Solve ~game:(Wire.Multi_rbp 9) ~r:2
         (Dag.make ~n:4 diamond_edges))
  in
  let reply = post ~port "/v1/solve" out_of_reach in
  check_int "p=9 multi: 400" 400 reply.status;
  Alcotest.(check (option string))
    "p=9 multi: coded invalid-argument" (Some "invalid-argument")
    (Wire.decode_error_code reply.body);
  (* a DAG beyond the exact solver's size cap must come back as a
     wire-schema 400, never a dropped connection *)
  let huge =
    Wire.encode_request
      (Wire.request ~kind:Wire.Solve ~game:Wire.Prbp ~r:2
         ((Prbp.Graphs.Tree.make ~k:2 ~depth:6).Prbp.Graphs.Tree.dag))
  in
  let reply = post ~port "/v1/solve" huge in
  check_int "oversized DAG: 400" 400 reply.status;
  check_true "solver size cap reported in the body"
    (Wire.decode_error reply.body <> None)

let test_serve_multi_solve () =
  with_server @@ fun port ->
  let body =
    solve_body ~game:(Wire.Multi_prbp 2) ~r:2 ~want_strategy:true
      diamond_edges 4
  in
  let first = post ~port "/v1/solve" body in
  check_int "status" 200 first.status;
  (match Wire.decode_outcome first.body with
  | Error e -> Alcotest.failf "multi outcome decode: %s" e
  | Ok o -> (
      check_true "optimal" (o.Wire.status = `Optimal);
      check_int "diamond PRBP-MC opt at p=2 r=2" 4 o.Wire.lower;
      match o.Wire.strategy with
      | Some (Wire.Multi_prbp_strategy (p, moves)) ->
          check_int "strategy carries p" 2 p;
          let g = Dag.make ~n:4 diamond_edges in
          check_true "served multi strategy replays at the served cost"
            (Prbp.Multi.P.check (Prbp.Multi.config ~p:2 ~r:2 ()) g moves
            = Ok 4)
      | _ -> Alcotest.fail "no multiprocessor strategy served"));
  let second = post ~port "/v1/solve" body in
  check_true "multi certificates cache"
    (List.assoc_opt "x-prbpd-cache" second.headers = Some "hit")

let test_serve_frontier () =
  with_server @@ fun port ->
  let body =
    Wire.encode_request
      (Wire.request ~kind:Wire.Frontier ~game:(Wire.Multi_prbp 2) ~r:2
         ~rs:[ 2; 3 ] ~want_strategy:true
         (Dag.make ~n:4 diamond_edges))
  in
  let first = post ~port "/v1/frontier" body in
  check_int "status" 200 first.status;
  (match Wire.decode_frontier first.body with
  | Error e -> Alcotest.failf "frontier decode: %s" e
  | Ok f ->
      check_true "game echoed" (f.Wire.game = Wire.Multi_prbp 2);
      check_false "small sweep settles" f.Wire.exhausted;
      check_int "two points" 2 (List.length f.Wire.points);
      List.iter
        (fun (pt : Wire.frontier_point) ->
          check_true "settled" pt.Wire.settled;
          check_true "verified" pt.Wire.verified;
          let expected = if pt.Wire.r = 2 then 4 else 2 in
          check_int
            (Printf.sprintf "r=%d comm" pt.Wire.r)
            expected pt.Wire.comm_lower;
          check_true "closed interval"
            (pt.Wire.comm_upper = Some pt.Wire.comm_lower);
          (* the served witness replays on the requested DAG *)
          match pt.Wire.strategy with
          | Some (Wire.Multi_prbp_strategy (p, moves)) ->
              let g = Dag.make ~n:4 diamond_edges in
              check_true "frontier witness replays"
                (Prbp.Multi.P.check (Prbp.Multi.config ~p ~r:pt.Wire.r ()) g
                   moves
                = Ok expected)
          | _ -> Alcotest.fail "frontier point served without witness")
        f.Wire.points);
  let second = post ~port "/v1/frontier" body in
  check_true "settled fronts cache"
    (List.assoc_opt "x-prbpd-cache" second.headers = Some "hit");
  Alcotest.(check string)
    "cache hit returns the byte-identical front" first.body second.body;
  (* single-processor games have no frontier; the refusal is coded *)
  let bad =
    Wire.encode_request
      (Wire.request ~kind:Wire.Frontier ~game:Wire.Prbp ~r:2
         (Dag.make ~n:4 diamond_edges))
  in
  let reply = post ~port "/v1/frontier" bad in
  check_int "non-multi frontier: 400" 400 reply.status;
  Alcotest.(check (option string))
    "non-multi frontier: coded invalid-argument" (Some "invalid-argument")
    (Wire.decode_error_code reply.body)

let test_serve_stream_and_metrics () =
  with_server @@ fun port ->
  let body =
    solve_body ~r:3 ~stream:true
      [ (0, 1); (0, 2); (1, 3); (2, 3); (1, 4); (2, 4) ]
      5
  in
  let reply = post ~port "/v1/solve" body in
  check_int "stream status" 200 reply.status;
  let lines =
    List.filter (fun l -> String.trim l <> "")
      (String.split_on_char '\n' reply.body)
  in
  check_true "streamed at least start/stop + result" (List.length lines >= 2);
  (* every line but the last is a telemetry event; the last is the outcome *)
  let rec split_last acc = function
    | [] -> Alcotest.fail "empty stream"
    | [ last ] -> (List.rev acc, last)
    | x :: rest -> split_last (x :: acc) rest
  in
  let events, result = split_last [] lines in
  List.iter
    (fun l -> check_ok "telemetry line decodes" (Wire.decode_event l))
    events;
  check_ok "final line is the outcome" (Wire.decode_outcome result);
  let metrics = (get ~port "/metrics").body in
  let has needle =
    let nl = String.length needle and hl = String.length metrics in
    let rec go i = i + nl <= hl && (String.sub metrics i nl = needle || go (i + 1)) in
    go 0
  in
  check_true "requests counter exported" (has "prbpd_requests_total");
  check_true "cache hit counter exported" (has "prbpd_cache_hits_total");
  check_true "cache miss counter exported" (has "prbpd_cache_misses_total");
  check_true "latency histogram exported" (has "prbpd_request_seconds_bucket");
  check_true "per-route histogram exported"
    (has "prbpd_route_request_seconds_bucket");
  match Wire.decode_healthz (get ~port "/healthz").body with
  | Error e -> Alcotest.failf "healthz body is not a wire record: %s" e
  | Ok h ->
      check_int "healthz wire version" Wire.version h.Wire.wire;
      Alcotest.(check string)
        "healthz bench schema" Wire.bench_schema h.Wire.bench;
      check_true "healthz uptime non-negative" (h.Wire.uptime_s >= 0.)

let test_serve_status () =
  with_server @@ fun port ->
  let solve = solve_body ~r:2 ~want_strategy:false diamond_edges 4 in
  check_int "solve ok" 200 (post ~port "/v1/solve" solve).status;
  check_int "repeat solve ok" 200 (post ~port "/v1/solve" solve).status;
  let reply = get ~port "/v1/status" in
  check_int "status 200" 200 reply.status;
  match Wire.decode_status reply.body with
  | Error e -> Alcotest.failf "decode_status: %s" e
  | Ok st ->
      check_true "uptime non-negative" (st.Wire.uptime_s >= 0.);
      check_int "workers reported" 2 st.Wire.workers;
      check_true "requests counted" (st.Wire.requests_total >= 2);
      check_true "the repeat hit the cache" (st.Wire.cache_hits >= 1);
      check_true "solve route latency populated"
        (List.exists
           (fun (rs : Wire.route_stat) ->
             rs.route = "/v1/solve" && rs.count >= 2 && rs.buckets <> [])
           st.Wire.routes);
      check_true "route buckets strictly ascending"
        (List.for_all
           (fun (rs : Wire.route_stat) ->
             let les = List.map fst rs.buckets in
             List.sort_uniq compare les = les)
           st.Wire.routes);
      check_true "recent requests include the solves"
        (List.exists (fun (rq : Wire.req) -> rq.route = "/v1/solve")
           st.Wire.recent);
      check_true "recent requests carry cache and outcome tags"
        (List.exists (fun (rq : Wire.req) -> rq.cache = "hit") st.Wire.recent
        && List.exists
             (fun (rq : Wire.req) -> rq.outcome = "optimal")
             st.Wire.recent);
      check_true "flight accounting sane"
        (st.Wire.flight_seen >= 2 && st.Wire.flight_capacity >= 1)

(* Two overlapping requests must come out as disjoint, well-parented
   traces: per-context span ids (restarting at 0), parent links that
   never cross requests, distinct trace ids. *)
let test_serve_trace_isolation () =
  with_server ~workers:4 @@ fun port ->
  let module Flight = Prbp.Obs.Flight in
  Flight.reset ();
  let bracket r =
    Wire.encode_request
      (Wire.request ~kind:Wire.Bracket ~game:Wire.Rbp ~r
         (Dag.make ~n:4 diamond_edges))
  in
  let d1 = Domain.spawn (fun () -> (post ~port "/v1/bracket" (bracket 3)).status)
  and d2 =
    Domain.spawn (fun () -> (post ~port "/v1/bracket" (bracket 4)).status)
  in
  check_int "first concurrent bracket" 200 (Domain.join d1);
  check_int "second concurrent bracket" 200 (Domain.join d2);
  let entries =
    List.filter
      (fun (e : Flight.entry) -> e.summary.route = "/v1/bracket")
      (Flight.slowest ())
  in
  check_int "both requests retained with spans" 2 (List.length entries);
  (match entries with
  | [ a; b ] ->
      check_true "distinct trace ids"
        (a.Flight.summary.trace_id <> b.Flight.summary.trace_id)
  | _ -> ());
  List.iter
    (fun (e : Flight.entry) ->
      let module Span = Prbp.Obs.Span in
      let ss = e.spans in
      check_true "request recorded spans" (ss <> []);
      check_true "span ids restart at 0 per request"
        (List.exists (fun s -> s.Span.id = 0) ss);
      check_true "parents stay within the request"
        (List.for_all
           (fun s ->
             s.Span.parent = -1
             || List.exists (fun p -> p.Span.id = s.Span.parent) ss)
           ss);
      check_true "root span is the http dispatch"
        (List.exists
           (fun s ->
             s.Span.parent = -1 && s.Span.name = "http POST /v1/bracket")
           ss))
    entries

(* A mix of 12 distinct cache keys: solves and brackets, RBP and PRBP,
   every one asking for its certificate.  RBP items keep r above the
   feasibility threshold (max in-degree + 1); PRBP has no such floor. *)
type mix_item = {
  path : string;
  body : string;
  dag : Dag.t;
  game : Wire.game;
  r : int;
}

let serve_mix () =
  let chain = Dag.make ~n:6 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5) ] in
  let tree = (Prbp.Graphs.Tree.make ~k:2 ~depth:3).Prbp.Graphs.Tree.dag in
  let rand seed =
    Prbp.Graphs.Random_dag.make ~seed ~max_in_degree:2 ~layers:3 ~width:3 ()
  in
  let item kind path game r dag =
    let body =
      Wire.encode_request (Wire.request ~want_strategy:true ~kind ~game ~r dag)
    in
    { path; body; dag; game; r }
  in
  let solve = item Wire.Solve "/v1/solve" in
  let bracket = item Wire.Bracket "/v1/bracket" in
  let diamond = Dag.make ~n:4 diamond_edges in
  [
    solve Wire.Rbp 3 diamond; solve Wire.Prbp 2 diamond;
    solve Wire.Rbp 2 chain; solve Wire.Prbp 2 chain;
    solve Wire.Rbp 3 tree; solve Wire.Prbp 3 tree;
    solve Wire.Prbp 3 (rand 1); solve Wire.Rbp 3 (rand 2);
    bracket Wire.Rbp 3 diamond; bracket Wire.Prbp 2 tree;
    bracket Wire.Prbp 3 (rand 3); bracket Wire.Rbp 4 (rand 4);
  ]

(* The served certificate replays through the literal checker at the
   cost the reply claims. *)
let check_certificate item body =
  let replay = function
    | Some (Wire.Rbp_strategy moves) when item.game = Wire.Rbp ->
        rbp_cost ~r:item.r item.dag moves
    | Some (Wire.Prbp_strategy moves) when item.game = Wire.Prbp ->
        prbp_cost ~r:item.r item.dag moves
    | _ ->
        Alcotest.failf "%s: no %s certificate served" item.path
          (Wire.game_label item.game)
  in
  if item.path = "/v1/solve" then
    match Wire.decode_outcome body with
    | Error e -> Alcotest.failf "outcome decode: %s" e
    | Ok o ->
        check_true "solve is optimal" (o.Wire.status = `Optimal);
        check_int "solve certificate replays at its cost"
          (Option.get o.Wire.upper) (replay o.Wire.strategy)
  else
    match Wire.decode_bracket body with
    | Error e -> Alcotest.failf "bracket decode: %s" e
    | Ok b ->
        check_int "bracket certificate replays at its upper bound"
          b.Wire.upper (replay b.Wire.strategy)

let test_serve_concurrent_clients () =
  with_server ~workers:4 ~queue:64 @@ fun port ->
  let items = Array.of_list (serve_mix ()) in
  (* one miss per item primes the cache with a replayed certificate *)
  let primed =
    Array.map
      (fun item ->
        let reply = post ~port item.path item.body in
        check_int "prime status" 200 reply.status;
        check_true "priming is a miss"
          (List.assoc_opt "x-prbpd-cache" reply.headers = Some "miss");
        check_certificate item reply.body;
        reply.body)
      items
  in
  (* 16 clients x 75 requests, cycling through the mix: every reply a
     200 hit, byte for byte the certificate its priming reply served *)
  let per_client = 75 in
  let clients =
    Array.init 16 (fun c ->
        Domain.spawn (fun () ->
            let bad = ref [] in
            for i = 0 to per_client - 1 do
              let k = (c + i) mod Array.length items in
              let reply = post ~port items.(k).path items.(k).body in
              let cache = List.assoc_opt "x-prbpd-cache" reply.headers in
              if
                reply.status <> 200 || cache <> Some "hit"
                || reply.body <> primed.(k)
              then
                bad :=
                  Printf.sprintf "%s item %d: status %d, cache %s"
                    items.(k).path k reply.status
                    (Option.value cache ~default:"-")
                  :: !bad
            done;
            List.rev !bad))
  in
  match Array.to_list clients |> List.concat_map Domain.join with
  | [] -> ()
  | first :: _ as bad ->
      Alcotest.failf
        "%d of %d replies were not a 200 hit byte-identical to its priming \
         reply; first: %s"
        (List.length bad) (16 * per_client) first

(* ------------------------------------------------------------------ *)
(* One certificate path: every route keys, re-verifies, relabels and
   serves its certificates the same way *)

type served =
  | Outcome of Wire.outcome
  | Bracket of Wire.bracket
  | Front of Wire.frontier

let decode_served kind body =
  let decoded =
    match kind with
    | Wire.Solve -> Result.map (fun o -> Outcome o) (Wire.decode_outcome body)
    | Wire.Bracket ->
        Result.map (fun b -> Bracket b) (Wire.decode_bracket body)
    | Wire.Frontier ->
        Result.map (fun f -> Front f) (Wire.decode_frontier body)
  in
  match decoded with
  | Ok s -> s
  | Error e -> Alcotest.failf "served record does not decode: %s" e

let strip_strategies = function
  | Outcome o -> Outcome { o with Wire.strategy = None }
  | Bracket b -> Bracket { b with Wire.strategy = None }
  | Front f ->
      Front
        {
          f with
          Wire.points =
            List.map
              (fun (pt : Wire.frontier_point) ->
                { pt with Wire.strategy = None })
              f.Wire.points;
        }

(* every certificate a record carries: (r, strategy, claimed cost) *)
let served_witnesses = function
  | Outcome o -> [ (o.Wire.r, o.Wire.strategy, o.Wire.upper) ]
  | Bracket b -> [ (b.Wire.r, b.Wire.strategy, Some b.Wire.upper) ]
  | Front f ->
      List.map
        (fun (pt : Wire.frontier_point) ->
          (pt.Wire.r, pt.Wire.strategy, pt.Wire.comm_upper))
        f.Wire.points

let replay_cost g ~r = function
  | Wire.Rbp_strategy moves -> rbp_cost ~r g moves
  | Wire.Prbp_strategy moves -> prbp_cost ~r g moves
  | Wire.Multi_rbp_strategy (p, moves) -> (
      match Prbp.Multi.R.check (Prbp.Multi.config ~p ~r ()) g moves with
      | Ok c -> c
      | Error e -> Alcotest.failf "invalid RBP-MC pebbling: %s" e)
  | Wire.Multi_prbp_strategy (p, moves) -> (
      match Prbp.Multi.P.check (Prbp.Multi.config ~p ~r ()) g moves with
      | Ok c -> c
      | Error e -> Alcotest.failf "invalid PRBP-MC pebbling: %s" e)

(* every witness is present and replays on [g] at the cost it claims *)
let check_replays what g served =
  List.iter
    (fun (r, strategy, claimed) ->
      match (strategy, claimed) with
      | Some s, Some cost ->
          check_int (what ^ ": witness replays at its claimed cost") cost
            (replay_cost g ~r s)
      | _ -> Alcotest.failf "%s: a witness or its claimed cost is missing" what)
    (served_witnesses served)

let cache_status reply =
  Option.value (List.assoc_opt "x-prbpd-cache" reply.headers) ~default:"-"

let test_serve_certificate_path () =
  with_server @@ fun port ->
  let relabeled = [ (3, 2); (3, 1); (2, 0); (1, 0) ] in
  let diamond = Dag.make ~n:4 diamond_edges
  and relabeled_dag = Dag.make ~n:4 relabeled in
  (* a hit served in canonical labels would replay on neither DAG *)
  List.iter
    (fun g ->
      check_true "canonical order is not the identity"
        (Dag.canonical_order g <> Array.init 4 Fun.id))
    [ diamond; relabeled_dag ];
  let path_of = function
    | Wire.Solve -> "/v1/solve"
    | Wire.Bracket -> "/v1/bracket"
    | Wire.Frontier -> "/v1/frontier"
  in
  List.iter
    (fun (kind, game, r, rs) ->
      let what =
        Printf.sprintf "%s %s r=%d" (path_of kind) (Wire.game_label game) r
      in
      let body ?(want_strategy = true) ?stream dag =
        Wire.encode_request
          (Wire.request ~want_strategy ?stream ?rs ~kind ~game ~r dag)
      in
      let post dag_body = post ~port (path_of kind) dag_body in
      let first = post (body diamond) in
      check_int (what ^ ": first status") 200 first.status;
      Alcotest.(check string) (what ^ ": first is a miss") "miss"
        (cache_status first);
      let missed = decode_served kind first.body in
      check_replays what diamond missed;
      let second = post (body diamond) in
      Alcotest.(check string) (what ^ ": repeat hits") "hit"
        (cache_status second);
      Alcotest.(check string) (what ^ ": hit is byte-identical") first.body
        second.body;
      let moved = post (body relabeled_dag) in
      Alcotest.(check string) (what ^ ": relabeled DAG hits") "hit"
        (cache_status moved);
      check_replays (what ^ " relabeled") relabeled_dag
        (decode_served kind moved.body);
      let lean = post (body ~want_strategy:false diamond) in
      Alcotest.(check string) (what ^ ": strategy-less request hits") "hit"
        (cache_status lean);
      check_true (what ^ ": strategy-less record is the miss's, stripped")
        (decode_served kind lean.body = strip_strategies missed);
      let streamed = post (body ~stream:true diamond) in
      check_int (what ^ ": streamed status") 200 streamed.status;
      Alcotest.(check (option string))
        (what ^ ": streamed is chunked") (Some "chunked")
        (List.assoc_opt "transfer-encoding" streamed.headers);
      Alcotest.(check string) (what ^ ": streamed hits") "hit"
        (cache_status streamed);
      Alcotest.(check string)
        (what ^ ": streamed body is the hit body and a newline")
        (second.body ^ "\n") streamed.body)
    [
      (Wire.Solve, Wire.Rbp, 3, None);
      (Wire.Solve, Wire.Prbp, 2, None);
      (Wire.Solve, Wire.Multi_prbp 2, 2, None);
      (Wire.Bracket, Wire.Rbp, 3, None);
      (Wire.Bracket, Wire.Prbp, 2, None);
      (Wire.Frontier, Wire.Multi_prbp 2, 2, Some [ 2; 3 ]);
    ];
  (* a truncated solve is cached under its budget class: caps in one
     power-of-two class share the entry, the next class misses *)
  let g =
    Prbp.Graphs.Random_dag.make ~seed:5 ~max_in_degree:3 ~layers:8 ~width:3 ()
  in
  let capped states =
    post ~port "/v1/solve"
      (Wire.encode_request
         (Wire.request ~want_strategy:true
            ~budget:
              {
                Wire.max_states = Some states;
                max_millis = None;
                max_words = None;
              }
            ~kind:Wire.Solve ~game:Wire.Prbp ~r:3 g))
  in
  let first = capped 3_000 in
  check_int "capped solve status" 200 first.status;
  Alcotest.(check string) "capped solve is a miss" "miss" (cache_status first);
  (match decode_served Wire.Solve first.body with
  | Outcome o ->
      check_true "capped solve is Bounded" (o.Wire.status = `Bounded);
      check_replays "capped solve" g (Outcome o)
  | _ -> Alcotest.fail "capped solve did not decode as an outcome");
  Alcotest.(check string) "same cap hits" "hit" (cache_status (capped 3_000));
  Alcotest.(check string) "cap in the same class hits" "hit"
    (cache_status (capped 4_000));
  Alcotest.(check string) "cap in the next class misses" "miss"
    (cache_status (capped 5_000))

(* A solver that refuses the DAG after the chunked head went out ends
   the stream with one wire error line; misuse is refused before any
   byte is written, streamed or not. *)
let test_serve_streamed_failures () =
  with_server @@ fun port ->
  let path = List.init 39 (fun i -> (i, i + 1)) in
  let streamed = post ~port "/v1/solve" (solve_body ~stream:true ~r:2 path 40) in
  check_int "streamed refusal: status" 200 streamed.status;
  Alcotest.(check (option string))
    "streamed refusal: chunked" (Some "chunked")
    (List.assoc_opt "transfer-encoding" streamed.headers);
  let line =
    match String.split_on_char '\n' streamed.body with
    | [ line; "" ] -> line
    | _ -> Alcotest.failf "streamed refusal: not one line: %S" streamed.body
  in
  Alcotest.(check (option string))
    "streamed refusal: the solver's message"
    (Some "Exact_prbp: at most 31 nodes") (Wire.decode_error line);
  let plain = post ~port "/v1/solve" (solve_body ~r:2 path 40) in
  check_int "unstreamed refusal: 400" 400 plain.status;
  Alcotest.(check string) "unstreamed refusal: same error" line plain.body;
  let black ?stream () =
    post ~port "/v1/solve" (solve_body ~game:Wire.Black ?stream ~r:2 diamond_edges 4)
  in
  let plain = black () and streamed = black ~stream:true () in
  check_int "black: 400" 400 plain.status;
  check_int "streamed black: 400" 400 streamed.status;
  Alcotest.(check string) "streamed black: the unstreamed body" plain.body
    streamed.body

(* A bracket restricted to some lower rules is a different certificate
   from the unrestricted one: the rule set joins the cache key, in
   sorted, deduplicated form. *)
let test_serve_rules_key_the_cache () =
  with_server @@ fun port ->
  let g = Prbp.Graphs.Basic.pyramid 3 in
  let bracket ?rules () =
    post ~port "/v1/bracket"
      (Wire.encode_request
         (Wire.request ~want_strategy:true ?rules ~kind:Wire.Bracket
            ~game:Wire.Prbp ~r:2 g))
  in
  let rule_labels (reply : reply) =
    match decode_served Wire.Bracket reply.body with
    | Bracket b -> List.map fst b.Wire.rules
    | _ -> Alcotest.fail "bracket did not decode"
  in
  let restricted = bracket ~rules:[ "trivial" ] () in
  check_int "restricted: status" 200 restricted.status;
  Alcotest.(check string) "restricted: miss" "miss" (cache_status restricted);
  Alcotest.(check (list string)) "restricted: only trivial ran" [ "trivial" ]
    (rule_labels restricted);
  let full = bracket () in
  Alcotest.(check string) "unrestricted: miss" "miss" (cache_status full);
  check_true "unrestricted: more than trivial ran"
    (List.length (rule_labels full) > 1);
  let repeated = bracket ~rules:[ "trivial"; "trivial" ] () in
  Alcotest.(check string) "same rule set, repeated name: hit" "hit"
    (cache_status repeated);
  Alcotest.(check string) "hit is the restricted miss" restricted.body
    repeated.body;
  List.iter
    (fun (what, (reply : reply)) ->
      check_replays what g (decode_served Wire.Bracket reply.body))
    [ ("restricted", restricted); ("unrestricted", full); ("repeated", repeated) ]

(* An unregistered rule name is misuse: a coded 400 before the cache is
   consulted or a byte is written, streamed or not, and nothing is
   cached for it. *)
let test_serve_unknown_rule () =
  with_server @@ fun port ->
  let g = Dag.make ~n:4 diamond_edges in
  let bracket ?rules ?stream () =
    post ~port "/v1/bracket"
      (Wire.encode_request
         (Wire.request ?rules ?stream ~kind:Wire.Bracket ~game:Wire.Rbp ~r:3 g))
  in
  let message =
    Printf.sprintf "unknown lower rule %S (registered: %s)" "no-such-rule"
      (String.concat ", " (Prbp.Bounds.Lower.names ()))
  in
  List.iter
    (fun (what, (reply : reply)) ->
      check_int (what ^ ": 400") 400 reply.status;
      Alcotest.(check (option string))
        (what ^ ": coded invalid-argument") (Some "invalid-argument")
        (Wire.decode_error_code reply.body);
      Alcotest.(check (option string))
        (what ^ ": the rule check's message") (Some message)
        (Wire.decode_error reply.body);
      Alcotest.(check (option string))
        (what ^ ": not chunked") None
        (List.assoc_opt "transfer-encoding" reply.headers))
    [
      ("plain", bracket ~rules:[ "no-such-rule" ] ());
      ("streamed", bracket ~rules:[ "trivial"; "no-such-rule" ] ~stream:true ());
    ];
  let valid = bracket () in
  check_int "valid request: 200" 200 valid.status;
  Alcotest.(check string) "valid request: miss" "miss" (cache_status valid)

(* A client's family tag is not checked against its DAG, and the cache
   key leaves it out, so no served bound may rest on it: grid(3,3)
   tagged as tree(2,2), whose closed form claims 7 at r = 3, then the
   same grid relabeled and untagged, which hits the first one's cache
   entry.  Both must stay at or below the exact RBP optimum. *)
let test_serve_family_tag_ignored () =
  with_server @@ fun port ->
  let grid = Prbp.Graphs.Basic.grid 3 3 in
  let n = Dag.n_nodes grid in
  let relabeled =
    Dag.make ~n (List.map (fun (u, v) -> (n - 1 - u, n - 1 - v)) (Dag.edges grid))
  in
  let opt = opt_rbp (Prbp.Rbp.config ~r:3 ()) grid in
  let bracket g =
    post ~port "/v1/bracket"
      (Wire.encode_request
         (Wire.request ~want_strategy:true ~kind:Wire.Bracket ~game:Wire.Rbp
            ~r:3 g))
  in
  List.iter
    (fun (what, g, status) ->
      let reply = bracket g in
      check_int (what ^ ": 200") 200 reply.status;
      Alcotest.(check string) (what ^ ": cache") status (cache_status reply);
      match decode_served Wire.Bracket reply.body with
      | Bracket b ->
          check_true
            (Printf.sprintf "%s: lower %d <= OPT %d" what b.Wire.lower opt)
            (b.Wire.lower <= opt);
          check_replays what g (Bracket b)
      | _ -> Alcotest.fail "bracket did not decode")
    [
      ("tagged tree:2:2", Dag.with_family grid (Some "tree:2:2"), "miss");
      ("relabeled, untagged", relabeled, "hit");
    ]

(* Each phase of a certificate request is a span, so the flight
   recorder shows where its time went: a bracket's hit shows every
   phase once and computes nothing, its miss computes and replays
   nothing. *)
let test_serve_phase_spans () =
  with_server @@ fun port ->
  let module Flight = Prbp.Obs.Flight in
  let module Span = Prbp.Obs.Span in
  Flight.reset ();
  let body =
    Wire.encode_request
      (Wire.request ~want_strategy:true ~kind:Wire.Bracket ~game:Wire.Rbp ~r:3
         (Dag.make ~n:4 diamond_edges))
  in
  List.iter
    (fun want ->
      let reply = post ~port "/v1/bracket" body in
      check_int (want ^ ": 200") 200 reply.status;
      Alcotest.(check string) "cache" want (cache_status reply))
    [ "miss"; "hit" ];
  let phases cache =
    match
      List.find_opt
        (fun (e : Flight.entry) -> e.summary.Flight.cache = cache)
        (Flight.slowest ())
    with
    | Some e -> List.map (fun s -> s.Span.name) e.spans
    | None -> Alcotest.failf "no %s in the flight recorder" cache
  in
  let count name names = List.length (List.filter (( = ) name) names) in
  let hit = phases "hit" and miss = phases "miss" in
  List.iter
    (fun name -> check_int ("hit: one " ^ name) 1 (count name hit))
    [
      "serve.decode"; "serve.canonicalize"; "serve.lookup"; "serve.replay";
      "serve.encode"; "serve.write";
    ];
  check_int "hit: no serve.compute" 0 (count "serve.compute" hit);
  check_int "miss: one serve.compute" 1 (count "serve.compute" miss);
  check_int "miss: no serve.replay" 0 (count "serve.replay" miss)

let suite =
  [
    ( "serve",
      [
        case "pool: bounded admission" test_pool_admission;
        case "pool: survives raising jobs" test_pool_survives_raising_jobs;
        case "cache: LRU contract" test_cache_lru;
        case "http: parses requests" test_http_parse;
        case "http: rejects malformed/oversized" test_http_rejects;
        slow_case "serve: solve, cache hit, content addressing"
          test_serve_solve_and_cache;
        slow_case "serve: bracket certificates" test_serve_bracket;
        slow_case "serve: deadline maps to Bounded"
          test_serve_deadline_maps_to_bounded;
        slow_case "serve: 503 at capacity" test_serve_admission_503;
        slow_case "serve: rejections" test_serve_rejections;
        slow_case "serve: multiprocessor certificates" test_serve_multi_solve;
        slow_case "serve: frontier round-trip" test_serve_frontier;
        slow_case "serve: streaming + metrics" test_serve_stream_and_metrics;
        slow_case "serve: /v1/status live snapshot" test_serve_status;
        slow_case "serve: concurrent traces stay disjoint"
          test_serve_trace_isolation;
        slow_case "serve: concurrent clients" test_serve_concurrent_clients;
        case "http: a trickling client misses the request deadline"
          test_http_trickle_deadline;
        slow_case "serve: one certificate path" test_serve_certificate_path;
        slow_case "serve: streamed failures end cleanly"
          test_serve_streamed_failures;
        slow_case "serve: lower-rule sets key the cache"
          test_serve_rules_key_the_cache;
        slow_case "serve: unknown lower rules are refused"
          test_serve_unknown_rule;
        slow_case "serve: a client's family tag sets no bound"
          test_serve_family_tag_ignored;
        slow_case "serve: each request phase is a span" test_serve_phase_spans;
      ] );
  ]
