(* The observability stack: the monotonic clock, span tracer and
   metrics registry of [Prbp.Obs], their exporters, and the places the
   library publishes into them (engine counters, bracket stage spans,
   telemetry JSON lines). *)
open Test_util
module Clock = Prbp.Obs.Clock
module Span = Prbp.Obs.Span
module Flight = Prbp.Obs.Flight
module Metrics = Prbp.Obs.Metrics
module Json = Prbp.Obs.Json

(* ------------------------------------------------------------------ *)
(* A minimal JSON validator (the tree has no JSON library): accepts
   exactly the RFC 8259 grammar over bytes >= 0x20, which is enough to
   reject every broken escape the exporters could produce. *)

exception Bad

let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else raise Bad in
  let adv () = incr pos in
  let rec ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          adv ();
          ws ()
      | _ -> ()
  in
  let expect c = if peek () <> c then raise Bad else adv () in
  let lit l = String.iter expect l in
  let hex () =
    (match peek () with
    | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
    | _ -> raise Bad);
    adv ()
  in
  let str () =
    expect '"';
    let rec go () =
      let c = peek () in
      adv ();
      match c with
      | '"' -> ()
      | '\\' ->
          (match peek () with
          | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> adv ()
          | 'u' ->
              adv ();
              for _ = 1 to 4 do
                hex ()
              done
          | _ -> raise Bad);
          go ()
      | c when Char.code c < 0x20 -> raise Bad
      | _ -> go ()
    in
    go ()
  in
  let digits () =
    let saw = ref false in
    while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
      saw := true;
      adv ()
    done;
    if not !saw then raise Bad
  in
  let number () =
    if peek () = '-' then adv ();
    digits ();
    if !pos < n && s.[!pos] = '.' then begin
      adv ();
      digits ()
    end;
    if !pos < n && (s.[!pos] = 'e' || s.[!pos] = 'E') then begin
      adv ();
      if !pos < n && (s.[!pos] = '+' || s.[!pos] = '-') then adv ();
      digits ()
    end
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        adv ();
        ws ();
        if peek () = '}' then adv ()
        else
          let rec members () =
            ws ();
            str ();
            ws ();
            expect ':';
            value ();
            ws ();
            match peek () with
            | ',' ->
                adv ();
                members ()
            | '}' -> adv ()
            | _ -> raise Bad
          in
          members ()
    | '[' ->
        adv ();
        ws ();
        if peek () = ']' then adv ()
        else
          let rec elems () =
            value ();
            ws ();
            match peek () with
            | ',' ->
                adv ();
                elems ()
            | ']' -> adv ()
            | _ -> raise Bad
          in
          elems ()
    | '"' -> str ()
    | 't' -> lit "true"
    | 'f' -> lit "false"
    | 'n' -> lit "null"
    | '-' | '0' .. '9' -> number ()
    | _ -> raise Bad
  in
  match
    value ();
    ws ()
  with
  | () -> !pos = n
  | exception Bad -> false

let check_json name s =
  if not (json_valid s) then Alcotest.failf "%s: invalid JSON: %s" name s

(* ------------------------------------------------------------------ *)
(* Harness: every test that flips a global recorder restores it. *)

(* A deterministic clock source: each read advances 1 ms. *)
let fake_source () =
  let t = ref 0. in
  fun () ->
    t := !t +. 0.001;
    !t

let with_tracing ?(fake_clock = false) f =
  if fake_clock then Clock.set_source (Some (fake_source ()));
  Span.reset ();
  Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Span.set_enabled false;
      Span.reset ();
      Clock.set_source None)
    f

let with_metrics f =
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) f

(* ------------------------------------------------------------------ *)
(* Clock. *)

let clock_monotonic () =
  let seq = ref [ 1.0; 2.0; 1.5; 3.0 ] in
  Clock.set_source
    (Some
       (fun () ->
         match !seq with
         | [] -> 10.
         | x :: tl ->
             seq := tl;
             x));
  Fun.protect ~finally:(fun () -> Clock.set_source None) @@ fun () ->
  check_true "first read" (Clock.now () = 1.0);
  check_true "advances" (Clock.now () = 2.0);
  check_true "backwards step latches" (Clock.now () = 2.0);
  check_true "resumes once real time catches up" (Clock.now () = 3.0)

let clock_deadlines () =
  check_true "no deadline never expires"
    (not (Clock.expired (Clock.deadline_of_millis None)));
  check_true "None maps to infinity"
    (Clock.deadline_of_millis None = infinity);
  check_true "past deadline expired" (Clock.expired 0.);
  check_true "elapsed_s non-negative" (Clock.elapsed_s (Clock.now ()) >= 0.)

(* ------------------------------------------------------------------ *)
(* Spans. *)

(* Seeded random span forest: deterministic for a seed, arbitrary
   enough for the nesting properties. *)
let lcg st =
  st := (!st * 48271) mod 0x7fffffff;
  !st

let build_forest seed =
  let st = ref (max 1 seed) in
  let rec node depth =
    Span.with_
      ~name:(Printf.sprintf "n%d" (lcg st mod 7))
      ~attrs:[ ("d", string_of_int depth) ]
      (fun () ->
        Span.add_attr "x" (string_of_int (lcg st mod 100));
        if depth < 3 then
          for _ = 1 to lcg st mod 3 do
            node (depth + 1)
          done)
  in
  for _ = 1 to 3 do
    node 0
  done

let span_well_formed =
  qcase ~count:50 "spans: nesting, durations, ids well-formed"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 100_000))
    (fun seed ->
      with_tracing ~fake_clock:true @@ fun () ->
      build_forest seed;
      let ss = Span.spans () in
      let by_id = Hashtbl.create 64 in
      List.iter (fun s -> Hashtbl.replace by_id s.Span.id s) ss;
      let ids_sorted =
        let rec go = function
          | a :: (b :: _ as tl) -> a.Span.id < b.Span.id && go tl
          | _ -> true
        in
        go ss
      in
      ids_sorted
      && List.for_all
           (fun s ->
             s.Span.t1 >= s.Span.t0
             &&
             if s.Span.parent < 0 then true
             else
               match Hashtbl.find_opt by_id s.Span.parent with
               | None -> false
               | Some p ->
                   (* child interval inside the parent's, and started
                      after it (ids are start-ordered) *)
                   p.Span.t0 <= s.Span.t0 && s.Span.t1 <= p.Span.t1
                   && p.Span.id < s.Span.id)
           ss)

let span_exporters_byte_stable () =
  let run () =
    with_tracing ~fake_clock:true @@ fun () ->
    build_forest 42;
    (Span.to_chrome (), Span.to_text ())
  in
  let c1, t1 = run () in
  let c2, t2 = run () in
  Alcotest.(check string) "chrome export byte-stable" c1 c2;
  Alcotest.(check string) "text export byte-stable" t1 t2;
  check_json "chrome trace" c1;
  check_true "text has two-space child indent"
    (String.length t1 > 0
    && List.exists
         (fun line -> String.length line > 2 && String.sub line 0 2 = "  ")
         (String.split_on_char '\n' t1))

let span_chrome_valid_any_strings =
  qcase ~count:100 "spans: Chrome export is valid JSON for any strings"
    QCheck.(pair printable_string printable_string)
    (fun (name, v) ->
      with_tracing @@ fun () ->
      Span.with_ ~name
        ~attrs:[ ("k\"ey\\", v) ]
        (fun () -> Span.add_attr v name);
      json_valid (Span.to_chrome ()))

let span_disabled_is_transparent () =
  Span.reset ();
  check_false "disabled by default" (Span.enabled ());
  let r = Span.with_ ~name:"ghost" (fun () -> 41 + 1) in
  check_int "result passes through" 42 r;
  Span.add_attr "k" "v";
  check_int "nothing recorded" 0 (List.length (Span.spans ()))

let span_records_on_raise () =
  with_tracing @@ fun () ->
  (try Span.with_ ~name:"boom" (fun () -> failwith "x")
   with Failure _ -> ());
  match Span.spans () with
  | [ s ] -> check_true "span named boom recorded" (s.Span.name = "boom")
  | ss -> Alcotest.failf "expected 1 span, got %d" (List.length ss)

(* ------------------------------------------------------------------ *)
(* Trace contexts: concurrent requests must come out disjoint. *)

let span_context_isolation () =
  with_tracing @@ fun () ->
  let c1 = Span.new_context () and c2 = Span.new_context () in
  check_true "distinct trace ids" (Span.trace_id c1 <> Span.trace_id c2);
  check_true "fresh trace ids are positive"
    (Span.trace_id c1 > 0 && Span.trace_id c2 > 0);
  let work ctx tag =
    Span.with_current ctx (fun () ->
        Span.with_ ~name:(tag ^ ".outer") (fun () ->
            for _ = 1 to 3 do
              Span.with_ ~name:(tag ^ ".inner") (fun () -> ())
            done))
  in
  (* two overlapping "requests", as the daemon's worker domains run
     them *)
  let d1 = Domain.spawn (fun () -> work c1 "a")
  and d2 = Domain.spawn (fun () -> work c2 "b") in
  Domain.join d1;
  Domain.join d2;
  let s1 = Span.context_spans c1 and s2 = Span.context_spans c2 in
  check_int "ctx1 recorded its request" 4 (List.length s1);
  check_int "ctx2 recorded its request" 4 (List.length s2);
  check_int "default context untouched" 0 (List.length (Span.spans ()));
  let ids ss = List.map (fun s -> s.Span.id) ss in
  check_true "span ids restart per context (equal requests, equal ids)"
    (ids s1 = ids s2 && List.mem 0 (ids s1));
  let parents_within ss =
    List.for_all
      (fun s ->
        s.Span.parent = -1
        || List.exists (fun p -> p.Span.id = s.Span.parent) ss)
      ss
  in
  check_true "no cross-request parent links (ctx1)" (parents_within s1);
  check_true "no cross-request parent links (ctx2)" (parents_within s2);
  check_true "ctx1 saw only its own names"
    (List.for_all (fun s -> String.length s.Span.name > 0 && s.Span.name.[0] = 'a') s1);
  check_json "per-context Chrome export" (Span.context_to_chrome c1)

(* ------------------------------------------------------------------ *)
(* Flight recorder. *)

let flight_summary i dur =
  {
    Flight.trace_id = i;
    route = "/v1/solve";
    status = 200;
    cache = (if i mod 2 = 0 then "hit" else "miss");
    t_start = float_of_int i;
    dur_s = dur;
    outcome = "optimal";
  }

let flight_ring_and_slowest () =
  Flight.set_capacity 4;
  Fun.protect ~finally:(fun () -> Flight.set_capacity Flight.default_capacity)
  @@ fun () ->
  check_int "capacity resized" 4 (Flight.capacity ());
  (* request i takes (11-i)/10 s: the earliest are the slowest *)
  for i = 1 to 10 do
    Flight.record
      ~summary:(flight_summary i (float_of_int (11 - i) /. 10.))
      ~spans:[]
  done;
  check_int "seen counts beyond the ring" 10 (Flight.seen ());
  let recent = Flight.recent () in
  check_int "ring keeps only capacity" 4 (List.length recent);
  check_true "recent is newest first"
    (List.map (fun s -> s.Flight.trace_id) recent = [ 10; 9; 8; 7 ]);
  let slow = Flight.slowest () in
  check_true "at most K slow traces" (List.length slow <= Flight.slowest_k);
  let durs = List.map (fun e -> e.Flight.summary.dur_s) slow in
  check_true "slowest first"
    (List.sort (fun a b -> compare b a) durs = durs);
  check_true "the slowest request survived ring eviction"
    (match slow with
    | e :: _ -> e.Flight.summary.trace_id = 1
    | [] -> false)

let flight_chrome_merges_contexts () =
  with_tracing ~fake_clock:true @@ fun () ->
  Flight.reset ();
  Fun.protect ~finally:(fun () -> Flight.reset ()) @@ fun () ->
  let record_request name =
    let ctx = Span.new_context () in
    Span.with_current ctx (fun () -> Span.with_ ~name (fun () -> ()));
    let spans = Span.context_spans ctx in
    Flight.record
      ~summary:(flight_summary (Span.trace_id ctx) 0.5)
      ~spans
  in
  record_request "req.one";
  record_request "req.two";
  let doc = Flight.to_chrome () in
  check_json "merged Chrome document" doc;
  let has sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length doc && (String.sub doc i n = sub || go (i + 1))
    in
    go 0
  in
  check_true "both request traces present" (has "req.one" && has "req.two")

(* ------------------------------------------------------------------ *)
(* Convergence curves. *)

let convergence_fold () =
  let module C = Prbp.Solver.Convergence in
  let conv, _sink = C.recorder () in
  C.observe conv ~t_s:0.1 ~lower:2 ~upper:None;
  C.observe conv ~t_s:0.2 ~lower:4 ~upper:(Some 9);
  (* a looser sighting must not widen the fold *)
  C.observe conv ~t_s:0.3 ~lower:3 ~upper:(Some 12);
  C.observe conv ~t_s:0.4 ~lower:4 ~upper:(Some 7);
  (* no-certificate sightings are ignored *)
  C.observe conv ~t_s:0.5 ~lower:max_int ~upper:None;
  let curve = C.curve conv in
  check_int "non-tightening sightings dropped" 3 (List.length curve);
  check_true "monotone" (C.monotone curve);
  (match C.final curve with
  | Some p ->
      check_int "final lower" 4 p.C.lower;
      check_true "final upper" (p.C.upper = Some 7)
  | None -> Alcotest.fail "no final point");
  check_true "time to width 5" (C.time_to_width curve 5 = Some 0.2);
  check_true "time to width 3" (C.time_to_width curve 3 = Some 0.4);
  check_true "width 0 never reached" (C.time_to_width curve 0 = None)

let convergence_from_solve () =
  let module C = Prbp.Solver.Convergence in
  let conv, sink = C.recorder () in
  let g, _ = Prbp.Graphs.Fig1.full () in
  let outcome = Prbp.Exact_rbp.solve ~telemetry:sink (Prbp.Rbp.config ~r:4 ()) g in
  let lo, up = Prbp.Solver.interval outcome in
  let curve = C.curve conv in
  check_true "solve produced a curve" (curve <> []);
  check_true "curve monotone" (C.monotone curve);
  match C.final curve with
  | Some p ->
      check_int "final lower equals the certified interval" lo p.C.lower;
      check_true "final upper equals the certified interval" (p.C.upper = up)
  | None -> Alcotest.fail "no final point"

let convergence_from_bracket () =
  let module C = Prbp.Solver.Convergence in
  let module B = Prbp.Bounds.Bracket in
  let g = (Prbp.Graphs.Fft.make ~m:8).Prbp.Graphs.Fft.dag in
  match B.prbp ~r:4 g with
  | Error e -> Alcotest.failf "bracket failed: %s" e
  | Ok b ->
      check_true "bracket curve non-empty" (b.B.curve <> []);
      check_true "bracket curve monotone" (C.monotone b.B.curve);
      (match C.final b.B.curve with
      | Some p ->
          check_int "final lower = bracket lower"
            b.B.lower.Prbp.Bounds.Lower.bound p.C.lower;
          check_true "final upper = bracket upper" (p.C.upper = Some b.B.upper)
      | None -> Alcotest.fail "no final point")

(* ------------------------------------------------------------------ *)
(* Metrics. *)

let metrics_counter_basics () =
  let c = Metrics.counter "test_obs_counter_basics" in
  let v0 = Metrics.Counter.value c in
  Metrics.Counter.incr c;
  check_int "disabled incr is a no-op" v0 (Metrics.Counter.value c);
  (with_metrics @@ fun () ->
   Metrics.Counter.incr c;
   Metrics.Counter.add c 4;
   check_int "incr + add" (v0 + 5) (Metrics.Counter.value c);
   check_true "negative add rejected"
     (match Metrics.Counter.add c (-1) with
     | () -> false
     | exception Invalid_argument _ -> true));
  let c' = Metrics.counter "test_obs_counter_basics" in
  check_int "re-registration returns the same instrument" (v0 + 5)
    (Metrics.Counter.value c')

let metrics_kind_and_name_checks () =
  let _ = Metrics.counter "test_obs_kind_clash" in
  check_true "kind mismatch rejected"
    (match Metrics.gauge "test_obs_kind_clash" with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_true "bad name rejected"
    (match Metrics.counter "0bad name" with
    | _ -> false
    | exception Invalid_argument _ -> true)

let metrics_gauge_and_histogram () =
  with_metrics @@ fun () ->
  let g = Metrics.gauge "test_obs_gauge" in
  Metrics.Gauge.set g 2.5;
  Metrics.Gauge.max_ g 1.0;
  check_true "max_ below keeps value" (Metrics.Gauge.value g = 2.5);
  Metrics.Gauge.max_ g 7.0;
  check_true "max_ above raises value" (Metrics.Gauge.value g = 7.0);
  let h = Metrics.histogram ~labels:[ ("l", "a") ] "test_obs_hist_seconds" in
  List.iter (Metrics.Histogram.observe h) [ 0.5; 3.0; 100.; 0. ];
  check_int "histogram count" 4 (Metrics.Histogram.count h);
  check_true "histogram sum" (abs_float (Metrics.Histogram.sum h -. 103.5) < 1e-9)

let metrics_exporters () =
  with_metrics @@ fun () ->
  let c = Metrics.counter ~help:"hits" "test_obs_export_total" in
  Metrics.Counter.add c 3;
  let h = Metrics.histogram "test_obs_export_seconds" in
  Metrics.Histogram.observe h 0.25;
  let prom = Metrics.to_prometheus () in
  let has sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length prom && (String.sub prom i n = sub || go (i + 1))
    in
    go 0
  in
  check_true "counter family present" (has "# TYPE test_obs_export_total counter");
  check_true "help line present" (has "# HELP test_obs_export_total hits");
  check_true "histogram +Inf bucket"
    (has "test_obs_export_seconds_bucket{le=\"+Inf\"}");
  check_true "histogram count sample" (has "test_obs_export_seconds_count");
  check_json "metrics JSON snapshot" (Metrics.to_json ())

let metrics_histogram_snapshot_order () =
  with_metrics @@ fun () ->
  let h = Metrics.histogram "test_obs_snapshot_seconds" in
  List.iter (Metrics.Histogram.observe h) [ 0.001; 0.2; 5.0; 99.0 ];
  let buckets, count, sum = Metrics.Histogram.snapshot h in
  check_int "count" 4 count;
  check_true "sum" (abs_float (sum -. 104.201) < 1e-9);
  let les = List.map fst buckets in
  check_true "bucket bounds strictly ascending"
    (List.sort_uniq compare les = les);
  let counts = List.map snd buckets in
  check_true "cumulative counts non-decreasing"
    (List.sort compare counts = counts);
  check_true "last finite bucket holds every observation"
    (match List.rev buckets with
    | (_, c) :: _ -> c = count
    | [] -> false)

(* The Prometheus exposition of one histogram family, byte for byte:
   buckets in ascending [le] order, +Inf equal to _count.  Values land
   in the two lowest power-of-two buckets so the golden stays short. *)
let metrics_prometheus_histogram_golden () =
  with_metrics @@ fun () ->
  let h = Metrics.histogram ~help:"golden" "test_obs_golden_seconds" in
  List.iter (Metrics.Histogram.observe h) [ 0.; 3e-10 ];
  let family () =
    let keep line =
      let sub = "test_obs_golden_seconds" in
      let n = String.length sub in
      let rec go i =
        i + n <= String.length line
        && (String.sub line i n = sub || go (i + 1))
      in
      go 0
    in
    String.concat "\n"
      (List.filter keep (String.split_on_char '\n' (Metrics.to_prometheus ())))
  in
  let got = family () in
  Alcotest.(check string) "byte-stable across exports" got (family ());
  Alcotest.(check string) "golden exposition"
    "# HELP test_obs_golden_seconds golden\n\
     # TYPE test_obs_golden_seconds histogram\n\
     test_obs_golden_seconds_bucket{le=\"2.32831e-10\"} 1\n\
     test_obs_golden_seconds_bucket{le=\"4.65661e-10\"} 2\n\
     test_obs_golden_seconds_bucket{le=\"+Inf\"} 2\n\
     test_obs_golden_seconds_sum 3e-10\n\
     test_obs_golden_seconds_count 2"
    got

(* ------------------------------------------------------------------ *)
(* Telemetry JSON lines (the [%S]-escaping fix). *)

let dummy_progress : Prbp.Solver.Telemetry.progress =
  {
    expansions = 1;
    explored = 2;
    pruned = 3;
    frontier = 4;
    depth = 5;
    table_load = 0.5;
    elapsed_s = 0.25;
    lower = 6;
    upper = Some 9;
  }

let telemetry_lines_are_json =
  qcase ~count:100 "Wire.encode_event: every event line parses as JSON"
    QCheck.printable_string
    (fun outcome ->
      List.for_all
        (fun ev -> json_valid (Prbp.Wire.encode_event ev))
        [
          Prbp.Solver.Telemetry.Start { width = 3; max_states = 10 };
          Prbp.Solver.Telemetry.Progress dummy_progress;
          Prbp.Solver.Telemetry.Prune { pruned = 7 };
          Prbp.Solver.Telemetry.Stop { outcome; progress = dummy_progress };
        ])

(* ------------------------------------------------------------------ *)
(* Integration: what the solver and bracket layers publish. *)

let engine_counter_matches_stats () =
  let c = Metrics.counter "prbp_engine_expansions_total" in
  let s = Metrics.counter "prbp_engine_solves_total" in
  with_metrics @@ fun () ->
  let c0 = Metrics.Counter.value c and s0 = Metrics.Counter.value s in
  let g, _ = Prbp.Graphs.Fig1.full () in
  let outcome = Prbp.Exact_prbp.solve (Prbp.Prbp_game.config ~r:4 ()) g in
  let stats = Prbp.Solver.stats_of outcome in
  check_int "expansions counter delta = stats.expansions"
    stats.Prbp.Solver.expansions
    (Metrics.Counter.value c - c0);
  check_int "one solve recorded" 1 (Metrics.Counter.value s - s0)

let engine_solve_span () =
  with_tracing @@ fun () ->
  let g, _ = Prbp.Graphs.Fig1.full () in
  ignore (Prbp.Exact_rbp.solve (Prbp.Rbp.config ~r:4 ()) g);
  match
    List.find_opt (fun s -> s.Span.name = "solve.rbp") (Span.spans ())
  with
  | None -> Alcotest.fail "no solve.rbp span recorded"
  | Some s ->
      check_true "outcome attr" (List.mem_assoc "outcome" s.Span.attrs);
      check_true "expansions attr" (List.mem_assoc "expansions" s.Span.attrs)

let bracket_stage_spans () =
  with_tracing @@ fun () ->
  let g = (Prbp.Graphs.Fft.make ~m:8).Prbp.Graphs.Fft.dag in
  (match Prbp.Bounds.Bracket.rbp ~r:4 g with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "bracket failed: %s" e);
  let ss = Span.spans () in
  let find n = List.find_opt (fun s -> s.Span.name = n) ss in
  match (find "bracket", find "bracket.lower", find "bracket.upper") with
  | Some b, Some lo, Some up ->
      let dur s = s.Span.t1 -. s.Span.t0 in
      check_true "lower stage nests in bracket" (lo.Span.parent = b.Span.id);
      check_true "upper stage nests in bracket" (up.Span.parent = b.Span.id);
      let stage_sum =
        List.fold_left
          (fun acc n -> match find n with Some s -> acc +. dur s | None -> acc)
          0.
          [ "bracket.lower"; "bracket.upper"; "bracket.profile" ]
      in
      check_true "stages sum within the bracket span"
        (stage_sum <= dur b +. 1e-6);
      check_true "outcome attr on bracket"
        (List.mem_assoc "outcome" b.Span.attrs)
  | _ -> Alcotest.fail "missing bracket/stage spans"

(* the candidate spans show where the upper bound moved: on fft:16
   PRBP r=4, belady, banded1 and banded2 each became the incumbent *)
let bracket_improvement_spans () =
  with_tracing @@ fun () ->
  let g = (Prbp.Graphs.Fft.make ~m:16).Prbp.Graphs.Fft.dag in
  (match Prbp.Bounds.Bracket.prbp ~r:4 g with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "bracket failed: %s" e);
  let improved =
    List.filter
      (fun s -> List.assoc_opt "improved" s.Span.attrs = Some "true")
      (Span.spans ())
    |> List.sort (fun a b -> compare a.Span.id b.Span.id)
  in
  let attr s k = Option.value ~default:"?" (List.assoc_opt k s.Span.attrs) in
  Alcotest.(check (list string))
    "three improving candidates, with their verified costs"
    [ "belady:160"; "banded1:120"; "banded2:112" ]
    (List.map (fun s -> attr s "method" ^ ":" ^ attr s "cost") improved)

let bracket_stage_metric () =
  with_metrics @@ fun () ->
  let h =
    Metrics.histogram ~labels:[ ("stage", "lower") ]
      "prbp_bracket_stage_seconds"
  in
  let n0 = Metrics.Histogram.count h in
  let g = (Prbp.Graphs.Fft.make ~m:8).Prbp.Graphs.Fft.dag in
  (match Prbp.Bounds.Bracket.prbp ~r:4 g with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "bracket failed: %s" e);
  check_int "one lower-stage observation" 1 (Metrics.Histogram.count h - n0)

let suite =
  [
    ( "obs",
      [
        case "clock: backwards source step never rewinds now()"
          clock_monotonic;
        case "clock: deadline helpers" clock_deadlines;
        span_well_formed;
        case "span: exporters byte-stable under a fake clock"
          span_exporters_byte_stable;
        span_chrome_valid_any_strings;
        case "span: disabled tracer is transparent"
          span_disabled_is_transparent;
        case "span: recorded even when the body raises"
          span_records_on_raise;
        case "span: concurrent contexts stay disjoint"
          span_context_isolation;
        case "flight: ring eviction keeps the slowest traces"
          flight_ring_and_slowest;
        case "flight: Chrome export merges request traces"
          flight_chrome_merges_contexts;
        case "convergence: monotone fold of sightings" convergence_fold;
        case "convergence: solve curve ends at the certified interval"
          convergence_from_solve;
        case "convergence: bracket curve ends at the certified bracket"
          convergence_from_bracket;
        case "metrics: counter gating, dedup, monotonicity"
          metrics_counter_basics;
        case "metrics: kind and name validation" metrics_kind_and_name_checks;
        case "metrics: gauge high-water mark and histogram buckets"
          metrics_gauge_and_histogram;
        case "metrics: Prometheus and JSON exporters" metrics_exporters;
        case "metrics: histogram snapshot is ascending and consistent"
          metrics_histogram_snapshot_order;
        case "metrics: Prometheus histogram golden (ascending buckets)"
          metrics_prometheus_histogram_golden;
        telemetry_lines_are_json;
        case "engine: registry counters match solve stats"
          engine_counter_matches_stats;
        case "engine: solve span carries terminal telemetry"
          engine_solve_span;
        case "bracket: stage spans nest and sum within the run"
          bracket_stage_spans;
        case "bracket: candidate spans mark each improvement"
          bracket_improvement_spans;
        case "bracket: stage histogram observed per run" bracket_stage_metric;
      ] );
  ]
