(* The versioned wire schema: decode ∘ encode = id on every record
   family, hardened decoding, and the content-addressed canonical form
   behind the prbpd cache (Dag.hash / Serialize.canonical). *)

open Test_util
module Wire = Prbp.Wire
module Json = Prbp.Wire.Json
module Dag = Prbp.Dag

(* ------------------------------------------------------------------ *)
(* Generators *)

let gen_dag_params =
  QCheck.make
    ~print:(fun (seed, layers, width) ->
      Printf.sprintf "seed=%d layers=%d width=%d" seed layers width)
    QCheck.Gen.(triple (int_range 1 100_000) (int_range 2 4) (int_range 1 4))

let dag_of (seed, layers, width) =
  Prbp.Graphs.Random_dag.make ~seed ~layers ~width ~density:0.4
    ~max_in_degree:3 ()

let gen_game =
  QCheck.Gen.(
    oneof
      [
        return Wire.Rbp; return Wire.Prbp; return Wire.Black;
        map (fun p -> Wire.Multi_rbp p) (int_range 1 8);
        map (fun p -> Wire.Multi_prbp p) (int_range 1 8);
      ])

let gen_variants =
  QCheck.Gen.(
    map
      (fun (sliding, recompute, no_delete) ->
        { Wire.sliding; recompute; no_delete })
      (triple bool bool bool))

let gen_budget =
  QCheck.Gen.(
    map
      (fun (s, m, w) ->
        {
          Wire.max_states = Option.map abs s;
          max_millis = Option.map abs m;
          max_words = Option.map abs w;
        })
      (triple (opt int) (opt int) (opt int)))

let gen_request =
  let gen =
    QCheck.Gen.(
      let* params = triple (int_range 1 100_000) (int_range 2 4) (int_range 1 4)
      and* kind = oneofl [ Wire.Solve; Wire.Bracket; Wire.Frontier ]
      and* game = gen_game
      and* r = int_range 0 10
      and* variants = gen_variants
      and* budget = gen_budget
      and* want_strategy = bool
      and* stream = bool
      and* rules = opt (small_list (string_size ~gen:(char_range 'a' 'z') (int_range 1 8)))
      and* rs = opt (small_list (int_range 1 16)) in
      return
        (Wire.request ~variants ~budget ~want_strategy ~stream ?rules ?rs
           ~kind ~game ~r (dag_of params)))
  in
  QCheck.make ~print:Wire.encode_request gen

let gen_rbp_moves =
  QCheck.Gen.(
    small_list
      (oneof
         [
           map (fun v -> Prbp.Move.R.Load (abs v)) small_nat;
           map (fun v -> Prbp.Move.R.Save (abs v)) small_nat;
           map (fun v -> Prbp.Move.R.Compute (abs v)) small_nat;
           map (fun v -> Prbp.Move.R.Delete (abs v)) small_nat;
           map
             (fun (u, v) -> Prbp.Move.R.Slide (abs u, abs v))
             (pair small_nat small_nat);
         ]))

let gen_prbp_moves =
  QCheck.Gen.(
    small_list
      (oneof
         [
           map (fun v -> Prbp.Move.P.Load (abs v)) small_nat;
           map (fun v -> Prbp.Move.P.Save (abs v)) small_nat;
           map
             (fun (u, v) -> Prbp.Move.P.Compute (abs u, abs v))
             (pair small_nat small_nat);
           map (fun v -> Prbp.Move.P.Delete (abs v)) small_nat;
           map (fun v -> Prbp.Move.P.Clear (abs v)) small_nat;
         ]))

let gen_multi_rbp_moves =
  QCheck.Gen.(
    let q = int_range 0 7 in
    small_list
      (oneof
         [
           map
             (fun (q, v) : Prbp.Multi.Move.rbp -> Load (q, abs v))
             (pair q small_nat);
           map
             (fun (q, v) : Prbp.Multi.Move.rbp -> Save (q, abs v))
             (pair q small_nat);
           map
             (fun (q, v) : Prbp.Multi.Move.rbp -> Compute (q, abs v))
             (pair q small_nat);
           map
             (fun (q, v) : Prbp.Multi.Move.rbp -> Delete (q, abs v))
             (pair q small_nat);
         ]))

let gen_multi_prbp_moves =
  QCheck.Gen.(
    let q = int_range 0 7 in
    small_list
      (oneof
         [
           map
             (fun (q, v) : Prbp.Multi.Move.prbp -> Load (q, abs v))
             (pair q small_nat);
           map
             (fun (q, v) : Prbp.Multi.Move.prbp -> Save (q, abs v))
             (pair q small_nat);
           map
             (fun (q, (u, v)) : Prbp.Multi.Move.prbp ->
               Compute (q, (abs u, abs v)))
             (pair q (pair small_nat small_nat));
           map
             (fun (q, v) : Prbp.Multi.Move.prbp -> Delete (q, abs v))
             (pair q small_nat);
         ]))

let gen_strategy =
  QCheck.Gen.(
    oneof
      [
        map (fun ms -> Wire.Rbp_strategy ms) gen_rbp_moves;
        map (fun ms -> Wire.Prbp_strategy ms) gen_prbp_moves;
        map
          (fun (p, ms) -> Wire.Multi_rbp_strategy (p, ms))
          (pair (int_range 1 8) gen_multi_rbp_moves);
        map
          (fun (p, ms) -> Wire.Multi_prbp_strategy (p, ms))
          (pair (int_range 1 8) gen_multi_prbp_moves);
      ])

let gen_stats =
  QCheck.Gen.(
    let* explored = small_nat
    and* pruned = small_nat
    and* expansions = small_nat
    and* frontier = small_nat
    and* elapsed_s = float_bound_inclusive 100.0
    and* mem_words = small_nat
    and* prune_disabled = bool
    and* spilled = small_nat in
    return
      {
        Prbp.Solver.explored;
        pruned;
        expansions;
        frontier;
        elapsed_s;
        mem_words;
        prune_disabled;
        spilled;
      })

let gen_curve =
  QCheck.Gen.(
    small_list
      (let* t_s = float_bound_inclusive 10.0
       and* lower = small_nat
       and* width = opt small_nat in
       return
         {
           Prbp.Solver.Convergence.t_s;
           lower;
           upper = Option.map (fun w -> lower + w) width;
         }))

let gen_outcome =
  let gen =
    QCheck.Gen.(
      let* game = gen_game
      and* r = int_range 0 10
      and* variants = gen_variants
      and* n = small_nat
      and* m = small_nat
      and* status = oneofl [ `Optimal; `Bounded; `Unsolvable ]
      and* lower = small_nat
      and* upper = opt small_nat
      and* stopped = opt (oneofl [ "max-states"; "deadline"; "max-words" ])
      and* strategy = opt gen_strategy
      and* curve = gen_curve
      and* stats = gen_stats in
      return
        {
          Wire.v = Wire.version;
          game;
          r;
          variants;
          dag_hash = "0123456789abcdef0123456789abcdef";
          n;
          m;
          status;
          lower;
          upper;
          stopped;
          strategy;
          curve;
          stats;
        })
  in
  QCheck.make ~print:Wire.encode_outcome gen

let gen_bracket =
  let gen =
    QCheck.Gen.(
      let* family = opt (string_size ~gen:(char_range 'a' 'z') (int_range 1 8))
      and* game = oneofl [ Wire.Rbp; Wire.Prbp ]
      and* r = int_range 1 10
      and* n = small_nat
      and* m = small_nat
      and* lower = small_nat
      and* lower_rule = oneofl [ "trivial"; "source-cut"; "exact-dominator" ]
      and* width = small_nat
      and* upper_rule = oneofl [ "belady"; "belady+opt"; "greedy-edges" ]
      and* verifier = oneofl [ "literal"; "engine" ]
      and* tight = bool
      and* rules =
        small_list (pair (oneofl [ "trivial"; "sink-cut" ]) small_nat)
      and* profile_classes = opt small_nat
      and* strategy = opt gen_strategy
      and* curve = gen_curve
      and* elapsed_s = float_bound_inclusive 10.0 in
      return
        {
          Wire.v = Wire.version;
          family;
          game;
          r;
          n;
          m;
          lower;
          lower_rule;
          upper = lower + width;
          upper_rule;
          verifier;
          tight;
          width;
          rules;
          profile_classes;
          strategy;
          curve;
          elapsed_s;
        })
  in
  QCheck.make ~print:Wire.encode_bracket gen

let gen_frontier =
  let gen =
    QCheck.Gen.(
      let gen_point p =
        let* r = int_range 1 16
        and* comm_lower = small_nat
        and* comm_width = opt small_nat
        and* time_lower = small_nat
        and* time_upper = opt small_nat
        and* status = oneofl [ `Exact; `Bracketed ]
        and* source = oneofl [ "exact"; "exact-truncated"; "pooled:trivial" ]
        and* verified = bool
        and* settled = bool
        and* dominated = bool
        and* strategy =
          opt
            (oneof
               [
                 map
                   (fun ms -> Wire.Multi_rbp_strategy (p, ms))
                   gen_multi_rbp_moves;
                 map
                   (fun ms -> Wire.Multi_prbp_strategy (p, ms))
                   gen_multi_prbp_moves;
               ])
        and* curve = gen_curve in
        return
          {
            Wire.p;
            r;
            comm_lower;
            comm_upper = Option.map (fun w -> comm_lower + w) comm_width;
            time_lower;
            time_upper;
            status;
            source;
            verified;
            settled;
            dominated;
            strategy;
            curve;
          }
      in
      let* p = int_range 1 8 in
      let* family = opt (string_size ~gen:(char_range 'a' 'z') (int_range 1 8))
      and* game =
        oneofl [ Wire.Multi_rbp p; Wire.Multi_prbp p ]
      and* n = small_nat
      and* m = small_nat
      and* model = oneofl [ "unit"; "io2" ]
      and* points = small_list (gen_point p)
      and* infeasible_rs = small_list (int_range 1 8)
      and* exhausted = bool
      and* elapsed_s = float_bound_inclusive 10.0 in
      return
        {
          Wire.v = Wire.version;
          family;
          game;
          dag_hash = "0123456789abcdef0123456789abcdef";
          n;
          m;
          model;
          points;
          infeasible_rs;
          exhausted;
          elapsed_s;
        })
  in
  QCheck.make ~print:Wire.encode_frontier gen

let gen_progress =
  QCheck.Gen.(
    let* expansions = small_nat
    and* explored = small_nat
    and* pruned = small_nat
    and* frontier = small_nat
    and* depth = small_nat
    and* table_load = float_bound_inclusive 1.0
    and* elapsed_s = float_bound_inclusive 100.0
    and* lower = small_nat
    and* upper = opt small_nat in
    return
      {
        Prbp.Solver.Telemetry.expansions;
        explored;
        pruned;
        frontier;
        depth;
        table_load;
        elapsed_s;
        lower;
        upper;
      })

let gen_event =
  let gen =
    QCheck.Gen.(
      oneof
        [
          map
            (fun (width, max_states) ->
              Prbp.Solver.Telemetry.Start { width; max_states })
            (pair small_nat small_nat);
          map (fun p -> Prbp.Solver.Telemetry.Progress p) gen_progress;
          map
            (fun pruned -> Prbp.Solver.Telemetry.Prune { pruned })
            small_nat;
          map
            (fun (outcome, progress) ->
              Prbp.Solver.Telemetry.Stop { outcome; progress })
            (pair (oneofl [ "optimal"; "deadline"; "unsolvable" ]) gen_progress);
        ])
  in
  QCheck.make ~print:Wire.encode_event gen

(* ------------------------------------------------------------------ *)
(* Round trips: decoding an encoder's output must reproduce the value
   (checked as byte-identical re-encoding — the encoders are
   deterministic, so this is equality on the wire image). *)

let roundtrip_request =
  qcase ~count:200 "request: decode ∘ encode = id" gen_request (fun rq ->
      let s = Wire.encode_request rq in
      match Wire.decode_request s with
      | Error e -> QCheck.Test.fail_reportf "decode_request: %s" e
      | Ok rq' -> Wire.encode_request rq' = s)

let roundtrip_outcome =
  qcase ~count:300 "outcome: decode ∘ encode = id" gen_outcome (fun o ->
      let s = Wire.encode_outcome o in
      match Wire.decode_outcome s with
      | Error e -> QCheck.Test.fail_reportf "decode_outcome: %s" e
      | Ok o' -> Wire.encode_outcome o' = s && o' = o)

let roundtrip_bracket =
  qcase ~count:300 "bracket: decode ∘ encode = id" gen_bracket (fun b ->
      let s = Wire.encode_bracket b in
      match Wire.decode_bracket s with
      | Error e -> QCheck.Test.fail_reportf "decode_bracket: %s" e
      | Ok b' -> Wire.encode_bracket b' = s && b' = b)

let roundtrip_frontier =
  qcase ~count:300 "frontier: decode ∘ encode = id" gen_frontier (fun f ->
      let s = Wire.encode_frontier f in
      match Wire.decode_frontier s with
      | Error e -> QCheck.Test.fail_reportf "decode_frontier: %s" e
      | Ok f' -> Wire.encode_frontier f' = s && f' = f)

let roundtrip_event =
  qcase ~count:300 "telemetry: decode ∘ encode = id" gen_event (fun ev ->
      let s = Wire.encode_event ev in
      match Wire.decode_event s with
      | Error e -> QCheck.Test.fail_reportf "decode_event: %s" e
      | Ok ev' -> Wire.encode_event ev' = s && ev' = ev)

let gen_req_summary =
  QCheck.Gen.(
    let* trace_id = small_nat
    and* route = oneofl [ "/v1/solve"; "/v1/bracket"; "/metrics"; "other" ]
    and* status = oneofl [ 200; 400; 404; 503 ]
    and* cache = oneofl [ "hit"; "miss"; "-" ]
    and* dur_s = float_bound_inclusive 10.0
    and* outcome = oneofl [ "optimal"; "bounded"; "-" ] in
    return { Wire.trace_id; route; status; cache; dur_s; outcome })

let gen_status =
  let gen =
    QCheck.Gen.(
      let* uptime_s = float_bound_inclusive 1000.0
      and* workers = int_range 1 8
      and* in_flight = small_nat
      and* queued = small_nat
      and* requests_total = small_nat
      and* cache_hits = small_nat
      and* cache_misses = small_nat
      and* flight_seen = small_nat
      and* flight_capacity = int_range 1 128
      and* routes =
        small_list
          (let* route = oneofl [ "/v1/solve"; "other" ]
           and* count = small_nat
           and* sum_s = float_bound_inclusive 100.0
           and* buckets =
             small_list (pair (float_bound_inclusive 8.0) small_nat)
           in
           return { Wire.route; count; sum_s; buckets })
      and* recent = small_list gen_req_summary
      and* slowest = small_list gen_req_summary in
      return
        (Wire.status_report ~uptime_s ~workers ~in_flight ~queued
           ~requests_total ~cache_hits ~cache_misses ~flight_seen
           ~flight_capacity ~routes ~recent ~slowest ()))
  in
  QCheck.make ~print:Wire.encode_status gen

let roundtrip_status =
  qcase ~count:200 "status: decode ∘ encode = id" gen_status (fun st ->
      let s = Wire.encode_status st in
      match Wire.decode_status s with
      | Error e -> QCheck.Test.fail_reportf "decode_status: %s" e
      | Ok st' -> Wire.encode_status st' = s && st' = st)

let test_healthz_roundtrip () =
  let h = Wire.healthz ~uptime_s:12.5 in
  let s = Wire.encode_healthz h in
  (match Wire.decode_healthz s with
  | Error e -> Alcotest.failf "decode_healthz: %s" e
  | Ok h' ->
      check_true "roundtrip" (h' = h);
      check_int "wire version" Wire.version h'.Wire.wire;
      Alcotest.(check string) "bench schema" Wire.bench_schema h'.Wire.bench);
  check_err "status body is not a healthz"
    (Wire.decode_healthz "{\"v\":1,\"kind\":\"status\"}")

(* Old records (pre-v10) carry no curve and no progress bounds; they
   must still decode, as the weakest certified statement. *)
let test_tolerant_pre_curve_decode () =
  (match
     Wire.decode_event
       "{\"v\":1,\"ev\":\"progress\",\"expansions\":1,\"explored\":2,\
        \"pruned\":3,\"frontier\":4,\"depth\":5,\"table_load\":0.5,\
        \"elapsed_s\":0.25}"
   with
  | Ok (Prbp.Solver.Telemetry.Progress p) ->
      check_int "absent lower decodes as 0" 0 p.Prbp.Solver.Telemetry.lower;
      check_true "absent upper decodes as None"
        (p.Prbp.Solver.Telemetry.upper = None)
  | Ok _ -> Alcotest.fail "expected a progress event"
  | Error e -> Alcotest.failf "pre-curve progress rejected: %s" e);
  let no_curve =
    "{\"v\":1,\"kind\":\"outcome\",\"game\":\"rbp\",\"r\":2,\
     \"variants\":{},\"dag_hash\":\"0123456789abcdef0123456789abcdef\",\
     \"n\":1,\"m\":0,\"status\":\"optimal\",\"lower\":1,\"upper\":1,\
     \"stats\":{\"explored\":1,\"pruned\":0,\"expansions\":1,\
     \"frontier\":0,\"elapsed_s\":0.1,\"mem_words\":0,\
     \"prune_disabled\":false,\"spilled\":0}}"
  in
  match Wire.decode_outcome no_curve with
  | Ok o -> check_true "absent curve decodes as []" (o.Wire.curve = [])
  | Error e -> Alcotest.failf "pre-curve outcome rejected: %s" e

(* ------------------------------------------------------------------ *)
(* Decoder hardening *)

let test_rejects () =
  check_err "garbage" (Wire.decode_request "garbage");
  check_err "empty object" (Wire.decode_request "{}");
  check_err "wrong version"
    (Wire.decode_request
       "{\"v\":2,\"kind\":\"solve\",\"game\":\"rbp\",\"r\":2,\"dag\":{\"nodes\":1,\"edges\":[]}}");
  check_err "unknown game"
    (Wire.decode_request
       "{\"v\":1,\"kind\":\"solve\",\"game\":\"chess\",\"r\":2,\"dag\":{\"nodes\":1,\"edges\":[]}}");
  check_err "negative r"
    (Wire.decode_request
       "{\"v\":1,\"kind\":\"solve\",\"game\":\"rbp\",\"r\":-1,\"dag\":{\"nodes\":1,\"edges\":[]}}");
  check_err "cyclic dag"
    (Wire.decode_request
       "{\"v\":1,\"kind\":\"solve\",\"game\":\"rbp\",\"r\":2,\"dag\":{\"nodes\":2,\"edges\":[[0,1],[1,0]]}}");
  check_err "out-of-range edge"
    (Wire.decode_request
       "{\"v\":1,\"kind\":\"solve\",\"game\":\"rbp\",\"r\":2,\"dag\":{\"nodes\":2,\"edges\":[[0,5]]}}");
  check_err "unknown event" (Wire.decode_event "{\"v\":1,\"ev\":\"nope\"}");
  check_err "bracket with wrong kind"
    (Wire.decode_bracket "{\"v\":1,\"kind\":\"solve\"}");
  check_err "frontier with wrong kind"
    (Wire.decode_frontier "{\"v\":1,\"kind\":\"bracket\"}");
  check_err "rs below 1"
    (Wire.decode_request
       "{\"v\":1,\"kind\":\"frontier\",\"game\":\"multi-rbp:2\",\"r\":2,\"rs\":[0,2],\"dag\":{\"nodes\":1,\"edges\":[]}}")

let test_error_code () =
  (* legacy error bodies are byte-identical when no code is attached *)
  let plain = Wire.encode_error "boom" in
  Alcotest.(check string) "legacy bytes" "{\"v\":1,\"error\":\"boom\"}" plain;
  check_true "error text" (Wire.decode_error plain = Some "boom");
  check_true "no code" (Wire.decode_error_code plain = None);
  let coded = Wire.encode_error ~code:"invalid-argument" "p too large" in
  check_true "coded text" (Wire.decode_error coded = Some "p too large");
  check_true "code"
    (Wire.decode_error_code coded = Some "invalid-argument")

let test_defaults () =
  (* clients may omit variants/budget/flags *)
  match
    Wire.decode_request
      "{\"v\":1,\"kind\":\"solve\",\"game\":\"prbp\",\"r\":3,\"dag\":{\"nodes\":2,\"edges\":[[0,1]]}}"
  with
  | Error e -> Alcotest.failf "minimal request: %s" e
  | Ok rq ->
      check_true "no variants" (rq.Wire.variants = Wire.no_variants);
      check_true "no budget" (rq.Wire.budget = Wire.no_budget);
      check_false "no strategy" rq.Wire.want_strategy;
      check_false "no stream" rq.Wire.stream

let test_json_parser () =
  check_err "trailing garbage" (Json.of_string "{} {}");
  check_err "deep nesting"
    (Json.of_string (String.concat "" (List.init 200 (fun _ -> "["))));
  check_err "lone surrogate" (Json.of_string "\"\\ud800\"");
  check_err "raw control" (Json.of_string "\"a\nb\"");
  (match Json.of_string "\"\\ud83d\\ude00\"" with
  | Ok (Json.String s) -> check_int "surrogate pair decodes" 4 (String.length s)
  | _ -> Alcotest.fail "surrogate pair rejected");
  (match Json.of_string "123456789012345" with
  | Ok (Json.Int i) -> check_int "big int exact" 123456789012345 i
  | _ -> Alcotest.fail "int parsed as float");
  match Json.of_string "1.5e2" with
  | Ok (Json.Float f) -> check_true "float" (f = 150.0)
  | _ -> Alcotest.fail "float literal"

let test_game_labels () =
  List.iter
    (fun g ->
      match Wire.game_of_label (Wire.game_label g) with
      | Ok g' -> check_true "label roundtrip" (g = g')
      | Error e -> Alcotest.failf "game label: %s" e)
    [ Wire.Rbp; Wire.Prbp; Wire.Black; Wire.Multi_rbp 4; Wire.Multi_prbp 7 ];
  check_err "bad multi" (Wire.game_of_label "multi-rbp:zero");
  check_err "empty" (Wire.game_of_label "")

let test_budget_class () =
  let b s m w = { Wire.max_states = s; max_millis = m; max_words = w } in
  check_true "unset caps"
    (Wire.budget_class (b None None None) = "s_:m_:w_");
  (* near-identical budgets share a class; different magnitudes do not *)
  check_true "same bucket"
    (Wire.budget_class (b (Some 1000) None None)
    = Wire.budget_class (b (Some 1024) None None));
  check_true "different bucket"
    (Wire.budget_class (b (Some 1000) None None)
    <> Wire.budget_class (b (Some 100_000) None None))

(* ------------------------------------------------------------------ *)
(* Pinned bytes: one encoding per record kind and shape, compared with
   golden/wire_v1.jsonl line by line.  The round-trip properties above
   hold for any self-consistent format; this pins the v1 format
   itself, so a codec rewrite cannot drift a byte unnoticed. *)

let golden_records () =
  let module M = Prbp.Multi.Move in
  let module T = Prbp.Solver.Telemetry in
  let plain = Dag.make ~n:3 [ (0, 1); (1, 2) ] in
  let named =
    Dag.make
      ~names:[| "a\"b"; "\xc3\xa9"; "tab\t"; "d" |]
      ~family:"diamond" ~n:4
      [ (0, 1); (0, 2); (1, 3); (2, 3) ]
  in
  let all_variants =
    { Wire.sliding = true; recompute = true; no_delete = true }
  in
  let stats =
    {
      Prbp.Solver.explored = 10;
      pruned = 2;
      expansions = 7;
      frontier = 0;
      elapsed_s = 0.125;
      mem_words = 4096;
      prune_disabled = false;
      spilled = 0;
    }
  in
  let curve =
    [
      { Prbp.Solver.Convergence.t_s = 0.0; lower = 1; upper = None };
      { Prbp.Solver.Convergence.t_s = 0.1; lower = 2; upper = Some 3 };
    ]
  in
  let rbp =
    Wire.Rbp_strategy
      Prbp.Move.R.[ Load 0; Compute 1; Slide (1, 2); Save 2; Delete 0 ]
  in
  let prbp =
    Wire.Prbp_strategy
      Prbp.Move.P.[ Load 0; Compute (0, 1); Save 1; Clear 1; Delete 0 ]
  in
  let mrbp =
    Wire.Multi_rbp_strategy
      ( 2,
        [ (M.Load (0, 0) : M.rbp); M.Compute (1, 1); M.Save (1, 1);
          M.Delete (0, 0) ] )
  in
  let mprbp =
    Wire.Multi_prbp_strategy
      ( 2,
        [ (M.Load (1, 0) : M.prbp); M.Compute (1, (0, 1)); M.Save (1, 1);
          M.Delete (1, 0) ] )
  in
  let outcome ?strategy ?(curve = []) ?upper ?stopped
      ?(variants = Wire.no_variants) game status lower =
    Wire.encode_outcome
      {
        Wire.v = Wire.version;
        game;
        r = 3;
        variants;
        dag_hash = "0123456789abcdef0123456789abcdef";
        n = 3;
        m = 2;
        status;
        lower;
        upper;
        stopped;
        strategy;
        stats;
        curve;
      }
  in
  let bracket ?family ?profile_classes ?strategy ?(curve = []) game =
    Wire.encode_bracket
      {
        Wire.v = Wire.version;
        family;
        game;
        r = 4;
        n = 16;
        m = 24;
        lower = 8;
        lower_rule = "trivial";
        upper = 12;
        upper_rule = "banded2";
        verifier = "literal";
        tight = false;
        width = 4;
        rules = [ ("trivial", 8); ("source-cut", 6) ];
        profile_classes;
        strategy;
        curve;
        elapsed_s = 1.5;
      }
  in
  let point ?comm_upper ?time_upper ?strategy ?(curve = []) ~r ~status ~settled
      ~dominated () =
    {
      Wire.p = 2;
      r;
      comm_lower = 4;
      comm_upper;
      time_lower = 9;
      time_upper;
      status;
      source = (if settled then "exact" else "pooled:trivial");
      verified = true;
      settled;
      dominated;
      strategy;
      curve;
    }
  in
  let progress upper =
    {
      T.expansions = 100;
      explored = 150;
      pruned = 3;
      frontier = 12;
      depth = 4;
      table_load = 0.25;
      elapsed_s = 0.5;
      lower = 5;
      upper;
    }
  in
  let req trace_id route =
    { Wire.trace_id; route; status = 200; cache = "hit"; dur_s = 0.25;
      outcome = "optimal" }
  in
  [
    Wire.encode_request
      (Wire.request ~kind:Wire.Solve ~game:Wire.Rbp ~r:2 plain);
    Wire.encode_request
      (Wire.request ~variants:all_variants
         ~budget:
           { Wire.max_states = Some 1000; max_millis = Some 250;
             max_words = Some 1_000_000 }
         ~want_strategy:true ~stream:true ~rules:[ "trivial"; "source-cut" ]
         ~rs:[ 2; 3 ] ~kind:Wire.Frontier ~game:(Wire.Multi_prbp 2) ~r:3 named);
    Wire.encode_request
      (Wire.request
         ~budget:{ Wire.no_budget with max_millis = Some 50 }
         ~rules:[] ~kind:Wire.Bracket ~game:Wire.Prbp ~r:4 plain);
    outcome ~strategy:rbp ~curve ~upper:3
      ~variants:{ Wire.no_variants with sliding = true }
      Wire.Rbp `Optimal 3;
    outcome ~strategy:prbp ~upper:2 Wire.Prbp `Optimal 2;
    outcome ~strategy:mrbp ~curve ~upper:3 ~stopped:"deadline"
      (Wire.Multi_rbp 2) `Bounded 2;
    outcome ~strategy:mprbp ~stopped:"max-states" (Wire.Multi_prbp 2)
      `Bounded 1;
    outcome Wire.Black `Unsolvable 0;
    bracket ~family:"fft:16" ~profile_classes:12 ~strategy:prbp ~curve
      Wire.Prbp;
    bracket Wire.Rbp;
    Wire.encode_frontier
      {
        Wire.v = Wire.version;
        family = Some "fig1";
        game = Wire.Multi_rbp 2;
        dag_hash = "0123456789abcdef0123456789abcdef";
        n = 3;
        m = 2;
        model = "unit";
        points =
          [
            point ~comm_upper:4 ~time_upper:18 ~strategy:mrbp ~curve ~r:3
              ~status:`Exact ~settled:true ~dominated:false ();
            point ~comm_upper:7 ~r:2 ~status:`Bracketed ~settled:false
              ~dominated:true ();
          ];
        infeasible_rs = [ 1 ];
        exhausted = false;
        elapsed_s = 2.0;
      };
    Wire.encode_event (T.Start { width = 3; max_states = 1000 });
    Wire.encode_event (T.Progress (progress (Some 9)));
    Wire.encode_event (T.Prune { pruned = 8 });
    Wire.encode_event
      (T.Stop { outcome = "optimal"; progress = progress None });
    Wire.encode_status
      (Wire.status_report ~uptime_s:12.5 ~workers:2 ~in_flight:1 ~queued:0
         ~requests_total:5 ~cache_hits:3 ~cache_misses:2 ~flight_seen:5
         ~flight_capacity:32
         ~routes:
           [
             { Wire.route = "/v1/solve"; count = 4; sum_s = 0.75;
               buckets = [ (0.001, 1); (0.5, 4) ] };
           ]
         ~recent:[ req 5 "/v1/solve"; req 4 "/v1/bracket" ]
         ~slowest:[ req 4 "/v1/bracket" ]
         ());
    Wire.encode_healthz (Wire.healthz ~uptime_s:12.5);
    Wire.encode_error "boom";
    Wire.encode_error ~code:"invalid-argument" "p \"too\" large";
  ]

(* Each body is one malformed field away from a valid one; [valid]
   holds the unmodified bodies, so a rejection is never an accident of
   the template. *)
let valid, malformed =
  let rq ?(dag = "{\"nodes\":2,\"edges\":[[0,1]]}") ?(game = "rbp") fields =
    `Request
      (Printf.sprintf
         "{\"v\":1,\"kind\":\"solve\",\"game\":%S,%s,\"dag\":%s}" game
         fields dag)
  in
  let outcome ?(status = "optimal") ?(extra = "") () =
    `Outcome
      (Printf.sprintf
         "{\"v\":1,\"game\":\"multi-rbp:2\",\"r\":2,\"dag_hash\":\"x\",\"n\":2,\
          \"m\":1,\"status\":%S,\"lower\":1%s,\"stats\":{\"explored\":1,\
          \"pruned\":0,\"expansions\":1,\"frontier\":0,\"elapsed_s\":0.5,\
          \"mem_words\":0,\"prune_disabled\":false,\"spilled\":0}}"
         status extra)
  in
  let status buckets =
    `Status
      (Printf.sprintf
         "{\"v\":1,\"kind\":\"status\",\"uptime_s\":1.0,\"workers\":1,\
          \"in_flight\":0,\"queued\":0,\"requests_total\":0,\"cache_hits\":0,\
          \"cache_misses\":0,\"flight_seen\":0,\"flight_capacity\":1,\
          \"routes\":[{\"route\":\"/v1/solve\",\"count\":1,\"sum_s\":0.5,\
          \"buckets\":%s}],\"recent\":[],\"slowest\":[]}"
         buckets)
  in
  let move m =
    Printf.sprintf ",\"strategy\":{\"game\":\"multi-rbp:2\",\"moves\":[%s]}" m
  in
  let curve c = Printf.sprintf ",\"curve\":[%s]" c in
  ( [
      rq "\"r\":2,\"rs\":[2,3],\"want_strategy\":true";
      outcome
        ~extra:(move "{\"op\":\"load\",\"q\":0,\"v\":0}" ^ curve "[0.5,1,null]")
        ();
      status "[[0.5,1]]";
    ],
    [
      ("non-integer r", rq "\"r\":1.5");
      ("string r", rq "\"r\":\"2\"");
      ("negative r", rq "\"r\":-1");
      ("negative nodes", rq ~dag:"{\"nodes\":-1,\"edges\":[]}" "\"r\":2");
      ("rs entry below 1", rq "\"r\":2,\"rs\":[2,0]");
      ( "names of the wrong length",
        rq ~dag:"{\"nodes\":2,\"edges\":[[0,1]],\"names\":[\"a\"]}" "\"r\":2" );
      ("null flag", rq "\"r\":2,\"want_strategy\":null");
      ("null variant flag", rq "\"r\":2,\"variants\":{\"sliding\":null}");
      ("unknown game", rq ~game:"go" "\"r\":2");
      ("negative q", outcome ~extra:(move "{\"op\":\"load\",\"q\":-1,\"v\":0}") ());
      ("unknown op", outcome ~extra:(move "{\"op\":\"jump\",\"q\":0,\"v\":0}") ());
      ("unknown status", outcome ~status:"maybe" ());
      ("short curve triple", outcome ~extra:(curve "[0.5,1]") ());
      ("non-integer curve bound", outcome ~extra:(curve "[0.5,\"x\",null]") ());
      ("unknown event", `Event "{\"v\":1,\"ev\":\"nope\"}");
      ("short bucket pair", status "[[0.5]]");
      ("non-integer bucket count", status "[[0.5,1.5]]");
    ] )

let test_golden_bytes () =
  check_golden "wire_v1.jsonl" (golden_records ());
  let rejected = function
    | `Request s -> Result.is_error (Wire.decode_request s)
    | `Outcome s -> Result.is_error (Wire.decode_outcome s)
    | `Event s -> Result.is_error (Wire.decode_event s)
    | `Status s -> Result.is_error (Wire.decode_status s)
  in
  List.iter (fun body -> check_false "unmodified body" (rejected body)) valid;
  List.iter (fun (name, body) -> check_true name (rejected body)) malformed

(* ------------------------------------------------------------------ *)
(* Canonical form + content hash (the prbpd cache key) *)

let permuted g seed =
  (* relabel g by a seeded pseudo-random permutation *)
  let n = Dag.n_nodes g in
  let perm = Array.init n (fun i -> i) in
  let state = ref (seed land 0x3FFFFFFF) in
  let rand bound =
    state := (!state * 1103515245) + 12345;
    (!state lsr 7) mod bound
  in
  for i = n - 1 downto 1 do
    let j = rand (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  Dag.make ~n (List.map (fun (u, v) -> (perm.(u), perm.(v))) (Dag.edges g))

let hash_iso_invariant =
  qcase ~count:100 "Dag.hash: isomorphic relabelings hash identically"
    (QCheck.pair gen_dag_params QCheck.small_nat)
    (fun (params, seed) ->
      let g = dag_of params in
      Dag.hash g = Dag.hash (permuted g seed)
      && Prbp.Serialize.canonical g = Prbp.Serialize.canonical (permuted g seed))

let hash_structure_sensitive =
  qcase ~count:100 "Dag.hash: dropping an edge changes the hash"
    gen_dag_params
    (fun params ->
      let g = dag_of params in
      let edges = Dag.edges g in
      match edges with
      | [] -> QCheck.assume_fail ()
      | _ :: rest ->
          (* removing one edge may strand a node, but node count stays
             in the encoding, so only the structure differs *)
          let g' = Dag.make ~n:(Dag.n_nodes g) rest in
          Dag.hash g <> Dag.hash g')

let order_md5 order =
  Array.to_list order |> List.map string_of_int |> String.concat ","
  |> Digest.string |> Digest.to_hex

let test_hash_stable () =
  (* byte-stability across runs and processes: pinned digests (the
     cache key must outlive the process that wrote the entry).  fig1's
     equals the dag_hash in golden/frontier_fig1.json; matmul:3:3:3 is
     small but exhausts the canonical search's branch budget, so its
     digest pins the fallback labeling too. *)
  let fft m = (Prbp.Graphs.Fft.make ~m).Prbp.Graphs.Fft.dag in
  let matmul333 =
    (Prbp.Graphs.Matmul.make ~m1:3 ~m2:3 ~m3:3).Prbp.Graphs.Matmul.dag
  in
  List.iter
    (fun (name, want, g) ->
      Alcotest.(check string) (name ^ " digest") want (Dag.hash g))
    [
      ("diamond", "669b7da3d2ca5f29dced286fd4dc6839",
       Prbp.Graphs.Basic.diamond ());
      ("fig1", "0f1d142ddfe708ef878f010881f4a09f",
       fst (Prbp.Graphs.Fig1.full ()));
      ("tree(2,3)", "ebdf86d8f299f8acfe74480a49221433",
       (Prbp.Graphs.Tree.make ~k:2 ~depth:3).Prbp.Graphs.Tree.dag);
      ("pyramid(5)", "a4d2d10ca96bd604831356aacc75a961",
       Prbp.Graphs.Basic.pyramid 5);
      ("fft:16", "ff1a0bb58459679ab4a20183861bec8b", fft 16);
      ("fft:32", "8da763c57f977c477e4bf14d655c3018", fft 32);
      ("matmul:3:3:3", "58ecb702d3fb9b64445b5606ad4de2ac", matmul333);
      ("random(seed1,4x4)", "e33a25c70160e741b64e0241d3d15106",
       Prbp.Graphs.Random_dag.make ~seed:1 ~layers:4 ~width:4 ());
      ("random(seed2,5x3,din3)", "2fe2592cd0c84f132a1b6188d2f56fc2",
       Prbp.Graphs.Random_dag.make ~seed:2 ~max_in_degree:3 ~layers:5
         ~width:3 ());
    ];
  (* the labeling itself, not only the digest of the edges it yields *)
  Alcotest.(check string)
    "fft:16 canonical order" "8c91be1eb0e3768b2e27daa8d76a530f"
    (order_md5 (Dag.canonical_order (fft 16)));
  Alcotest.(check string)
    "matmul:3:3:3 canonical order" "5b072baae83229abbf49a3f9f6434530"
    (order_md5 (Dag.canonical_order matmul333));
  let g = Prbp.Graphs.Basic.diamond () in
  Alcotest.(check string) "repeatable" (Dag.hash g) (Dag.hash g);
  check_int "digest width" 32 (String.length (Dag.hash g))

(* A DAG spec of golden/canonical_v1.jsonl: a generator with its
   parameters, or one of two edge-poor graphs. *)
let dag_of_spec spec =
  let int = int_of_string in
  let module G = Prbp.Graphs in
  match String.split_on_char ':' spec with
  | [ "diamond" ] -> G.Basic.diamond ()
  | [ "fig1" ] -> fst (G.Fig1.full ())
  | [ "path"; n ] -> G.Basic.path (int n)
  | [ "tree"; k; d ] -> (G.Tree.make ~k:(int k) ~depth:(int d)).G.Tree.dag
  | [ "pyramid"; h ] -> G.Basic.pyramid (int h)
  | [ "grid"; r; c ] -> G.Basic.grid (int r) (int c)
  | [ "fan_in"; k ] -> G.Basic.fan_in (int k)
  | [ "complete_bipartite"; a; b ] -> G.Basic.complete_bipartite (int a) (int b)
  | [ "fft"; m ] -> (G.Fft.make ~m:(int m)).G.Fft.dag
  | [ "matmul"; a; b; c ] ->
      (G.Matmul.make ~m1:(int a) ~m2:(int b) ~m3:(int c)).G.Matmul.dag
  | [ "attention-qkt"; m; d ] -> (G.Attention.qkt ~m:(int m) ~d:(int d)).G.Matmul.dag
  | [ "edgeless"; n ] -> Dag.make ~n:(int n) []
  | [ "one-edge"; n ] -> Dag.make ~n:(int n) [ (0, 1) ]
  | [ "random"; seed; layers; width; density; din ] ->
      G.Random_dag.make ~seed:(int seed) ~layers:(int layers) ~width:(int width)
        ~density:(float_of_string density)
        ?max_in_degree:(if din = "-" then None else Some (int din))
        ()
  | _ -> Alcotest.failf "canonical_v1.jsonl: unknown DAG spec %S" spec

(* Every line of golden/canonical_v1.jsonl regenerates its DAG (under
   its relabeling, if it names one) and must reproduce the node count,
   the digest and the MD5 of the canonical order it was written with.
   The lines span the served and benchmarked DAGs, families that
   exhaust the search budget (fft:16 and up, matmul:3:3:3,
   attention-qkt:16:8) and about 250 random draws of six shapes. *)
let test_canonical_golden () =
  let json_fail what = Alcotest.failf "canonical_v1.jsonl: bad %s" what in
  let member k j = match Json.member k j with Some v -> v | None -> json_fail k in
  let str k j = match Json.to_str (member k j) with Some s -> s | None -> json_fail k in
  let lines = golden_lines "canonical_v1.jsonl" in
  check_true "about 500 lines" (List.length lines > 500);
  List.iter
    (fun line ->
      let j = match Json.of_string line with Ok j -> j | Error e -> json_fail e in
      let spec = str "spec" j in
      let g = dag_of_spec spec in
      let g =
        match Json.to_int (member "relabel" j) with
        | Some seed -> permuted g seed
        | None -> g
      in
      check_int (line ^ " n")
        (Option.get (Json.to_int (member "n" j)))
        (Dag.n_nodes g);
      Alcotest.(check string) (line ^ " digest") (str "hash" j) (Dag.hash g);
      Alcotest.(check string)
        (line ^ " order") (str "order_md5" j)
        (order_md5 (Dag.canonical_order g)))
    lines

(* prbpd's worker domains hash the DAGs they share: two domains
   hashing one value both get its pinned digest. *)
let test_hash_concurrent () =
  let g = (Prbp.Graphs.Fft.make ~m:32).Prbp.Graphs.Fft.dag in
  let hash_often () = List.init 8 (fun _ -> Dag.hash g) in
  let d1 = Domain.spawn hash_often and d2 = Domain.spawn hash_often in
  List.iter
    (fun d ->
      List.iter
        (Alcotest.(check string) "fft:32 digest" "8da763c57f977c477e4bf14d655c3018")
        (Domain.join d))
    [ d1; d2 ]

let test_hash_ignores_names () =
  let edges = [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let bare = Dag.make ~n:4 edges in
  let named =
    Dag.make ~names:[| "a"; "b"; "c"; "d" |] ~family:"diamond" ~n:4 edges
  in
  Alcotest.(check string)
    "names/family never hash" (Dag.hash bare) (Dag.hash named)

(* [jsonl] flushes each line as it writes it, so a reader sees every
   event before the emitter stops: here a [Prune] and a [Start] are
   readable from the pipe with no [Stop] and no explicit flush. *)
let test_jsonl_flushes_each_event () =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let oc = Unix.out_channel_of_descr wr in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      Unix.close rd)
    (fun () ->
      let sink = Wire.jsonl oc in
      let events =
        Prbp.Solver.Telemetry.
          [ Prune { pruned = 3 }; Start { width = 2; max_states = 10 } ]
      in
      List.iter
        (fun ev ->
          sink.Prbp.Solver.Telemetry.emit ev;
          let want = Wire.encode_event ev ^ "\n" in
          let got = Bytes.create (String.length want) in
          (match Unix.select [ rd ] [] [] 1.0 with
          | [ _ ], _, _ -> ()
          | _ -> Alcotest.fail "event not flushed to the reader");
          let n = Unix.read rd got 0 (Bytes.length got) in
          Alcotest.(check string)
            "one line per event" want
            (Bytes.sub_string got 0 n))
        events)

let suite =
  [
    ( "wire",
      [
        roundtrip_request;
        roundtrip_outcome;
        roundtrip_bracket;
        roundtrip_frontier;
        roundtrip_event;
        roundtrip_status;
        case "healthz: versioned round trip" test_healthz_roundtrip;
        case "pre-curve records decode tolerantly"
          test_tolerant_pre_curve_decode;
        case "decoders reject malformed input" test_rejects;
        case "v1 encodings are byte-stable" test_golden_bytes;
        case "error bodies carry an optional code" test_error_code;
        case "minimal request decodes with defaults" test_defaults;
        case "json parser hardening" test_json_parser;
        case "game labels" test_game_labels;
        case "budget classes" test_budget_class;
        hash_iso_invariant;
        hash_structure_sensitive;
        case "hash is byte-stable" test_hash_stable;
        case "hash ignores names" test_hash_ignores_names;
        case "jsonl flushes each event" test_jsonl_flushes_each_event;
        case "canonical forms match the golden" test_canonical_golden;
        case "two domains hash one DAG" test_hash_concurrent;
      ] );
  ]
