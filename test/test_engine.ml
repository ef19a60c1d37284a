(* Regression suite for the generic GAME/Engine refactor.

   The golden optimal costs below were captured with the pre-refactor,
   per-game solvers (each then carried its own table/deque/BFS loop);
   the rewritten instances of the one generic engine must reproduce
   every value bit-for-bit.  On top of that, the multiprocessor
   instances at p = 1 must coincide with the single-processor solvers
   on random DAGs — the Section-8.1 games specialize exactly to the
   Section-1/3 games. *)

open Test_util
module Dag = Prbp.Dag

let rcfg r = Prbp.Rbp.config ~r ()

let pcfg r = Prbp.Prbp_game.config ~r ()

let mcfg ~p ~r = Prbp.Multi.config ~p ~r ()

(* name, dag (lazy: some constructors are not available at module init
   order), r, golden OPT_RBP (None = infeasible), golden OPT_PRBP *)
let golden_cases :
    (string * (unit -> Dag.t) * int * int option * int option) list =
  [
    ("fig1 r=4", (fun () -> fst (Prbp.Graphs.Fig1.full ())), 4, Some 3, Some 2);
    ( "chained2 r=4",
      (fun () -> Prbp.Graphs.Fig1.chained ~copies:2),
      4,
      Some 5,
      Some 2 );
    ( "tree23 r=3",
      (fun () -> (Prbp.Graphs.Tree.make ~k:2 ~depth:3).Prbp.Graphs.Tree.dag),
      3,
      Some 15,
      Some 11 );
    ( "zipper33 r=5",
      (fun () ->
        (Prbp.Graphs.Zipper.make ~d:3 ~len:3).Prbp.Graphs.Zipper.dag),
      5,
      Some 10,
      Some 7 );
    ( "lemma54g1 r=3",
      (fun () ->
        (Prbp.Graphs.Lemma54.make ~group_size:1).Prbp.Graphs.Lemma54.dag),
      3,
      None,
      Some 8 );
    ( "rand1 r=4",
      (fun () -> Prbp.Graphs.Random_dag.make ~seed:1 ~layers:3 ~width:3 ()),
      4,
      Some 7,
      Some 6 );
    ( "rand2 r=4",
      (fun () ->
        Prbp.Graphs.Random_dag.make ~seed:2 ~layers:4 ~width:2 ~density:0.5
          ()),
      4,
      None,
      Some 6 );
    ( "rand7 r=3",
      (fun () -> Prbp.Graphs.Random_dag.make ~seed:7 ~layers:3 ~width:3 ()),
      3,
      None,
      Some 9 );
    ("diamond r=2", (fun () -> Prbp.Graphs.Basic.diamond ()), 2, None, Some 4);
    ("pyramid3 r=4", (fun () -> Prbp.Graphs.Basic.pyramid 3), 4, Some 7, Some 5);
  ]

(* name, dag, golden black pebbling number, golden with sliding *)
let golden_black : (string * (unit -> Dag.t) * int * int) list =
  [
    ("fig1", (fun () -> fst (Prbp.Graphs.Fig1.full ())), 4, 3);
    ("chained2", (fun () -> Prbp.Graphs.Fig1.chained ~copies:2), 4, 3);
    ( "tree23",
      (fun () -> (Prbp.Graphs.Tree.make ~k:2 ~depth:3).Prbp.Graphs.Tree.dag),
      5,
      4 );
    ( "zipper33",
      (fun () ->
        (Prbp.Graphs.Zipper.make ~d:3 ~len:3).Prbp.Graphs.Zipper.dag),
      5,
      4 );
    ( "lemma54g1",
      (fun () ->
        (Prbp.Graphs.Lemma54.make ~group_size:1).Prbp.Graphs.Lemma54.dag),
      8,
      7 );
    ( "rand1",
      (fun () -> Prbp.Graphs.Random_dag.make ~seed:1 ~layers:3 ~width:3 ()),
      4,
      3 );
    ( "rand2",
      (fun () ->
        Prbp.Graphs.Random_dag.make ~seed:2 ~layers:4 ~width:2 ~density:0.5
          ()),
      5,
      4 );
    ("diamond", (fun () -> Prbp.Graphs.Basic.diamond ()), 3, 2);
    ("pyramid3", (fun () -> Prbp.Graphs.Basic.pyramid 3), 5, 4);
  ]

let test_golden_rbp_prbp () =
  List.iter
    (fun (name, dag, r, rbp, prbp) ->
      let g = dag () in
      (match rbp with
      | Some c ->
          check_int (name ^ " RBP") c (Test_util.opt_rbp (rcfg r) g)
      | None ->
          check_true (name ^ " RBP infeasible")
            (Test_util.opt_rbp_opt (rcfg r) g = None));
      match prbp with
      | Some c ->
          check_int (name ^ " PRBP") c (Test_util.opt_prbp (pcfg r) g)
      | None ->
          check_true (name ^ " PRBP infeasible")
            (Test_util.opt_prbp_opt (pcfg r) g = None))
    golden_cases

let test_golden_black () =
  List.iter
    (fun (name, dag, plain, slide) ->
      let g = dag () in
      check_int (name ^ " black") plain (Test_util.black_number g);
      check_int (name ^ " black sliding") slide
        (Test_util.black_number ~sliding:true g))
    golden_black

let test_no_prune_agrees () =
  (* branch-and-bound is an optimization, never a semantic change *)
  List.iter
    (fun (name, dag, r, rbp, prbp) ->
      let g = dag () in
      check_true (name ^ " RBP no-prune")
        (Test_util.opt_rbp_opt ~prune:false (rcfg r) g = rbp);
      check_true (name ^ " PRBP no-prune")
        (Test_util.opt_prbp_opt ~prune:false (pcfg r) g = prbp))
    [ List.nth golden_cases 0; List.nth golden_cases 8 ]

let test_multi_p1_goldens () =
  (* the p = 1 multiprocessor games on the same golden instances *)
  List.iter
    (fun (name, dag, r, rbp, prbp) ->
      let g = dag () in
      check_true
        (name ^ " RBP-MC p=1")
        (Test_util.mrbp_opt_opt (mcfg ~p:1 ~r) g = rbp);
      check_true
        (name ^ " PRBP-MC p=1")
        (Test_util.mprbp_opt_opt (mcfg ~p:1 ~r) g = prbp))
    golden_cases

let test_multi_p2_sandwich () =
  (* p = 2 with capacity r is at least as good as p = 1 with r, and no
     better than p = 1 with capacity 2r (the single cache can simulate
     both halves without any cross-processor traffic) *)
  let g, _ = Prbp.Graphs.Fig1.full () in
  let r = 3 in
  let p1 = Test_util.mprbp_opt (mcfg ~p:1 ~r) g in
  let p2 = Test_util.mprbp_opt (mcfg ~p:2 ~r) g in
  let fat = Test_util.opt_prbp (pcfg (2 * r)) g in
  check_true "p=2 <= p=1" (p2 <= p1);
  check_true "OPT(2r) <= p=2" (fat <= p2)

let test_multi_strategy_replays () =
  let g, _ = Prbp.Graphs.Fig1.full () in
  let cfg = mcfg ~p:2 ~r:3 in
  (match Test_util.mrbp_strategy cfg g with
  | Some (c, moves) -> (
      match Prbp.Multi.R.check cfg g moves with
      | Ok c' -> check_int "rbp-mc strategy cost" c c'
      | Error e -> Alcotest.failf "rbp-mc strategy invalid: %s" e)
  | None -> Alcotest.fail "rbp-mc: no strategy found");
  match Test_util.mprbp_strategy cfg g with
  | Some (c, moves) -> (
      match Prbp.Multi.P.check cfg g moves with
      | Ok c' -> check_int "prbp-mc strategy cost" c c'
      | Error e -> Alcotest.failf "prbp-mc strategy invalid: %s" e)
  | None -> Alcotest.fail "prbp-mc: no strategy found"

let test_multi_rejects_bad_cfg () =
  let g = Prbp.Graphs.Basic.diamond () in
  check_true "at most 8 processors"
    (try
       ignore (Test_util.mrbp_opt_opt (mcfg ~p:9 ~r:3) g);
       false
     with Invalid_argument _ -> true)

let test_thresholds_generic () =
  (* the generic probe under a non-default oracle: multiprocessor
     thresholds are never above the single-processor ones *)
  let g = Prbp.Graphs.Basic.pyramid 3 in
  let single = Prbp.Thresholds.rbp_trivial_r g in
  let multi = Prbp.Thresholds.multi_rbp_trivial_r ~p:2 g in
  check_true "multi r* <= single r*"
    (match (single, multi) with
    | Some s, Some m -> m <= s
    | _ -> false);
  check_true "p=1 r* = single r*"
    (Prbp.Thresholds.multi_rbp_trivial_r ~p:1 g = single);
  check_true "prbp p=1 r* = single r*"
    (Prbp.Thresholds.multi_prbp_trivial_r ~p:1 g
    = Prbp.Thresholds.prbp_trivial_r g)

let test_bounded_unified () =
  (* every game instance reports a blown state budget the same way: a
     Bounded outcome with a sound, non-trivial certified interval *)
  let g = Prbp.Graphs.Basic.pyramid 4 in
  let budget = S.Budget.states 5 in
  let bounded ?(min_lower = 1) what outcome =
    match outcome with
    | S.Bounded b ->
        check_true (what ^ " stopped on max-states")
          (b.S.stopped = S.Max_states);
        check_true (what ^ " lower sound") (b.S.lower >= min_lower);
        check_true (what ^ " lower <= upper")
          (match b.S.upper with Some u -> b.S.lower <= u | None -> true)
    | S.Optimal _ | S.Unsolvable _ ->
        Alcotest.failf "%s: expected Bounded under a 5-state budget" what
  in
  bounded "rbp" (Prbp.Exact_rbp.solve ~budget (rcfg 5) g);
  bounded "prbp" (Prbp.Exact_prbp.solve ~budget (pcfg 5) g);
  bounded "multi" (Prbp.Exact_multi.rbp_solve ~budget (mcfg ~p:2 ~r:5) g);
  (* every black move is free, so its certified interval sits at 0 *)
  bounded ~min_lower:0 "black" (Prbp.Black.solve ~budget ~s:8 g);
  (* running out of states is an outcome, not an exception *)
  check_true "black number is None under a 5-state budget"
    (Prbp.Black.number ~max_states:5 g = None)

(* Property: on random DAGs, the p = 1 multiprocessor optima equal the
   single-processor optima (including joint infeasibility). *)
let qcheck_multi_p1 =
  let pool = lazy (Array.of_list (Lazy.force random_dags)) in
  qcase ~count:20 "Exact_multi p=1 = single-processor"
    QCheck.(pair (int_bound 9) (int_range 2 4))
    (fun (i, r) ->
      let g = (Lazy.force pool).(i) in
      let cfg = mcfg ~p:1 ~r in
      (* an unlucky draw can blow the state budget on either side of
         the comparison — that instance proves nothing, skip it *)
      match
        ( tolerant (Prbp.Exact_multi.rbp_solve cfg g),
          tolerant (Prbp.Exact_rbp.solve (rcfg r) g),
          tolerant (Prbp.Exact_multi.prbp_solve cfg g),
          tolerant (Prbp.Exact_prbp.solve (pcfg r) g) )
      with
      | Some mr, Some sr, Some mp, Some sp -> mr = sr && mp = sp
      | _ -> true)

(* --- engine golden ----------------------------------------------------
   One line per solve pins every deterministic output of the engine:
   the seven pinned instances of the [exact] benchmark workload at
   jobs 1 and 2 and, with a strategy, at jobs 1; a state-capped
   strategy solve whose Bounded outcome carries the heuristic
   incumbent; and the two spill-tier solves of tree(2,3).  Each line
   holds the outcome's status, interval and stop reason, the search
   counters, the moves when present, and the interval of the terminal
   Stop event.  Elapsed times are left out, and so is [mem_words] at
   jobs >= 2, where lane growth follows chunk stealing. *)

let json_str s = "\"" ^ String.escaped s ^ "\""

let json_opt f = function Some x -> f x | None -> "null"

(* one solve's outcome, with the printer of its game's moves *)
type solved = Solved : ('m -> string) * 'm S.outcome -> solved

let describe ~jobs (Solved (show, oc)) =
  let st = S.stats_of oc in
  let lower, upper, stopped, moves =
    match oc with
    | S.Optimal o -> (Some o.S.cost, Some o.S.cost, None, o.S.strategy)
    | S.Bounded b ->
        (Some b.S.lower, b.S.upper, Some b.S.stopped, b.S.incumbent_strategy)
    | S.Unsolvable _ -> (None, None, None, None)
  in
  String.concat ","
    ([
       Printf.sprintf "\"status\":%s" (json_str (S.outcome_label oc));
       Printf.sprintf "\"lower\":%s" (json_opt string_of_int lower);
       Printf.sprintf "\"upper\":%s" (json_opt string_of_int upper);
       Printf.sprintf "\"stopped\":%s"
         (json_opt (fun r -> json_str (S.reason_label r)) stopped);
       Printf.sprintf "\"explored\":%d" st.S.explored;
       Printf.sprintf "\"expansions\":%d" st.S.expansions;
       Printf.sprintf "\"pruned\":%d" st.S.pruned;
       Printf.sprintf "\"frontier\":%d" st.S.frontier;
       Printf.sprintf "\"prune_disabled\":%b" st.S.prune_disabled;
       Printf.sprintf "\"spilled\":%d" st.S.spilled;
     ]
    @ (if jobs = 1 then [ Printf.sprintf "\"mem_words\":%d" st.S.mem_words ]
       else [])
    @
    match moves with
    | Some ms ->
        [
          Printf.sprintf "\"moves\":[%s]"
            (String.concat "," (List.map (fun m -> json_str (show m)) ms));
        ]
    | None -> [])

let show_black = function
  | Prbp.Black.Place v -> Printf.sprintf "place %d" v
  | Prbp.Black.Slide (u, v) -> Printf.sprintf "slide %d->%d" u v
  | Prbp.Black.Remove v -> Printf.sprintf "remove %d" v

(* name and one solve through the game's public entry point, as the
   [exact] workload builds it *)
let engine_instances =
  let tree23 () = (Prbp.Graphs.Tree.make ~k:2 ~depth:3).Prbp.Graphs.Tree.dag in
  let random ~seed ~layers ~width =
    Prbp.Graphs.Random_dag.make ~seed ~max_in_degree:2 ~layers ~width ()
  in
  let prbp g ~budget ~telemetry ~want_strategy ~jobs =
    Solved
      ( Prbp.Move.P.to_string,
        Prbp.Exact_prbp.solve ~budget ?telemetry ~want_strategy ~jobs (pcfg 3)
          (g ()) )
  in
  let show_mp = Format.asprintf "%a" Prbp.Multi.Move.pp_prbp in
  let show_mr = Format.asprintf "%a" Prbp.Multi.Move.pp_rbp in
  [
    ("prbp tree(2,3) r=3", prbp tree23);
    ( "prbp random(g17,5x2,din2) r=3",
      prbp (fun () -> random ~seed:17 ~layers:5 ~width:2) );
    ( "prbp random(g99,4x3,din2) r=3",
      prbp (fun () -> random ~seed:99 ~layers:4 ~width:3) );
    ( "rbp pyramid(5) r=3",
      fun ~budget ~telemetry ~want_strategy ~jobs ->
        Solved
          ( Prbp.Move.R.to_string,
            Prbp.Exact_rbp.solve ~budget ?telemetry ~want_strategy ~jobs
              (rcfg 3)
              (Prbp.Graphs.Basic.pyramid 5) ) );
    ( "black pyramid(6) s=6",
      fun ~budget ~telemetry ~want_strategy ~jobs ->
        Solved
          ( show_black,
            Prbp.Black.solve ~budget ?telemetry ~want_strategy ~jobs ~s:6
              (Prbp.Graphs.Basic.pyramid 6) ) );
    ( "multi-prbp fig1 p=2 r=3",
      fun ~budget ~telemetry ~want_strategy ~jobs ->
        Solved
          ( show_mp,
            Prbp.Exact_multi.prbp_solve ~budget ?telemetry ~want_strategy ~jobs
              (mcfg ~p:2 ~r:3)
              (fst (Prbp.Graphs.Fig1.full ())) ) );
    ( "multi-rbp pyramid(3) p=2 r=3",
      fun ~budget ~telemetry ~want_strategy ~jobs ->
        Solved
          ( show_mr,
            Prbp.Exact_multi.rbp_solve ~budget ?telemetry ~want_strategy ~jobs
              (mcfg ~p:2 ~r:3) (Prbp.Graphs.Basic.pyramid 3) ) );
  ]

let engine_golden () =
  let line ?(tag = "") (name, run) ~budget ~want_strategy ~jobs =
    let stop = ref "null" in
    let telemetry =
      S.Telemetry.make (function
        | S.Telemetry.Stop { progress = p; _ } ->
            stop :=
              Printf.sprintf "[%d,%s]" p.S.Telemetry.lower
                (json_opt string_of_int p.S.Telemetry.upper)
        | _ -> ())
    in
    let body =
      describe ~jobs
        (run ~budget ~telemetry:(Some telemetry) ~want_strategy ~jobs)
    in
    Printf.sprintf "{\"case\":%s,\"jobs\":%d,\"want_strategy\":%b,%s,\"stop\":%s}"
      (json_str (name ^ tag))
      jobs want_strategy body !stop
  in
  let workload = S.Budget.states 30_000_000 in
  let tree = List.hd engine_instances in
  List.concat_map
    (fun i ->
      [
        line i ~budget:workload ~want_strategy:false ~jobs:1;
        line i ~budget:workload ~want_strategy:false ~jobs:2;
        line i ~budget:workload ~want_strategy:true ~jobs:1;
      ])
    engine_instances
  @ List.concat_map
      (fun (tag, budget, want_strategy) ->
        [
          line ~tag tree ~budget ~want_strategy ~jobs:1;
          line ~tag tree ~budget ~want_strategy ~jobs:2;
        ])
      [
        (" max_states=3000", S.Budget.states 3_000, true);
        ( " max_words=250000 spill_words=50000000",
          S.Budget.v ~max_words:250_000 ~spill_words:50_000_000 (),
          false );
        ( " max_words=60000 spill_words=100000",
          S.Budget.v ~max_words:60_000 ~spill_words:100_000 (),
          false );
      ]

let test_engine_golden () = check_golden "engine_v1.jsonl" (engine_golden ())

(* --- recycled search memory -------------------------------------------
   A sequential solve works in its domain's recycled state table, deque
   and parent arrays.  Once the domain has solved an instance, solving
   it again allocates under one minor-heap word per expansion and next
   to nothing on the major heap — one pinned instance per game, with
   and without a strategy.  [Gc.minor_words] counts words exactly;
   [Gc.quick_stat]'s [minor_words] only moves at collections in OCaml
   5.1 native code, so it cannot see a solve that triggers none. *)

let test_second_solve_allocates_nothing () =
  let budget = S.Budget.states 30_000_000 in
  List.iter
    (fun (name, run) ->
      if not (String.starts_with ~prefix:"prbp random" name) then
        List.iter
          (fun want_strategy ->
            let solve () = run ~budget ~telemetry:None ~want_strategy ~jobs:1 in
            ignore (solve ());
            let minor0 = Gc.minor_words () in
            let major0 = (Gc.quick_stat ()).Gc.major_words in
            let (Solved (_, oc)) = solve () in
            let minor = Gc.minor_words () -. minor0 in
            let major = (Gc.quick_stat ()).Gc.major_words -. major0 in
            let expansions = (S.stats_of oc).S.expansions in
            let what =
              Printf.sprintf "%s%s" name
                (if want_strategy then " with strategy" else "")
            in
            check_true
              (Printf.sprintf "%s: over 10^4 expansions (%d)" what expansions)
              (expansions >= 10_000);
            check_true
              (Printf.sprintf "%s: %.3f minor words per expansion < 1" what
                 (minor /. float_of_int expansions))
              (minor < float_of_int expansions);
            check_true
              (Printf.sprintf "%s: %.0f major words < 1000" what major)
              (major < 1000.))
          [ false; true ])
    engine_instances

(* One solve of a small random DAG through one of the five games; its
   description holds everything the golden pins (outcome, interval,
   counters, [mem_words], moves). *)
type pick = {
  game : int;  (* prbp, rbp, black, multi-rbp, multi-prbp *)
  dag : int;
  r : int;
  p : int;
  want_strategy : bool;
  cap : int;
}

let print_pick k =
  Printf.sprintf "{game=%d dag=%d r=%d p=%d strategy=%b cap=%d}" k.game k.dag
    k.r k.p k.want_strategy k.cap

let solve_pick =
  let pool = lazy (Array.of_list (Lazy.force random_dags)) in
  fun k ->
    let g = (Lazy.force pool).(k.dag) in
    let budget = S.Budget.states k.cap and want_strategy = k.want_strategy in
    let show_mp = Format.asprintf "%a" Prbp.Multi.Move.pp_prbp in
    let show_mr = Format.asprintf "%a" Prbp.Multi.Move.pp_rbp in
    describe ~jobs:1
      (match k.game with
      | 0 ->
          Solved
            ( Prbp.Move.P.to_string,
              Prbp.Exact_prbp.solve ~budget ~want_strategy (pcfg k.r) g )
      | 1 ->
          Solved
            ( Prbp.Move.R.to_string,
              Prbp.Exact_rbp.solve ~budget ~want_strategy (rcfg k.r) g )
      | 2 ->
          Solved (show_black, Prbp.Black.solve ~budget ~want_strategy ~s:k.r g)
      | 3 ->
          Solved
            ( show_mr,
              Prbp.Exact_multi.rbp_solve ~budget ~want_strategy
                (mcfg ~p:k.p ~r:k.r) g )
      | _ ->
          Solved
            ( show_mp,
              Prbp.Exact_multi.prbp_solve ~budget ~want_strategy
                (mcfg ~p:k.p ~r:k.r) g ))

let on_fresh_domain f = Domain.join (Domain.spawn f)

(* Property: a sequence of solves on one domain — key widths 2, 3,
   p + 2 and 2p + 2, grown and small tables, with and without parent
   arrays — gives every solve exactly the result it has on a fresh
   domain, whose workspace slot starts empty. *)
let qcheck_recycling_changes_nothing =
  let gen_pick =
    QCheck.Gen.(
      map
        (fun (game, dag, r, p, want_strategy, cap) ->
          { game; dag; r; p; want_strategy; cap })
        (tup6 (int_bound 4) (int_bound 9) (int_range 2 4) (int_range 1 2) bool
           (oneofl [ 300; 5_000; 20_000 ])))
  in
  qcase ~count:12 "recycled workspaces change no result"
    (QCheck.make
       ~print:QCheck.Print.(list print_pick)
       QCheck.Gen.(list_size (int_range 2 6) gen_pick))
    (fun picks ->
      let here = List.map solve_pick picks in
      List.for_all2
        (fun k got -> got = on_fresh_domain (fun () -> solve_pick k))
        picks here)

(* A telemetry sink that starts a second solve, of another key width,
   in the middle of the first: the nested solve finds the domain's slot
   empty and works in its own memory, and neither result moves. *)
let test_nested_solve_in_sink () =
  let tree = (Prbp.Graphs.Tree.make ~k:2 ~depth:3).Prbp.Graphs.Tree.dag in
  let inner () =
    describe ~jobs:1
      (Solved
         ( Prbp.Move.R.to_string,
           Prbp.Exact_rbp.solve ~want_strategy:true (rcfg 3)
             (Prbp.Graphs.Basic.pyramid 4) ))
  in
  let outer ?telemetry () =
    describe ~jobs:1
      (Solved
         ( Prbp.Move.P.to_string,
           Prbp.Exact_prbp.solve ?telemetry ~want_strategy:true (pcfg 3) tree ))
  in
  (* leave a grown workspace of a third width in this domain's slot *)
  ignore
    (Prbp.Exact_multi.prbp_solve (mcfg ~p:2 ~r:3)
       (fst (Prbp.Graphs.Fig1.full ())));
  let nested = ref None in
  let telemetry =
    S.Telemetry.make ~every:4096 (function
      | S.Telemetry.Progress _ when !nested = None -> nested := Some (inner ())
      | _ -> ())
  in
  let got = outer ~telemetry () in
  Alcotest.(check string) "outer solve"
    (on_fresh_domain (fun () -> outer ()))
    got;
  match !nested with
  | None -> Alcotest.fail "the sink saw no progress event"
  | Some nested ->
      let want = on_fresh_domain inner in
      Alcotest.(check string) "nested solve" want nested;
      Alcotest.(check string) "a later solve" want (inner ())

let suite =
  [
    ( "engine",
      [
        case "golden rbp/prbp optima" test_golden_rbp_prbp;
        case "golden black pebbling numbers" test_golden_black;
        case "pruning never changes the optimum" test_no_prune_agrees;
        slow_case "multi p=1 on golden instances" test_multi_p1_goldens;
        case "multi p=2 sandwich bounds" test_multi_p2_sandwich;
        case "multi strategies replay" test_multi_strategy_replays;
        case "multi rejects p=9" test_multi_rejects_bad_cfg;
        case "generic threshold probe" test_thresholds_generic;
        case "unified Bounded outcomes" test_bounded_unified;
        qcheck_multi_p1;
        case "outputs match the engine golden" test_engine_golden;
        case "a second solve allocates nothing"
          test_second_solve_allocates_nothing;
        qcheck_recycling_changes_nothing;
        case "a solve nested in a telemetry sink" test_nested_solve_in_sink;
      ] );
  ]
