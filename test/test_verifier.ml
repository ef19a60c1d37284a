(* Differential testing: the optimized engines vs the literal-rules
   verifier, on hand-written strategies, heuristic traces, and random
   walks probing every candidate move at every state. *)
open Test_util
module Dag = Prbp.Dag
module V = Prbp.Verifier
module R = Prbp.Move.R
module P = Prbp.Move.P

let test_agree_on_strategies () =
  let g, ids = Prbp.Graphs.Fig1.full () in
  check_ok "fig1 rbp" (V.agree_rbp ~r:4 g (Prbp.Strategies.fig1_rbp ids));
  check_ok "fig1 prbp" (V.agree_prbp ~r:4 g (Prbp.Strategies.fig1_prbp ids));
  let t = Prbp.Graphs.Tree.make ~k:2 ~depth:3 in
  check_ok "tree rbp" (V.agree_rbp ~r:3 t.Prbp.Graphs.Tree.dag (Prbp.Strategies.tree_rbp t));
  check_ok "tree prbp"
    (V.agree_prbp ~r:3 t.Prbp.Graphs.Tree.dag (Prbp.Strategies.tree_prbp t));
  let mv = Prbp.Graphs.Matvec.make ~m:3 in
  check_ok "matvec"
    (V.agree_prbp ~r:6 mv.Prbp.Graphs.Matvec.dag (Prbp.Strategies.matvec_prbp mv))

let test_agree_on_heuristic_traces () =
  List.iter
    (fun g ->
      let r = max 2 (Dag.max_in_degree g + 1) in
      check_ok "rbp trace" (V.agree_rbp ~r g (Prbp.Heuristic.rbp ~r g));
      check_ok "prbp trace" (V.agree_prbp ~r:2 g (Prbp.Heuristic.prbp ~r:2 g));
      check_ok "greedy trace"
        (V.agree_prbp ~r:3 g (Prbp.Heuristic.prbp_greedy ~r:3 g)))
    (Lazy.force random_dags)

let test_verifier_run_costs () =
  let g, ids = Prbp.Graphs.Fig1.full () in
  (match V.R.run ~r:4 g (Prbp.Strategies.fig1_rbp ids) with
  | Ok st ->
      check_int "rbp cost" 3 st.V.R.io;
      check_true "terminal" (V.R.is_terminal g st)
  | Error e -> Alcotest.fail e);
  match V.P.run ~r:4 g (Prbp.Strategies.fig1_prbp ids) with
  | Ok st ->
      check_int "prbp cost" 2 st.V.P.io;
      check_true "terminal" (V.P.is_terminal g st)
  | Error e -> Alcotest.fail e

let test_verifier_rejects () =
  let g = Prbp.Graphs.Basic.diamond () in
  check_err "rbp bad compute" (V.R.run ~r:3 g [ R.Compute 3 ]);
  check_err "rbp slide rejected" (V.R.run ~r:3 g [ R.Load 0; R.Slide (0, 1) ]);
  check_err "prbp clear rejected" (V.P.run ~r:3 g [ P.Clear 1 ]);
  check_err "prbp blue target"
    (V.P.run ~r:3 g [ P.Load 0; P.Compute (3, 3) ])

(* Random walk probing all candidate moves at every state: the engine
   and the verifier must agree on the legality of every candidate, not
   just on the chosen path. *)
let all_rbp_candidates g =
  let n = Dag.n_nodes g in
  List.concat_map
    (fun v -> [ R.Load v; R.Save v; R.Compute v; R.Delete v ])
    (List.init n (fun v -> v))

let all_prbp_candidates g =
  let n = Dag.n_nodes g in
  List.concat_map (fun v -> [ P.Load v; P.Save v; P.Delete v ])
    (List.init n (fun v -> v))
  @ List.map (fun (u, v) -> P.Compute (u, v)) (Dag.edges g)

let prop_rbp_walk =
  qcase ~count:25 "random RBP walks: engines agree on every candidate"
    QCheck.(pair (int_range 1 5_000) (int_range 0 1_000_000))
    (fun (seed, walk_seed) ->
      let g =
        Prbp.Graphs.Random_dag.make ~seed ~layers:3 ~width:3 ~density:0.4 ()
      in
      let r = Dag.max_in_degree g + 1 in
      let st = Random.State.make [| walk_seed |] in
      let eng = Prbp.Rbp.start (Prbp.Rbp.config ~r ()) g in
      let vstate = ref (V.R.initial g) in
      let candidates = all_rbp_candidates g in
      let ok = ref true in
      (try
         for _step = 1 to 60 do
           (* the verifier (persistent state) probes candidates; the
              engine is then required to agree on the chosen one, and
              on every rejected one after the walk *)
           let legal =
             List.filter
               (fun m ->
                 match V.R.step ~r g !vstate m with
                 | Ok _ -> true
                 | Error _ -> false)
               candidates
           in
           match legal with
           | [] -> raise Exit
           | _ ->
               let m = List.nth legal (Random.State.int st (List.length legal)) in
               (match (Prbp.Rbp.apply eng m, V.R.step ~r g !vstate m) with
               | Ok (), Ok st' -> vstate := st'
               | Error _, Error _ -> ()
               | _ -> ok := false)
         done
       with Exit -> ());
      (* the illegal candidates must be rejected by the engine too *)
      List.iter
        (fun m ->
          match V.R.step ~r g !vstate m with
          | Ok _ -> ()
          | Error _ -> (
              (* engine must also reject; apply on a scratch replay *)
              match Prbp.Rbp.apply eng m with
              | Error _ -> ()
              | Ok () -> ok := false))
        candidates;
      !ok && Prbp.Rbp.io_cost eng = !vstate.V.R.io)

let prop_prbp_walk =
  qcase ~count:25 "random PRBP walks: engines agree on every candidate"
    QCheck.(pair (int_range 1 5_000) (int_range 0 1_000_000))
    (fun (seed, walk_seed) ->
      let g =
        Prbp.Graphs.Random_dag.make ~seed ~layers:3 ~width:2 ~density:0.4 ()
      in
      let r = 3 in
      let st = Random.State.make [| walk_seed |] in
      let eng = Prbp.Prbp_game.start (Prbp.Prbp_game.config ~r ()) g in
      let vstate = ref (V.P.initial g) in
      let candidates = all_prbp_candidates g in
      let ok = ref true in
      (try
         for _step = 1 to 80 do
           let legal =
             List.filter
               (fun m ->
                 match V.P.step ~r g !vstate m with
                 | Ok _ -> true
                 | Error _ -> false)
               candidates
           in
           match legal with
           | [] -> raise Exit
           | _ ->
               let m = List.nth legal (Random.State.int st (List.length legal)) in
               (match (Prbp.Prbp_game.apply eng m, V.P.step ~r g !vstate m) with
               | Ok (), Ok st' -> vstate := st'
               | Error _, Error _ -> ()
               | _ -> ok := false)
         done
       with Exit -> ());
      List.iter
        (fun m ->
          match V.P.step ~r g !vstate m with
          | Ok _ -> ()
          | Error _ -> (
              match Prbp.Prbp_game.apply eng m with
              | Error _ -> ()
              | Ok () -> ok := false))
        candidates;
      !ok && Prbp.Prbp_game.io_cost eng = !vstate.V.P.io)

(* Differential verdicts on the upper-bound portfolio's base
   candidates, the LRU and FIFO pebblers, and mutants of each: the
   literal checker and the engine's [check] must return the same cost
   or both reject, and [agree_*] must hold, so the first rejected move
   agrees too.  Inputs: random DAGs of four shapes, fft:8 and
   tree(2,3). *)
let portfolio_dag shape seed =
  let rd = Prbp.Graphs.Random_dag.make ~seed in
  match shape with
  | 0 -> rd ~layers:3 ~width:3 ()
  | 1 -> rd ~layers:4 ~width:2 ~density:0.5 ()
  | 2 -> rd ~layers:2 ~width:5 ~density:0.6 ()
  | 3 -> rd ~layers:5 ~width:2 ~density:0.2 ~max_in_degree:2 ()
  | 4 -> (Prbp.Graphs.Fft.make ~m:8).Prbp.Graphs.Fft.dag
  | _ -> (Prbp.Graphs.Tree.make ~k:2 ~depth:3).Prbp.Graphs.Tree.dag

let policies = Prbp.Heuristic.[ Belady; Lru; Fifo ]

let banded g =
  List.map (fun h -> Prbp.Bounds.Upper.banded_order g ~h) [ 1; 2; 3 ]

let rbp_portfolio ~r g =
  List.map (fun policy -> Prbp.Heuristic.rbp ~policy ~r g) policies
  @ List.map (fun order -> Prbp.Heuristic.rbp ~order ~r g) (banded g)

let prbp_portfolio ~r g =
  List.concat_map
    (fun policy ->
      [
        Prbp.Heuristic.prbp ~policy ~r g;
        Prbp.Heuristic.prbp ~policy ~defer_saves:true ~r g;
      ])
    policies
  @ List.map (fun order -> Prbp.Heuristic.prbp ~order ~r g) (banded g)
  @ [ Prbp.Heuristic.prbp_greedy ~r g ]

(* The strategy itself, then one mutant per kind: drop a move,
   duplicate one, swap two adjacent ones, retarget one ([retarget]
   picks another in-range node or edge, [escape] a node outside the
   DAG) and cut off the tail.  Every strategy here has at least two
   moves, so each position drawn has a successor. *)
let mutants rng ~retarget ~escape moves =
  let a = Array.of_list moves in
  let pos () = Random.State.int rng (Array.length a - 1) in
  let edit f =
    let i = pos () in
    List.concat (List.mapi (f i) moves)
  in
  [
    moves;
    edit (fun i j m -> if j = i then [] else [ m ]);
    edit (fun i j m -> if j = i then [ m; m ] else [ m ]);
    edit (fun i j m ->
        if j = i then [ a.(i + 1) ] else if j = i + 1 then [ a.(i) ] else [ m ]);
    edit (fun i j m -> if j = i then [ retarget rng m ] else [ m ]);
    edit (fun i j m -> if j = i then [ escape rng m ] else [ m ]);
    (let i = pos () in
     List.filteri (fun j _ -> j <= i) moves);
  ]

(* another node than [v], in range *)
let other_node rng g v =
  let n = Dag.n_nodes g in
  (v + 1 + Random.State.int rng (n - 1)) mod n

let retarget_r g rng = function
  | R.Load v -> R.Load (other_node rng g v)
  | R.Save v -> R.Save (other_node rng g v)
  | R.Compute v -> R.Compute (other_node rng g v)
  | R.Delete v -> R.Delete (other_node rng g v)
  | R.Slide _ as m -> m

let retarget_p g rng = function
  | P.Load v -> P.Load (other_node rng g v)
  | P.Save v -> P.Save (other_node rng g v)
  | P.Delete v -> P.Delete (other_node rng g v)
  | P.Compute (u, v) ->
      let e = Random.State.int rng (Dag.n_edges g) in
      let e = if Dag.edge_id g u v = e then (e + 1) mod Dag.n_edges g else e in
      P.Compute (Dag.edge_src g e, Dag.edge_dst g e)
  | P.Clear _ as m -> m

(* a node id outside the DAG: negative, or n and beyond *)
let outside rng g =
  if Random.State.bool rng then -1 - Random.State.int rng 2
  else Dag.n_nodes g + Random.State.int rng 2

let escape_r g rng = function
  | R.Load _ -> R.Load (outside rng g)
  | R.Save _ -> R.Save (outside rng g)
  | R.Compute _ -> R.Compute (outside rng g)
  | R.Delete _ -> R.Delete (outside rng g)
  | R.Slide _ as m -> m

let escape_p g rng = function
  | P.Load _ -> P.Load (outside rng g)
  | P.Save _ -> P.Save (outside rng g)
  | P.Delete _ -> P.Delete (outside rng g)
  | P.Compute (u, v) ->
      if Random.State.bool rng then P.Compute (outside rng g, v)
      else P.Compute (u, outside rng g)
  | P.Clear _ as m -> m

let same_verdict a b =
  match (a, b) with
  | Ok x, Ok y -> x = y
  | Error _, Error _ -> true
  | _ -> false

let differential_gen =
  QCheck.(triple (int_range 0 5) (int_range 1 10_000) (int_range 0 2))

let prop_rbp_portfolio =
  qcase ~count:100 "literal RBP checker agrees on portfolio strategies and mutants"
    differential_gen
    (fun (shape, seed, dr) ->
      let g = portfolio_dag shape seed in
      let r = Dag.max_in_degree g + 1 + dr in
      let rng = Random.State.make [| shape; seed; dr |] in
      List.for_all
        (fun ms ->
          List.for_all
            (fun ms ->
              same_verdict (V.R.check ~r g ms)
                (Prbp.Rbp.check (Prbp.Rbp.config ~r ()) g ms)
              && V.agree_rbp ~r g ms = Ok ())
            (mutants rng ~retarget:(retarget_r g) ~escape:(escape_r g) ms))
        (rbp_portfolio ~r g))

let prop_prbp_portfolio =
  qcase ~count:100 "literal PRBP checker agrees on portfolio strategies and mutants"
    differential_gen
    (fun (shape, seed, dr) ->
      let g = portfolio_dag shape seed in
      let r = 2 + dr in
      let rng = Random.State.make [| shape; seed; dr |] in
      List.for_all
        (fun ms ->
          List.for_all
            (fun ms ->
              same_verdict (V.P.check ~r g ms)
                (Prbp.Prbp_game.check (Prbp.Prbp_game.config ~r ()) g ms)
              && V.agree_prbp ~r g ms = Ok ())
            (mutants rng ~retarget:(retarget_p g) ~escape:(escape_p g) ms))
        (prbp_portfolio ~r g))

(* A node id outside the DAG is an illegal move, never an exception,
   in every checker. *)
let test_out_of_range_rejected () =
  let g = Prbp.Graphs.Basic.diamond () in
  let n = Dag.n_nodes g in
  let mc = Prbp.Multi.config ~p:2 ~r:3 () in
  let module M = Prbp.Multi.Move in
  List.iter
    (fun v ->
      let what fmt = Printf.sprintf fmt v in
      check_err (what "literal RBP compute %d") (V.R.check ~r:3 g [ R.Compute v ]);
      check_err (what "literal RBP load %d") (V.R.check ~r:3 g [ R.Load v ]);
      check_err (what "literal PRBP compute (%d,0)")
        (V.P.check ~r:3 g [ P.Compute (v, 0) ]);
      check_err (what "literal PRBP load %d") (V.P.check ~r:3 g [ P.Load v ]);
      check_err (what "RBP load %d")
        (Prbp.Rbp.check (Prbp.Rbp.config ~r:3 ()) g [ R.Load v ]);
      check_err (what "RBP slide (0,%d)")
        (Prbp.Rbp.check (Prbp.Rbp.config ~sliding:true ~r:3 ()) g
           [ R.Load 0; R.Slide (0, v) ]);
      check_err (what "PRBP load %d")
        (Prbp.Prbp_game.check (Prbp.Prbp_game.config ~r:3 ()) g [ P.Load v ]);
      check_err (what "PRBP compute (%d,0)")
        (Prbp.Prbp_game.check (Prbp.Prbp_game.config ~r:3 ()) g
           [ P.Compute (v, 0) ]);
      check_err (what "RBP-MC load (0,%d)") (Prbp.Multi.R.check mc g [ M.Load (0, v) ]);
      check_err (what "PRBP-MC load (0,%d)")
        (Prbp.Multi.P.check mc g [ M.Load (0, v) ]);
      check_err (what "PRBP-MC compute (0,(%d,0))")
        (Prbp.Multi.P.check mc g [ M.Compute (0, (v, 0)) ]))
    [ n; -1 ];
  (* and so is a processor outside [0, p), here p = 2 *)
  List.iter
    (fun q ->
      let what fmt = Printf.sprintf fmt q in
      check_err (what "literal RBP load on processor %d")
        (V.R.step ~r:3 ~p:2 ~q g (V.R.initial g) (R.Load 0));
      check_err (what "literal PRBP load on processor %d")
        (V.P.step ~r:3 ~p:2 ~q g (V.P.initial g) (P.Load 0));
      check_err (what "RBP-MC load (%d,0)") (Prbp.Multi.R.check mc g [ M.Load (q, 0) ]);
      check_err (what "PRBP-MC load (%d,0)")
        (Prbp.Multi.P.check mc g [ M.Load (q, 0) ]);
      check_err (what "PRBP-MC compute (%d,(0,1))")
        (Prbp.Multi.P.check mc g [ M.Load (0, 0); M.Compute (q, (0, 1)) ]))
    [ 2; -1 ]

let suite =
  [
    ( "verifier",
      [
        case "agrees on paper strategies" test_agree_on_strategies;
        case "agrees on heuristic traces" test_agree_on_heuristic_traces;
        case "literal costs" test_verifier_run_costs;
        case "literal rejections" test_verifier_rejects;
        prop_rbp_walk;
        prop_prbp_walk;
        prop_rbp_portfolio;
        prop_prbp_portfolio;
        case "out-of-range nodes are rejected, not raised"
          test_out_of_range_rejected;
      ] );
  ]
