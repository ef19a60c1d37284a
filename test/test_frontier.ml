(* lib/frontier: the unit cost model, the certified Pareto enumerator,
   and the pooled-capacity multiprocessor brackets.

   The load-bearing invariants:
   - every frontier point's witness replays through the
     Prbp_pebble.Multi rule engines at exactly its claimed comm_upper;
   - the p = 1 front collapses to the single-processor optimum;
   - no surviving front point certifiably dominates another survivor
     (dominance-marking soundness);
   - min_r_for_comm agrees with a settled sweep;
   - the pooled lower bound never exceeds the multiprocessor optimum
     and the lifted upper witness re-verifies. *)

open Test_util
module Dag = Prbp.Dag
module Multi = Prbp.Multi
module F = Prbp.Frontier.Frontier
module Cm = Prbp.Frontier.Cost_model
module Multi_bounds = Prbp.Bounds.Multi_bounds
module Lower = Prbp.Bounds.Lower

(* ------------------------------------------------------------------ *)
(* Cost model *)

let test_unit_model () =
  let g = Prbp.Graphs.Basic.diamond () in
  let cfg = Multi.config ~p:2 ~r:3 () in
  match mrbp_strategy cfg g with
  | None -> Alcotest.fail "diamond r=3 p=2 should be solvable"
  | Some (cost, moves) -> (
      match Cm.eval_rbp cfg g moves with
      | Error e -> Alcotest.failf "eval_rbp: %s" e
      | Ok e ->
          (* the unit model prices one word per I/O move, so its comm
             is exactly the checker's cost *)
          check_int "comm = checker cost" cost e.Cm.comm;
          check_int "both processors priced" 2
            (Array.length e.Cm.per_proc_time);
          check_int "makespan = max per-proc time"
            (Array.fold_left max 0 e.Cm.per_proc_time)
            e.Cm.makespan;
          check_true "some compute time accrued" (e.Cm.makespan > 0))

let test_eval_rejects_invalid () =
  let g = Prbp.Graphs.Basic.diamond () in
  let cfg = Multi.config ~p:2 ~r:3 () in
  (* computing a non-source before its inputs are red must be rejected
     by the checker the evaluator runs first *)
  let bad : Multi.Move.rbp list = [ Multi.Move.Compute (0, 3) ] in
  check_err "invalid replay" (Cm.eval_rbp cfg g bad)

let test_makespan_lower () =
  let g = Prbp.Graphs.Basic.diamond () in
  (* the compute work: every non-source node (RBP), every edge (PRBP) *)
  let work = Dag.n_nodes g - List.length (Dag.sources g) in
  check_int "prbp p=1 no comm = edges" (Dag.n_edges g)
    (Cm.makespan_lower ~game:`Prbp ~p:1 ~comm_lower:0 g);
  (* ⌈(work + comm)/p⌉ under the unit model *)
  check_int "p=1 no comm" work
    (Cm.makespan_lower ~game:`Rbp ~p:1 ~comm_lower:0 g);
  check_int "p=1 with comm" (work + 2)
    (Cm.makespan_lower ~game:`Rbp ~p:1 ~comm_lower:2 g);
  check_int "p=2 averages" ((work + 2 + 1) / 2)
    (Cm.makespan_lower ~game:`Rbp ~p:2 ~comm_lower:2 g)

(* ------------------------------------------------------------------ *)
(* Exact sweeps at p = 1 collapse to the single-processor optimum *)

let test_p1_collapse () =
  let check_family name g rs =
    let f_rbp = F.sweep F.Rbp_mc ~p:1 ~rs g in
    List.iter
      (fun (pt : F.point) ->
        check_true (name ^ ": rbp settled") pt.F.settled;
        check_int
          (Printf.sprintf "%s: rbp p=1 r=%d = OPT_1" name pt.F.r)
          (opt_rbp (Prbp.Rbp.config ~r:pt.F.r ()) g)
          pt.F.comm_lower)
      f_rbp.F.points;
    List.iter
      (fun r ->
        check_true
          (Printf.sprintf "%s: rbp r=%d infeasible both ways" name r)
          (opt_rbp_opt (Prbp.Rbp.config ~r ()) g = None))
      f_rbp.F.infeasible_rs;
    let f_prbp = F.sweep F.Prbp_mc ~p:1 ~rs g in
    List.iter
      (fun (pt : F.point) ->
        check_true (name ^ ": prbp settled") pt.F.settled;
        check_int
          (Printf.sprintf "%s: prbp p=1 r=%d = OPT_1" name pt.F.r)
          (opt_prbp (Prbp.Prbp_game.config ~r:pt.F.r ()) g)
          pt.F.comm_lower)
      f_prbp.F.points
  in
  check_family "diamond" (Prbp.Graphs.Basic.diamond ()) [ 2; 3; 4 ];
  check_family "fig1" (fst (Prbp.Graphs.Fig1.full ())) [ 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Witness replay: every point's certificate re-checks independently *)

let replay_ok g (pt : F.point) =
  match (pt.F.witness, pt.F.comm_upper) with
  | Some w, Some cu -> (
      let cfg = Multi.config ~p:pt.F.p ~r:pt.F.r () in
      match w with
      | Multi_bounds.Rbp_mc_moves mv -> Multi.R.check cfg g mv = Ok cu
      | Multi_bounds.Prbp_mc_moves mv -> Multi.P.check cfg g mv = Ok cu)
  | _ -> false

let test_witness_replay () =
  let one name game g rs =
    let f = F.sweep game ~p:2 ~rs g in
    check_true (name ^ ": has points") (f.F.points <> []);
    List.iter
      (fun (pt : F.point) ->
        check_true
          (Printf.sprintf "%s r=%d: verified" name pt.F.r)
          pt.F.verified;
        check_true
          (Printf.sprintf "%s r=%d: witness replays" name pt.F.r)
          (replay_ok g pt))
      f.F.points
  in
  one "diamond rbp" F.Rbp_mc (Prbp.Graphs.Basic.diamond ()) [ 3; 4 ];
  one "diamond prbp" F.Prbp_mc (Prbp.Graphs.Basic.diamond ()) [ 2; 3 ];
  one "fig1 prbp" F.Prbp_mc (fst (Prbp.Graphs.Fig1.full ())) [ 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Dominance soundness, property-tested over random DAGs *)

let gen_small_dag =
  QCheck.make
    ~print:(fun (seed, layers, width) ->
      Printf.sprintf "seed=%d layers=%d width=%d" seed layers width)
    QCheck.Gen.(triple (int_range 1 10_000) (int_range 2 3) (int_range 1 3))

let random_dag (seed, layers, width) =
  Prbp.Graphs.Random_dag.make ~seed ~layers ~width ~density:0.4
    ~max_in_degree:2 ()

let certified_dominates (a : F.point) (b : F.point) =
  a.F.r < b.F.r
  &&
  match (a.F.comm_upper, a.F.time_upper) with
  | Some cu, Some tu -> cu <= b.F.comm_lower && tu <= b.F.time_lower
  | _ -> false

let dominance_sound =
  qcase ~count:25 "front: no survivor certifiably dominates another"
    gen_small_dag (fun inst ->
      let g = random_dag inst in
      let f = F.sweep F.Prbp_mc ~p:2 ~rs:[ 2; 3; 4 ] g in
      let front = F.front f in
      (* soundness of the marking: survivors are mutually undominated,
         and every dominated point really is beaten by some point *)
      List.for_all
        (fun a -> not (List.exists (certified_dominates a) front))
        front
      && List.for_all
           (fun (b : F.point) ->
             (not b.F.dominated)
             || List.exists (fun a -> certified_dominates a b) f.F.points)
           f.F.points)

let settled_points_exact =
  qcase ~count:25 "sweep: settled points have closed intervals"
    gen_small_dag (fun inst ->
      let g = random_dag inst in
      let f = F.sweep F.Rbp_mc ~p:2 ~rs:[ 3; 4 ] g in
      List.for_all
        (fun (pt : F.point) ->
          (not pt.F.settled) || pt.F.comm_upper = Some pt.F.comm_lower)
        f.F.points)

(* ------------------------------------------------------------------ *)
(* Reverse ε-constraint *)

let test_min_r () =
  let g = Prbp.Graphs.Basic.diamond () in
  (* the sweep says: prbp p=2 needs comm 4 at r=2, comm 2 at r ≥ 3 *)
  (match F.min_r_for_comm F.Prbp_mc ~p:2 ~comm_cap:4 g with
  | F.Min_r { r; comm } ->
      check_int "cap 4: r" 2 r;
      check_int "cap 4: comm" 4 comm
  | _ -> Alcotest.fail "cap 4: expected Min_r");
  (match F.min_r_for_comm F.Prbp_mc ~p:2 ~comm_cap:2 g with
  | F.Min_r { r; comm } ->
      check_int "cap 2: r" 3 r;
      check_int "cap 2: comm" 2 comm
  | _ -> Alcotest.fail "cap 2: expected Min_r");
  (* one source load and one sink save are mandatory: cap 1 is
     unmeetable at any capacity *)
  match F.min_r_for_comm F.Prbp_mc ~p:2 ~comm_cap:1 g with
  | F.Min_r_infeasible -> ()
  | _ -> Alcotest.fail "cap 1: expected infeasible"

let min_r_matches_sweep =
  qcase ~count:15 "min_r_for_comm agrees with a settled sweep" gen_small_dag
    (fun inst ->
      let g = random_dag inst in
      let rs = List.init (Dag.n_nodes g) (fun i -> i + 1) in
      let f = F.sweep F.Rbp_mc ~p:2 ~rs g in
      if f.F.exhausted then QCheck.assume_fail ()
      else
        match
          List.filter
            (fun (pt : F.point) -> pt.F.comm_upper <> None)
            f.F.points
        with
        | [] -> true
        | points -> (
            let cap =
              List.fold_left
                (fun acc (pt : F.point) -> min acc pt.F.comm_lower)
                max_int points
            in
            let expect =
              List.fold_left
                (fun acc (pt : F.point) ->
                  if pt.F.comm_lower <= cap then min acc pt.F.r else acc)
                max_int points
            in
            match F.min_r_for_comm F.Rbp_mc ~p:2 ~comm_cap:cap g with
            | F.Min_r { r; _ } -> r = expect
            | _ -> false))

(* ------------------------------------------------------------------ *)
(* Pooled-capacity brackets *)

let test_multi_bounds () =
  (* past the exact engine's node cap: FFT(16) has 80 nodes *)
  let g = (Prbp.Graphs.Fft.make ~m:16).Prbp.Graphs.Fft.dag in
  (match Multi_bounds.rbp ~p:4 ~r:4 g with
  | Error e -> Alcotest.failf "multi rbp bracket: %s" e
  | Ok b -> (
      check_true "ordered"
        (b.Multi_bounds.lower.Lower.bound <= b.Multi_bounds.upper);
      check_true "pooled rule label"
        (let rule = b.Multi_bounds.lower.Lower.rule in
         rule = "none"
         || (String.length rule >= 7 && String.sub rule 0 7 = "pooled:"));
      (* the lifted witness replays at the claimed upper bound *)
      match b.Multi_bounds.moves with
      | Multi_bounds.Rbp_mc_moves mv ->
          check_true "witness replays"
            (Multi.R.check (Multi.config ~p:4 ~r:4 ()) g mv
            = Ok b.Multi_bounds.upper)
      | Multi_bounds.Prbp_mc_moves _ -> Alcotest.fail "wrong move family"));
  match Multi_bounds.prbp ~p:4 ~r:4 g with
  | Error e -> Alcotest.failf "multi prbp bracket: %s" e
  | Ok b -> (
      check_true "prbp ordered"
        (b.Multi_bounds.lower.Lower.bound <= b.Multi_bounds.upper);
      match b.Multi_bounds.moves with
      | Multi_bounds.Prbp_mc_moves mv ->
          check_true "prbp witness replays"
            (Multi.P.check (Multi.config ~p:4 ~r:4 ()) g mv
            = Ok b.Multi_bounds.upper)
      | Multi_bounds.Rbp_mc_moves _ -> Alcotest.fail "wrong move family")

let pooled_lower_sound =
  qcase ~count:20 "pooled lower bound never exceeds the p=2 optimum"
    gen_small_dag (fun inst ->
      let g = random_dag inst in
      let r = 3 in
      let lb = Multi_bounds.lower ~game:Lower.Rbp ~p:2 ~r g in
      match
        tolerant (Prbp.Exact_multi.rbp_solve (Multi.config ~p:2 ~r ()) g)
      with
      | None -> true (* truncated: nothing to compare against *)
      | Some None -> true (* unsolvable at this r *)
      | Some (Some cost) -> lb.Lower.bound <= cost)

(* ------------------------------------------------------------------ *)
(* Budget anytime-ness: a starved sweep still yields sound intervals *)

let test_anytime () =
  let g = (Prbp.Graphs.Fft.make ~m:8).Prbp.Graphs.Fft.dag in
  let budget = Prbp.Solver.Budget.v ~max_states:50 () in
  let f = F.sweep ~budget F.Rbp_mc ~p:2 ~rs:[ 3; 4 ] g in
  List.iter
    (fun (pt : F.point) ->
      (match pt.F.comm_upper with
      | Some u -> check_true "interval ordered" (pt.F.comm_lower <= u)
      | None -> ());
      if pt.F.verified then
        check_true "verified points replay" (replay_ok g pt))
    f.F.points;
  check_true "starved sweep reports exhaustion or settles"
    (f.F.exhausted
    || List.for_all (fun (pt : F.point) -> pt.F.settled) f.F.points)

(* Isolated nodes need no move, so they must not lift a pooled lower
   bound past the cost-2 strategy of 70 isolated nodes beside one
   edge: both capacities bracket, and both witnesses replay. *)
let test_isolated_nodes () =
  let g = Dag.make ~n:72 [ (70, 71) ] in
  List.iter
    (fun (name, game) ->
      let f = F.sweep game ~p:2 ~rs:[ 2; 3 ] g in
      Alcotest.(check (list int))
        (name ^ ": no capacity infeasible") [] f.F.infeasible_rs;
      check_int (name ^ ": two points") 2 (List.length f.F.points);
      List.iter
        (fun (pt : F.point) ->
          check_true
            (Printf.sprintf "%s r=%d: verified" name pt.F.r)
            (pt.F.verified && replay_ok g pt))
        f.F.points)
    [ ("multi-rbp:2", F.Rbp_mc); ("multi-prbp:2", F.Prbp_mc) ]

let suite =
  [
    ( "frontier",
      [
        case "unit cost model prices a solver witness" test_unit_model;
        case "evaluator rejects invalid strategies" test_eval_rejects_invalid;
        case "certified makespan floor" test_makespan_lower;
        case "p=1 front collapses to the single-processor OPT"
          test_p1_collapse;
        case "every witness replays through the Multi checkers"
          test_witness_replay;
        dominance_sound;
        settled_points_exact;
        case "min_r_for_comm on diamond" test_min_r;
        min_r_matches_sweep;
        slow_case "pooled brackets past exact reach" test_multi_bounds;
        pooled_lower_sound;
        case "starved sweeps stay sound" test_anytime;
        case "isolated nodes keep every capacity bracketed" test_isolated_nodes;
      ] );
  ]
