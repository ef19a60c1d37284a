(* Black pebble game + cache thresholds. *)
open Test_util
module Dag = Prbp.Dag
module Black = Prbp.Black
module Th = Prbp.Thresholds

let test_known_numbers () =
  check_int "path" 2 (black_number (Prbp.Graphs.Basic.path 6));
  check_int "path sliding" 1 (black_number ~sliding:true (Prbp.Graphs.Basic.path 6));
  check_int "diamond" 3 (black_number (Prbp.Graphs.Basic.diamond ()));
  check_int "fan-in d+1" 5 (black_number (Prbp.Graphs.Basic.fan_in 4));
  check_int "fan-out" 2 (black_number (Prbp.Graphs.Basic.fan_out 4))

let test_pyramids_classic () =
  (* the classic pyramid results: h+2 pebbles, h+1 with sliding *)
  List.iter
    (fun h ->
      let g = Prbp.Graphs.Basic.pyramid h in
      check_int "pyramid" (h + 2) (black_number g);
      check_int "pyramid sliding" (h + 1) (black_number ~sliding:true g))
    [ 1; 2; 3 ]

let test_trees () =
  (* binary in-trees: depth + 2 pebbles without sliding *)
  List.iter
    (fun d ->
      let t = Prbp.Graphs.Tree.make ~k:2 ~depth:d in
      check_int "tree" (d + 2) (black_number t.Prbp.Graphs.Tree.dag))
    [ 1; 2; 3 ]

let test_bounds () =
  List.iter
    (fun g ->
      if Dag.n_nodes g <= 12 then begin
        let b = black_number g in
        let bs = black_number ~sliding:true g in
        check_true "≥ Δin+1" (b >= Dag.max_in_degree g + 1);
        check_true "≤ n" (b <= Dag.n_nodes g);
        check_true "sliding saves ≤ 1" (bs <= b && b <= bs + 1)
      end)
    (Lazy.force random_dags)

let test_feasible_monotone () =
  let g = Prbp.Graphs.Basic.pyramid 2 in
  check_true "3 too few" (Black.feasible ~s:3 g = Some false);
  check_true "4 enough" (Black.feasible ~s:4 g = Some true);
  check_true "5 enough" (Black.feasible ~s:5 g = Some true)

let test_budget () =
  let g = Prbp.Graphs.Basic.grid 4 4 in
  check_true "budget exhaustion is None"
    (Black.feasible ~max_states:10 ~s:8 g = None);
  check_true "pebbling number unsettled"
    (Black.number ~max_states:10 g = None)

let test_thresholds_fig1 () =
  (* Proposition 4.2 in threshold form: at r = 4 PRBP is already at the
     trivial cost while RBP still needs r = 5 *)
  let g, _ = Prbp.Graphs.Fig1.full () in
  Alcotest.(check (option int)) "RBP" (Some 5) (Th.rbp_trivial_r g);
  Alcotest.(check (option int)) "PRBP" (Some 4) (Th.prbp_trivial_r g)

let test_thresholds_fan_in () =
  (* the aggregation case: PRBP streams with 2 pebbles, RBP needs d+1 *)
  let g = Prbp.Graphs.Basic.fan_in 4 in
  Alcotest.(check (option int)) "RBP" (Some 5) (Th.rbp_trivial_r g);
  Alcotest.(check (option int)) "PRBP" (Some 2) (Th.prbp_trivial_r g)

let test_threshold_relations () =
  List.iter
    (fun g ->
      if Dag.n_nodes g <= 10 && Dag.n_edges g <= 18 then
        match (Th.rbp_trivial_r g, Th.prbp_trivial_r g) with
        | Some rr, Some rp ->
            check_true "PRBP needs no more cache" (rp <= rr);
            (* a trivial-cost RBP pebbling is a one-shot black pebbling,
               so r* is at least the black pebbling number *)
            check_true "r*_RBP >= black number" (rr >= black_number g)
        | _ -> ())
    (Lazy.force random_dags)

let test_feasibility_thresholds () =
  let g = Prbp.Graphs.Basic.fan_in 7 in
  check_int "rbp needs Δin+1" 8 (Th.rbp_feasible_r g);
  check_int "prbp needs 2" 2 (Th.prbp_feasible_r g);
  let e = Prbp.Dag.make ~n:1 [] in
  check_int "edgeless" 1 (Th.prbp_feasible_r e)

let suite =
  [
    ( "black+thresholds",
      [
        case "known pebbling numbers" test_known_numbers;
        case "pyramids (classic)" test_pyramids_classic;
        case "binary in-trees" test_trees;
        case "bounds on the pool" test_bounds;
        case "feasibility monotone in s" test_feasible_monotone;
        case "state budget" test_budget;
        case "fig1 thresholds (Prop 4.2 reframed)" test_thresholds_fig1;
        case "fan-in thresholds" test_thresholds_fan_in;
        case "threshold relations" test_threshold_relations;
        case "feasibility thresholds" test_feasibility_thresholds;
      ] );
  ]
