(* lib/bounds/Lower as a rule engine: every registered rule must be
   sound against the exact optima wherever those are computable, the
   registry must reject collisions and honor selection, and the
   constructive-partition path must agree with exhaustive Minpart. *)
open Test_util
module Dag = Prbp.Dag
module MP = Prbp.Minpart
module Segment = Prbp.Bounds.Segment
module Lower = Prbp.Bounds.Lower
module Upper = Prbp.Bounds.Upper

(* The exact optimum, tolerating budget-truncated searches ([None]) so
   the family cases can include instances near the exact solvers'
   edge. *)
let exact_tolerant game ~r g =
  match game with
  | Lower.Rbp -> tolerant (Prbp.Exact_rbp.solve (Prbp.Rbp.config ~r ()) g)
  | Lower.Prbp ->
      tolerant (Prbp.Exact_prbp.solve (Prbp.Prbp_game.config ~r ()) g)

(* Every (label, bound) pair a Lower.compute run evaluated must sit at
   or below the exact optimum — not just the winner. *)
let all_bounds_sound what game ~r g =
  match exact_tolerant game ~r g with
  | None (* truncated *) | Some None (* no strategy at this r *) -> ()
  | Some (Some opt) ->
      let l = Lower.compute ~game ~r g in
      List.iter
        (fun (label, bound) ->
          check_true
            (Printf.sprintf "%s %s r=%d: %s bound %d <= OPT %d" what
               (Lower.game_label game) r label bound opt)
            (bound <= opt))
        l.Lower.evaluated;
      check_true (what ^ ": winner <= OPT") (l.Lower.bound <= opt)

let test_registry_names () =
  let names = Lower.names () in
  List.iter
    (fun expected ->
      check_true ("registered: " ^ expected) (List.mem expected names))
    [
      "trivial"; "closed-form"; "exact-dominator"; "exact-spartition";
      "exact-edge";
    ];
  (* re-registering any existing name must be rejected *)
  List.iter
    (fun name ->
      check_true ("duplicate rejected: " ^ name)
        (match
           Lower.register
             (module struct
               let name = name
               let games = [ Lower.Rbp ]
               let share = 0
               let applies ~budget:_ ~game:_ ~r:_ _ = false
               let compute ~budget:_ ~game:_ ~r:_ _ = []
             end)
         with
        | exception Invalid_argument _ -> true
        | () -> false))
    names

let test_rule_selection () =
  let g = Prbp.Graphs.Basic.fan_in 5 in
  let l = Lower.compute ~rules:[ "exact-edge" ] ~game:Lower.Rbp ~r:2 g in
  check_true "only exact-edge ran"
    (l.Lower.evaluated <> []
    && List.for_all
         (fun (label, _) -> String.ends_with ~suffix:"-edge" label)
         l.Lower.evaluated);
  let l = Lower.compute ~rules:[ "no-such-rule" ] ~game:Lower.Rbp ~r:2 g in
  check_int "empty selection falls back to bound 0" 0 l.Lower.bound;
  Alcotest.(check string) "and reports no rule" "none" l.Lower.rule

(* Soundness on family-tagged DAGs, where the closed-form rule fires:
   small instances of each registered family, exact OPT as the oracle. *)
let test_closed_forms_sound () =
  let cases =
    [
      ("fft:4", (Prbp.Graphs.Fft.make ~m:4).Prbp.Graphs.Fft.dag, [ 3; 4 ]);
      ( "matmul:2:2:2",
        (Prbp.Graphs.Matmul.make ~m1:2 ~m2:2 ~m3:2).Prbp.Graphs.Matmul.dag,
        [ 2; 3 ] );
      ( "tree(2,2) at r=k+1",
        (Prbp.Graphs.Tree.make ~k:2 ~depth:2).Prbp.Graphs.Tree.dag,
        [ 3 ] );
      ( "attention-qkt:2:2",
        (Prbp.Graphs.Attention.qkt ~m:2 ~d:2).Prbp.Graphs.Matmul.dag,
        [ 2; 3 ] );
    ]
  in
  List.iter
    (fun (what, g, rs) ->
      check_true (what ^ " is tagged") (Dag.family g <> None);
      List.iter
        (fun r ->
          all_bounds_sound what Lower.Rbp ~r g;
          all_bounds_sound what Lower.Prbp ~r g)
        rs)
    cases

(* The tree-opt closed form is exact OPT at r = k+1 and unsound
   elsewhere; the registry must therefore only emit it at r = k+1. *)
let test_tree_form_gated () =
  List.iter
    (fun (r, expected) ->
      let forms = Prbp.Graphs.Closed_form.forms ~game:`Rbp ~r "tree:2:3" in
      check_bool
        (Printf.sprintf "tree-opt emitted iff r=3 (r=%d)" r)
        expected
        (List.exists (fun (name, _) -> name = "tree-opt") forms))
    [ (2, false); (3, true); (4, false) ]

let gen_dag =
  QCheck.make
    ~print:(fun (seed, layers, width) ->
      Printf.sprintf "seed=%d layers=%d width=%d" seed layers width)
    QCheck.Gen.(triple (int_range 1 10_000) (int_range 2 3) (int_range 1 3))

let dag_of (seed, layers, width) =
  Prbp.Graphs.Random_dag.make ~seed ~layers ~width ~density:0.35
    ~max_in_degree:3 ()

(* Every bound a Lower.compute run evaluated, and its winner, sit at
   or below what the exact solve certifies above OPT: OPT itself, or
   the upper bound of a solve that ran out of its budget. *)
let rules_sound ?budget game ~r g =
  let module S = Prbp.Solver in
  let cap = function
    | S.Optimal o -> Some o.S.cost
    | S.Bounded b -> b.S.upper
    | S.Unsolvable _ -> None
  in
  let cap =
    match game with
    | Lower.Rbp -> cap (Prbp.Exact_rbp.solve ?budget (Prbp.Rbp.config ~r ()) g)
    | Lower.Prbp ->
        cap (Prbp.Exact_prbp.solve ?budget (Prbp.Prbp_game.config ~r ()) g)
  in
  match cap with
  | None -> true
  | Some cap ->
      let l = Lower.compute ~game ~r g in
      List.for_all (fun (_, bound) -> bound <= cap) l.Lower.evaluated
      && l.Lower.bound <= cap

(* satellite (c), first half: on random small DAGs, every registered
   rule's every evaluated bound is at or below exact OPT, both games *)
let prop_rules_sound game label =
  qcase ~count:30
    (label ^ ": every registered rule stays below the exact optimum")
    gen_dag
    (fun params -> rules_sound game ~r:3 (dag_of params))

(* A DAG of the property's generator on which the exact PRBP solve at
   r = 3 runs out of its default budget (at [9, 15]); here a small
   budget truncates it sooner, and its certified upper bound still
   caps every rule. *)
let test_truncated_exact_caps_rules () =
  let g = dag_of (1500, 3, 3) in
  let budget = Prbp.Solver.Budget.v ~max_states:20_000 () in
  check_true "the exact solve is truncated with an upper bound"
    (match Prbp.Exact_prbp.solve ~budget (Prbp.Prbp_game.config ~r:3 ()) g with
    | Prbp.Solver.Bounded { upper = Some _; _ } -> true
    | _ -> false);
  check_true "every rule stays below that upper bound"
    (rules_sound ~budget Lower.Prbp ~r:3 g)

(* satellite (c), second half: a constructive partition fed back as the
   early-certification witness must reproduce the exhaustive minimum
   exactly, whenever the exhaustive search finishes *)
let prop_constructive_agrees =
  qcase ~count:30
    "constructive partitions agree with exhaustive Minpart counts" gen_dag
    (fun params ->
      let g = dag_of params in
      let s = 3 in
      List.for_all
        (fun (flavor, search) ->
          match (search ?upper_witness:None g ~s : MP.verdict) with
          | MP.Truncated _ -> true (* nothing exhaustive to compare *)
          | MP.No_partition -> true
          | MP.Minimum { classes = exact_min; _ } -> (
              match Segment.greedy ~flavor g ~s with
              | Error _ -> true (* no constructive partition to test *)
              | Ok seg ->
                  (* constructive can never beat the exact minimum … *)
                  Segment.n_classes seg >= exact_min
                  (* … and seeding it certifies the same minimum *)
                  &&
                  match
                    search ?upper_witness:(Some seg.Segment.classes) g ~s
                  with
                  | MP.Minimum { classes; _ } -> classes = exact_min
                  | MP.No_partition | MP.Truncated _ -> false))
        [
          ( Segment.Spartition,
            fun ?upper_witness g ~s -> MP.spartition ?upper_witness g ~s );
          ( Segment.Dominator,
            fun ?upper_witness g ~s ->
              MP.dominator_partition ?upper_witness g ~s );
          ( Segment.Edge,
            fun ?upper_witness g ~s -> MP.edge_partition ?upper_witness g ~s );
        ])

(* the banded orders behind the new upper-bound candidates must be
   valid topological orders on any DAG, for every band height *)
let prop_banded_order_topological =
  qcase ~count:50 "banded orders are topological" gen_dag (fun params ->
      let g = dag_of params in
      List.for_all
        (fun h -> Prbp.Topo.is_order g (Upper.banded_order g ~h))
        [ 1; 2; 3; 5 ])

(* An isolated node starts blue and needs no move in either game, so
   no rule may charge for it: ten isolated nodes beside one edge, the
   diamond beside three, and a DAG with no edge at all. *)
let test_isolated_nodes_sound () =
  List.iter
    (fun (what, g) ->
      List.iter
        (fun r ->
          all_bounds_sound what Lower.Rbp ~r g;
          all_bounds_sound what Lower.Prbp ~r g)
        [ 2; 3 ])
    [
      ("10 isolated + 10->11", Dag.make ~n:12 [ (10, 11) ]);
      ("diamond + 3 isolated", Dag.make ~n:7 [ (0, 1); (0, 2); (1, 3); (2, 3) ]);
      ("edgeless", Dag.make ~n:5 []);
    ]

let suite =
  [
    ( "rules",
      [
        case "registry names and duplicate rejection" test_registry_names;
        case "rule selection" test_rule_selection;
        slow_case "closed forms sound on tagged families"
          test_closed_forms_sound;
        case "tree closed form gated to r=k+1" test_tree_form_gated;
        prop_rules_sound Lower.Rbp "RBP";
        prop_rules_sound Lower.Prbp "PRBP";
        case "a truncated exact solve caps every rule"
          test_truncated_exact_caps_rules;
        prop_constructive_agrees;
        prop_banded_order_topological;
        case "isolated nodes: every bound below the exact optimum"
          test_isolated_nodes_sound;
      ] );
  ]
