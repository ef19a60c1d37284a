(* Shared helpers for the test suite. *)

let case name f = Alcotest.test_case name `Quick f

let slow_case name f = Alcotest.test_case name `Slow f

let qcase ?count name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ?count ~name gen prop)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_true name b = Alcotest.(check bool) name true b

let check_false name b = Alcotest.(check bool) name false b

let check_ok name = function
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: unexpected error: %s" name e

let check_err name = function
  | Ok _ -> Alcotest.failf "%s: expected an error" name
  | Error _ -> ()

(* Replay an RBP strategy, requiring completeness, and return its cost. *)
let rbp_cost ?(cfg_of = fun r -> Prbp.Rbp.config ~r ()) ~r g moves =
  match Prbp.Rbp.check (cfg_of r) g moves with
  | Ok c -> c
  | Error e -> Alcotest.failf "invalid RBP pebbling: %s" e

let prbp_cost ?(cfg_of = fun r -> Prbp.Prbp_game.config ~r ()) ~r g moves =
  match Prbp.Prbp_game.check (cfg_of r) g moves with
  | Ok c -> c
  | Error e -> Alcotest.failf "invalid PRBP pebbling: %s" e

(* --- solver-outcome plumbing ---------------------------------------
   The tests speak in plain costs and options; the solvers in
   {!Prbp.Solver.outcome}.  Unless a test opts into truncation (see
   [tolerant]), running out of budget is a test failure. *)

module S = Prbp.Solver

let settled what = function
  | S.Optimal o -> Some o
  | S.Unsolvable _ -> None
  | S.Bounded b ->
      Alcotest.failf "%s: budget exhausted at [%d, %s]" what b.S.lower
        (match b.S.upper with Some u -> string_of_int u | None -> "?")

let cost_of what outcome = Option.map (fun o -> o.S.cost) (settled what outcome)

let cost_exn what outcome =
  match cost_of what outcome with
  | Some c -> c
  | None -> Alcotest.failf "%s: no valid pebbling exists" what

(* For property tests that skip instances whose state space exceeds
   the budget: [None] = truncated (skip), [Some cost_opt] = settled. *)
let tolerant = function
  | S.Optimal o -> Some (Some o.S.cost)
  | S.Unsolvable _ -> Some None
  | S.Bounded _ -> None

let strategy_of what = function
  | S.Optimal o -> (
      match o.S.strategy with
      | Some moves -> Some (o.S.cost, moves)
      | None -> Alcotest.failf "%s: strategy missing from Optimal" what)
  | S.Unsolvable _ -> None
  | S.Bounded _ -> Alcotest.failf "%s: budget exhausted" what

let black_number ?sliding g =
  match Prbp.Black.number ?sliding g with
  | Some b -> b
  | None -> Alcotest.fail "Black.number: state budget exhausted"

let opt_rbp_opt ?budget ?prune ?eager_deletes cfg g =
  cost_of "Exact_rbp"
    (Prbp.Exact_rbp.solve ?budget ?prune ?eager_deletes cfg g)

let opt_rbp ?budget ?prune ?eager_deletes cfg g =
  cost_exn "Exact_rbp"
    (Prbp.Exact_rbp.solve ?budget ?prune ?eager_deletes cfg g)

let opt_prbp_opt ?budget ?prune ?eager_deletes cfg g =
  cost_of "Exact_prbp"
    (Prbp.Exact_prbp.solve ?budget ?prune ?eager_deletes cfg g)

let opt_prbp ?budget ?prune ?eager_deletes cfg g =
  cost_exn "Exact_prbp"
    (Prbp.Exact_prbp.solve ?budget ?prune ?eager_deletes cfg g)

let mrbp_opt_opt ?budget ?prune cfg g =
  cost_of "Exact_multi.rbp" (Prbp.Exact_multi.rbp_solve ?budget ?prune cfg g)

let mrbp_opt ?budget ?prune cfg g =
  cost_exn "Exact_multi.rbp" (Prbp.Exact_multi.rbp_solve ?budget ?prune cfg g)

let mprbp_opt_opt ?budget ?prune cfg g =
  cost_of "Exact_multi.prbp"
    (Prbp.Exact_multi.prbp_solve ?budget ?prune cfg g)

let mprbp_opt ?budget ?prune cfg g =
  cost_exn "Exact_multi.prbp"
    (Prbp.Exact_multi.prbp_solve ?budget ?prune cfg g)

let rbp_strategy ?budget cfg g =
  strategy_of "Exact_rbp"
    (Prbp.Exact_rbp.solve ?budget ~want_strategy:true cfg g)

let prbp_strategy ?budget cfg g =
  strategy_of "Exact_prbp"
    (Prbp.Exact_prbp.solve ?budget ~want_strategy:true cfg g)

let mrbp_strategy ?budget cfg g =
  strategy_of "Exact_multi.rbp"
    (Prbp.Exact_multi.rbp_solve ?budget ~want_strategy:true cfg g)

let mprbp_strategy ?budget cfg g =
  strategy_of "Exact_multi.prbp"
    (Prbp.Exact_multi.prbp_solve ?budget ~want_strategy:true cfg g)

(* The non-empty lines of the golden file [golden/name].  The file sits
   next to the test binary, where the dune rule copies it. *)
let golden_lines name =
  In_channel.with_open_bin
    (Filename.concat (Filename.dirname Sys.executable_name) ("golden/" ^ name))
    In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* Compare [fresh] with the golden file [golden/name] line by line. *)
let check_golden name fresh =
  let golden = golden_lines name in
  check_int "record count" (List.length golden) (List.length fresh);
  List.iteri
    (fun i (want, got) ->
      Alcotest.(check string) (Printf.sprintf "line %d" (i + 1)) want got)
    (List.combine golden fresh)

(* A deterministic pool of small random DAGs for cross-module tests. *)
let random_dags =
  lazy
    (List.concat_map
       (fun seed ->
         [
           Prbp.Graphs.Random_dag.make ~seed ~layers:3 ~width:3 ();
           Prbp.Graphs.Random_dag.make ~seed ~layers:4 ~width:2
             ~density:0.5 ();
         ])
       [ 1; 2; 3; 4; 5 ])
