(* Anytime-solver contract: budgets stop the search with a certified
   interval instead of an exception, telemetry never perturbs the
   search, and strategy reconstruction is strictly opt-in. *)

open Test_util
module Dag = Prbp.Dag

let rcfg r = Prbp.Rbp.config ~r ()

let pcfg r = Prbp.Prbp_game.config ~r ()

(* Bounded outcomes bracket the true optimum: solve the same instance
   once under a starvation budget and once unbudgeted, and check
   lower <= OPT <= upper whenever the starved solve was truncated. *)
let qcheck_bounded_brackets_opt =
  qcase ~count:30 "Bounded brackets the unbudgeted optimum"
    QCheck.(
      triple (int_bound 10_000) (int_range 2 4) (int_range 2 3))
    (fun (seed, layers, width) ->
      let g =
        Prbp.Graphs.Random_dag.make ~seed ~max_in_degree:3 ~layers ~width ()
      in
      let r = max 2 (min 4 (Dag.max_in_degree g + 1)) in
      let starved = S.Budget.states 30 in
      let brackets truncated full =
        match truncated with
        | S.Optimal _ | S.Unsolvable _ ->
            true (* instance fits even a 30-state budget *)
        | S.Bounded b -> (
            match Lazy.force full with
            | S.Optimal o ->
                b.S.lower <= o.S.cost
                && (match b.S.upper with
                   | Some u -> o.S.cost <= u
                   | None -> true)
                && b.S.lower >= 1
            | S.Unsolvable _ ->
                (* no pebbling exists: only the upper bound (which would
                   claim one does) must be absent *)
                b.S.upper = None
            | S.Bounded _ -> true (* unbudgeted side truncated: skip *))
      in
      brackets
        (Prbp.Exact_rbp.solve ~budget:starved (rcfg r) g)
        (lazy (Prbp.Exact_rbp.solve (rcfg r) g))
      (* unpruned: no incumbent, so nothing clamps the lower bound —
         this is the path where a state dropped at the cap (or settled
         but not expanded) must still be counted in [lower] *)
      && brackets
           (Prbp.Exact_rbp.solve ~budget:starved ~prune:false (rcfg r) g)
           (lazy (Prbp.Exact_rbp.solve (rcfg r) g))
      && (Dag.n_edges g > 40
         || brackets
              (Prbp.Exact_prbp.solve ~budget:starved (pcfg r) g)
              (lazy (Prbp.Exact_prbp.solve (pcfg r) g))))

(* Telemetry is observational: the same solve with a sink attached
   returns a bit-identical outcome (cost, stats, everything). *)
let test_telemetry_is_observational () =
  let g, _ = Prbp.Graphs.Fig1.full () in
  let events = ref 0 in
  let sink =
    S.Telemetry.make ~every:1 (fun _ -> incr events)
  in
  let quiet = Prbp.Exact_prbp.solve (pcfg 4) g in
  let traced = Prbp.Exact_prbp.solve ~telemetry:sink (pcfg 4) g in
  check_true "telemetry emitted" (!events > 0);
  match (quiet, traced) with
  | S.Optimal a, S.Optimal b ->
      check_int "same cost" a.S.cost b.S.cost;
      check_int "same explored" a.S.stats.S.explored b.S.stats.S.explored;
      check_int "same expansions" a.S.stats.S.expansions
        b.S.stats.S.expansions;
      check_int "same pruned" a.S.stats.S.pruned b.S.stats.S.pruned
  | _ -> Alcotest.fail "fig1 at r=4 must be Optimal both ways"

(* A wall-clock deadline produces a Bounded outcome, not an exception,
   on an instance far too large to finish in 1 ms. *)
let test_deadline_yields_bounded () =
  let g =
    Prbp.Graphs.Random_dag.make ~seed:5 ~max_in_degree:2 ~layers:7 ~width:2 ()
  in
  let budget = S.Budget.v ~max_millis:1 ~check_every:256 () in
  match Prbp.Exact_prbp.solve ~budget (pcfg 3) g with
  | S.Bounded b ->
      check_true "stopped on deadline or states"
        (b.S.stopped = S.Deadline || b.S.stopped = S.Max_states);
      check_true "lower >= 1" (b.S.lower >= 1);
      check_true "lower <= upper"
        (match b.S.upper with Some u -> b.S.lower <= u | None -> true)
  | S.Optimal _ | S.Unsolvable _ ->
      Alcotest.fail "expected a truncated (Bounded) solve under 1 ms"

(* A hand-built eight-state toy game (Engine.Make over an explicit
   transition table) whose admissible residual is exact, built so a
   frontier-only lower bound provably overshoots: the single cheap
   exit from the settled region is exactly the state the budget hides
   (dropped at the cap, or settled-but-unexpanded at a stop), while
   the surviving decoy frontier state carries d + residual = 6,
   far above OPT = 1. *)
module Toy = struct
  (* 0 -1-> 1(decoy) -1-> 4 -1-> 5 -1-> 6 -1-> 7 -1-> 3(goal)
     0 -0-> 2 -1-> 3(goal);  OPT = 1 via 0, 2, 3. *)
  let edges =
    [|
      [ (1, 1); (2, 0) ];
      [ (4, 1) ];
      [ (3, 1) ];
      [];
      [ (5, 1) ];
      [ (6, 1) ];
      [ (7, 1) ];
      [ (3, 1) ];
    |]

  (* exact cost-to-go per state: the tightest admissible residual *)
  let res = [| 1; 5; 1; 0; 4; 3; 2; 1 |]

  module G = struct
    type inst = unit

    type move = int (* destination state *)

    let name = "toy"

    let width () = 1

    let write_init () buf = buf.(0) <- 0

    let is_goal () buf = buf.(0) = 3

    let residual_lb () buf = res.(buf.(0))

    let incumbent () = None

    let expand () cur ~scratch ~emit =
      List.iter
        (fun (dst, c) ->
          scratch.(0) <- dst;
          emit dst c)
        edges.(cur.(0))

    (* the move code is the destination state itself *)
    let decode () m = m
  end

  module E = Prbp.Engine.Make (G)
end

(* A 2-state cap admits init plus the decoy and drops the cheap
   successor (state 2); the dropped state's continuation must keep the
   certified lower bound at OPT = 1 (the decoy alone would claim 6). *)
let test_toy_dropped_state_lower () =
  match Toy.E.solve ~budget:(S.Budget.states 2) ~prune:false () with
  | S.Bounded b ->
      check_true "stopped on states" (b.S.stopped = S.Max_states);
      check_int "certified lower stays at OPT" 1 b.S.lower
  | S.Optimal _ | S.Unsolvable _ -> Alcotest.fail "expected Bounded at cap 2"

(* Cancelling on the second gate stops the solve right after state 2
   is settled but before it is expanded; its continuation must keep
   the certified lower bound at OPT = 1 (the decoy alone would claim
   6). *)
let test_toy_unexpanded_state_lower () =
  let calls = ref 0 in
  let budget =
    S.Budget.v
      ~cancelled:(fun () ->
        incr calls;
        !calls >= 2)
      ~check_every:1 ()
  in
  match Toy.E.solve ~budget ~prune:false () with
  | S.Bounded b ->
      check_true "stopped on cancel" (b.S.stopped = S.Cancelled);
      check_int "certified lower stays at OPT" 1 b.S.lower
  | S.Optimal _ | S.Unsolvable _ ->
      Alcotest.fail "expected Bounded under cancellation"

(* Regression: a state-cap truncation without pruning (no incumbent
   to clamp against) still reports a sound lower bound — states
   dropped at the cap and the state settled when the stop landed both
   count as exits from the settled region. *)
let test_unpruned_truncation_lower_is_sound () =
  let g = Prbp.Graphs.Basic.pyramid 4 in
  let opt =
    match Prbp.Exact_rbp.solve (rcfg 3) g with
    | S.Optimal o -> o.S.cost
    | _ -> Alcotest.fail "pyramid 4 at r=3 must be Optimal unbudgeted"
  in
  for cap = 2 to 40 do
    match
      Prbp.Exact_rbp.solve ~budget:(S.Budget.states cap) ~prune:false (rcfg 3)
        g
    with
    | S.Bounded b ->
        check_true
          (Printf.sprintf "lower %d <= OPT %d at cap %d" b.S.lower opt cap)
          (b.S.lower <= opt);
        check_true "no incumbent without pruning" (b.S.upper = None)
    | S.Optimal o -> check_int "optimal despite cap" opt o.S.cost
    | S.Unsolvable _ -> Alcotest.fail "pyramid 4 at r=3 is solvable"
  done

(* The heuristic incumbent strategy, like the optimal one, is opt-in:
   a truncated solve attaches it only under [want_strategy]. *)
let test_incumbent_strategy_opt_in () =
  let g = Prbp.Graphs.Basic.pyramid 4 in
  let starved = S.Budget.states 20 in
  match
    ( Prbp.Exact_rbp.solve ~budget:starved (rcfg 3) g,
      Prbp.Exact_rbp.solve ~budget:starved ~want_strategy:true (rcfg 3) g )
  with
  | S.Bounded plain, S.Bounded with_strat ->
      check_true "no incumbent moves by default"
        (plain.S.incumbent_strategy = None);
      check_true "incumbent moves when requested"
        (with_strat.S.incumbent_strategy <> None);
      check_true "upper present either way"
        (plain.S.upper <> None && with_strat.S.upper <> None)
  | _ -> Alcotest.fail "expected Bounded under a 20-state budget"

(* Strategy reconstruction is opt-in: without [want_strategy] the
   outcome carries no moves and the memory estimate shrinks (no parent
   arrays are allocated). *)
let test_strategy_opt_in () =
  let g, _ = Prbp.Graphs.Fig1.full () in
  match
    ( Prbp.Exact_rbp.solve (rcfg 4) g,
      Prbp.Exact_rbp.solve ~want_strategy:true (rcfg 4) g )
  with
  | S.Optimal plain, S.Optimal with_strat ->
      check_true "no strategy by default" (plain.S.strategy = None);
      check_true "strategy when requested" (with_strat.S.strategy <> None);
      check_true "parent arrays cost heap words"
        (plain.S.stats.S.mem_words < with_strat.S.stats.S.mem_words)
  | _ -> Alcotest.fail "fig1 at r=4 must be Optimal"

(* A memory budget below the table's own footprint stops immediately
   with a Bounded outcome flagged Max_words. *)
let test_max_words_budget () =
  let g = Prbp.Graphs.Basic.pyramid 4 in
  let budget = S.Budget.v ~max_words:64 ~check_every:1 () in
  match Prbp.Exact_rbp.solve ~budget (rcfg 5) g with
  | S.Bounded b -> check_true "stopped on words" (b.S.stopped = S.Max_words)
  | S.Optimal _ | S.Unsolvable _ -> Alcotest.fail "expected Bounded"

(* Cooperative cancellation: a pre-set flag stops the solve on the
   first gate, and the outcome says so. *)
let test_cancellation () =
  let g = Prbp.Graphs.Basic.pyramid 4 in
  let budget = S.Budget.v ~cancelled:(fun () -> true) ~check_every:1 () in
  match Prbp.Exact_rbp.solve ~budget (rcfg 5) g with
  | S.Bounded b -> check_true "stopped on cancel" (b.S.stopped = S.Cancelled)
  | S.Optimal _ | S.Unsolvable _ -> Alcotest.fail "expected Bounded"

let suite =
  [
    ( "anytime",
      [
        qcheck_bounded_brackets_opt;
        case "telemetry is observational" test_telemetry_is_observational;
        case "1 ms deadline yields Bounded" test_deadline_yields_bounded;
        case "toy game: dropped state keeps lower sound"
          test_toy_dropped_state_lower;
        case "toy game: unexpanded state keeps lower sound"
          test_toy_unexpanded_state_lower;
        case "unpruned truncation lower bound is sound"
          test_unpruned_truncation_lower_is_sound;
        case "incumbent strategy is opt-in" test_incumbent_strategy_opt_in;
        case "strategy reconstruction is opt-in" test_strategy_opt_in;
        case "memory budget yields Bounded" test_max_words_budget;
        case "cancellation yields Bounded" test_cancellation;
      ] );
  ]
