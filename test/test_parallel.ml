(* The multicore engine (Engine.Make at jobs >= 2): jobs-equivalence
   of optima, determinism of truncated-run certificates across domain
   counts, the sharded state table's owner routing and handles, the
   spill tier, the prune auto-off switch, and the harness-level jobs
   composition. *)

open Test_util
module Flat = Prbp_solver.State_table.Flat
module Sharded = Prbp_solver.State_table.Sharded
module Clock = Prbp.Obs.Clock

let rcfg r = Prbp.Rbp.config ~r ()

let pcfg r = Prbp.Prbp_game.config ~r ()

let fig1 () = fst (Prbp.Graphs.Fig1.full ())

(* --- jobs-equivalence ---------------------------------------------- *)

(* The optimum (and unsolvability) cannot depend on the domain count. *)
let qcheck_jobs_equiv_rbp =
  qcase ~count:25 "RBP: solve ~jobs:k agrees with ~jobs:1 (k = 2, 4)"
    QCheck.(
      triple (int_range 1 500) (int_range 2 4) (int_range 2 3))
    (fun (seed, layers, width) ->
      let g =
        Prbp.Graphs.Random_dag.make ~seed ~max_in_degree:3 ~layers ~width ()
      in
      let r = max 2 (min 4 (Prbp.Dag.max_in_degree g + 1)) in
      let solve jobs = Prbp.Exact_rbp.solve ~jobs (rcfg r) g in
      let reference = S.interval (solve 1) in
      List.for_all (fun k -> S.interval (solve k) = reference) [ 2; 4 ])

let qcheck_jobs_equiv_prbp =
  qcase ~count:10 "PRBP: solve ~jobs:k agrees with ~jobs:1 (k = 2, 4)"
    QCheck.(pair (int_range 1 200) (int_range 2 3))
    (fun (seed, layers) ->
      let g =
        Prbp.Graphs.Random_dag.make ~seed ~max_in_degree:3 ~layers ~width:2 ()
      in
      let r = max 2 (min 4 (Prbp.Dag.max_in_degree g + 1)) in
      let solve jobs = Prbp.Exact_prbp.solve ~jobs (pcfg r) g in
      let reference = S.interval (solve 1) in
      List.for_all (fun k -> S.interval (solve k) = reference) [ 2; 4 ])

(* jobs above the shard count clamp rather than misbehave. *)
let jobs_clamp () =
  let g = fig1 () in
  check_int "jobs=64 clamps to the shard count" 3
    (cost_exn "rbp" (Prbp.Exact_rbp.solve ~jobs:64 (rcfg 4) g));
  check_int "jobs=0 falls back to sequential" 3
    (cost_exn "rbp" (Prbp.Exact_rbp.solve ~jobs:0 (rcfg 4) g))

(* --- truncated-run determinism ------------------------------------- *)

(* A state-count stop is decided at the barrier, so the certified
   interval AND the aggregate counters must be identical for every
   domain count among parallel runs. *)
let bounded_deterministic () =
  let g =
    Prbp.Graphs.Random_dag.make ~seed:11 ~max_in_degree:3 ~layers:4 ~width:4
      ()
  in
  let budget = S.Budget.v ~max_states:3_000 () in
  let solve jobs = Prbp.Exact_prbp.solve ~budget ~jobs (pcfg 3) g in
  match (solve 2, solve 4) with
  | S.Bounded b2, S.Bounded b4 ->
      check_int "lower" b2.S.lower b4.S.lower;
      check_true "upper" (b2.S.upper = b4.S.upper);
      check_true "reason" (b2.S.stopped = b4.S.stopped);
      check_int "explored" b2.S.stats.S.explored b4.S.stats.S.explored;
      check_int "expansions" b2.S.stats.S.expansions b4.S.stats.S.expansions;
      check_int "pruned" b2.S.stats.S.pruned b4.S.stats.S.pruned;
      check_int "frontier" b2.S.stats.S.frontier b4.S.stats.S.frontier;
      (* internal consistency of the certificate (bracketing against
         the true optimum is qcheck-covered in test_anytime) *)
      check_true "lower >= 1" (b2.S.lower >= 1);
      check_true "lower <= upper"
        (match b2.S.upper with Some u -> b2.S.lower <= u | None -> true)
  | o2, o4 ->
      Alcotest.failf "expected Bounded/Bounded, got %s/%s"
        (S.outcome_label o2) (S.outcome_label o4)

(* Under a fake constant clock every timing field is pinned, so two
   identical parallel runs must produce byte-identical stats, and
   jobs=2 vs jobs=4 must agree on everything except the memory
   footprint (lane counts scale with the domain count). *)
let fake_clock_deterministic () =
  Clock.set_source (Some (fun () -> 42.0));
  Fun.protect ~finally:(fun () -> Clock.set_source None) @@ fun () ->
  let g = fig1 () in
  let solve jobs = Prbp.Exact_prbp.solve ~jobs (pcfg 4) g in
  match (solve 2, solve 2, solve 4) with
  | S.Optimal a, S.Optimal b, S.Optimal c ->
      check_int "repeat: explored" a.S.stats.S.explored b.S.stats.S.explored;
      check_int "repeat: expansions" a.S.stats.S.expansions
        b.S.stats.S.expansions;
      check_int "repeat: pruned" a.S.stats.S.pruned b.S.stats.S.pruned;
      check_int "repeat: frontier" a.S.stats.S.frontier b.S.stats.S.frontier;
      (* mem_words is NOT compared: lane-buffer growth depends on which
         domain stole which chunk, an execution detail outside the
         determinism contract (optimum, interval, search counters) *)
      check_true "repeat: elapsed" (a.S.stats.S.elapsed_s = b.S.stats.S.elapsed_s);
      check_int "cost across jobs" a.S.cost c.S.cost;
      check_int "explored across jobs" a.S.stats.S.explored
        c.S.stats.S.explored;
      check_int "expansions across jobs" a.S.stats.S.expansions
        c.S.stats.S.expansions;
      check_int "pruned across jobs" a.S.stats.S.pruned c.S.stats.S.pruned;
      check_true "elapsed pinned by the fake clock"
        (a.S.stats.S.elapsed_s = 0.0 && c.S.stats.S.elapsed_s = 0.0)
  | _ -> Alcotest.fail "expected Optimal outcomes"

(* --- the sharded table ---------------------------------------------- *)

let key_of buf k =
  buf.(0) <- k * 0x9e37;
  buf.(1) <- k lxor 0x5bd1e995

(* The owner-routed surface the parallel engine uses: each key goes
   into its owner shard, and the packed handle leads back to it. *)
let sharded_handles () =
  let t = Sharded.create ~shards:4 ~width:2 () in
  check_int "shard count" 4 (Sharded.shards t);
  let buf = [| 0; 0 |] and back = [| 0; 0 |] in
  let handles =
    Array.init 500 (fun k ->
        key_of buf k;
        let s = Sharded.owner t buf in
        Sharded.handle t ~shard:s (Flat.add (Sharded.shard t s) buf (2 * k)))
  in
  Array.iteri
    (fun k h ->
      (* handles pack (index, shard) and must round-trip *)
      let s = Sharded.shard_of_handle t h in
      let j = Sharded.index_of_handle t h in
      check_int "handle round-trip" h (Sharded.handle t ~shard:s j);
      key_of buf k;
      check_int "handle names the owner shard" (Sharded.owner t buf) s;
      let f = Sharded.shard t s in
      check_int "value by handle" (2 * k) (Flat.value f j);
      Flat.read_key f j back;
      check_true "key by handle" (back = buf))
    handles;
  let shards = List.init 4 (Sharded.shard t) in
  check_int "length" 500
    (List.fold_left (fun acc f -> acc + Flat.length f) 0 shards);
  check_true "every shard owns keys"
    (List.for_all (fun f -> Flat.length f > 0) shards);
  check_int "words sum the shards"
    (List.fold_left (fun acc f -> acc + Flat.words f) 0 shards)
    (Sharded.words t)

(* --- spill tier ----------------------------------------------------- *)

(* tree(2,3) PRBP at r=3 has a ~1.3M-word full footprint; a 250k-word
   cap forces repeated eviction, and the solve must still finish with
   the exact optimum.  (Thresholds from measurement: the peak one-level
   frontier must fit under the cap or the solve correctly degrades to
   Bounded — see the sound-degrade case below.) *)
let spill_instance () =
  ((Prbp.Graphs.Tree.make ~k:2 ~depth:3).Prbp.Graphs.Tree.dag, 3)

let spill_reaches_optimum () =
  let g, r = spill_instance () in
  let opt = cost_exn "prbp full" (Prbp.Exact_prbp.solve (pcfg r) g) in
  List.iter
    (fun jobs ->
      let budget =
        S.Budget.v ~max_words:250_000 ~spill_words:50_000_000 ()
      in
      match Prbp.Exact_prbp.solve ~budget ~jobs (pcfg r) g with
      | S.Optimal o ->
          check_int
            (Printf.sprintf "cost under eviction (jobs=%d)" jobs)
            opt o.S.cost;
          check_true
            (Printf.sprintf "states were spilled (jobs=%d)" jobs)
            (o.S.stats.S.spilled > 0)
      | o ->
          Alcotest.failf "jobs=%d: expected Optimal, got %s" jobs
            (S.outcome_label o))
    [ 1; 3 ]

(* When even the spill tier cannot absorb the search, the solve stops
   at Max_words with a certified interval — never an unsound answer. *)
let spill_degrades_soundly () =
  let g, r = spill_instance () in
  let opt = cost_exn "prbp full" (Prbp.Exact_prbp.solve (pcfg r) g) in
  let budget = S.Budget.v ~max_words:60_000 ~spill_words:100_000 () in
  match Prbp.Exact_prbp.solve ~budget ~jobs:2 (pcfg r) g with
  | S.Bounded b ->
      check_true "stopped on the word cap" (b.S.stopped = S.Max_words);
      check_true "sound lower" (b.S.lower >= 1 && b.S.lower <= opt);
      check_true "sound upper"
        (match b.S.upper with Some u -> opt <= u | None -> true)
  | o -> Alcotest.failf "expected Bounded, got %s" (S.outcome_label o)

(* want_strategy disables the spill tier (gid compaction would orphan
   the parent links); the budget then applies as a plain word cap. *)
let spill_vs_strategy () =
  let g, r = spill_instance () in
  let budget = S.Budget.v ~max_words:60_000 ~spill_words:50_000_000 () in
  match Prbp.Exact_prbp.solve ~budget ~want_strategy:true (pcfg r) g with
  | S.Bounded b -> check_int "no spilling happened" 0 b.S.stats.S.spilled
  | S.Optimal o -> check_int "no spilling happened" 0 o.S.stats.S.spilled
  | S.Unsolvable _ -> Alcotest.fail "tree(2,3) is solvable"

(* --- prune auto-off -------------------------------------------------- *)

let prune_auto_off () =
  let g = fig1 () in
  let opt = cost_exn "rbp" (Prbp.Exact_rbp.solve (rcfg 4) g) in
  (* an aggressive threshold switches the residual checks off almost
     immediately (unless a prune landed first); the optimum must not
     move either way *)
  let budget = S.Budget.v ~check_every:1 ~prune_off_after:1 () in
  List.iter
    (fun jobs ->
      match Prbp.Exact_rbp.solve ~budget ~jobs (rcfg 4) g with
      | S.Optimal o ->
          check_int
            (Printf.sprintf "cost with auto-off armed (jobs=%d)" jobs)
            opt o.S.cost;
          check_true
            (Printf.sprintf "auto-off fired or pruning was live (jobs=%d)"
               jobs)
            (o.S.stats.S.prune_disabled || o.S.stats.S.pruned > 0)
      | o ->
          Alcotest.failf "jobs=%d: expected Optimal, got %s" jobs
            (S.outcome_label o))
    [ 1; 2 ];
  (* the default threshold never fires on a small instance *)
  match Prbp.Exact_rbp.solve (rcfg 4) g with
  | S.Optimal o ->
      check_false "default threshold stays on" o.S.stats.S.prune_disabled
  | _ -> Alcotest.fail "expected Optimal"

(* --- strategies from the parallel engine ----------------------------- *)

let par_strategy_replays () =
  let g = fig1 () in
  (match Prbp.Exact_prbp.solve ~jobs:3 ~want_strategy:true (pcfg 4) g with
  | S.Optimal { S.cost; strategy = Some moves; _ } ->
      check_int "PRBP optimal at jobs=3" 2 cost;
      check_int "replay agrees" cost (prbp_cost ~r:4 g moves)
  | _ -> Alcotest.fail "expected Optimal with a strategy");
  match Prbp.Exact_rbp.solve ~jobs:2 ~want_strategy:true (rcfg 4) g with
  | S.Optimal { S.cost; strategy = Some moves; _ } ->
      check_int "RBP optimal at jobs=2" 3 cost;
      check_int "replay agrees" cost (rbp_cost ~r:4 g moves)
  | _ -> Alcotest.fail "expected Optimal with a strategy"

(* --- harness jobs composition ---------------------------------------- *)

let compose_solve_jobs () =
  let module E = Prbp.Experiment in
  check_int "8 cores / 3 experiments" 2
    (E.solve_jobs ~cores:8 ~experiment_jobs:3);
  check_int "fewer cores than experiments" 1
    (E.solve_jobs ~cores:2 ~experiment_jobs:5);
  check_int "one experiment takes the host" 16
    (E.solve_jobs ~cores:16 ~experiment_jobs:1);
  for cores = 1 to 12 do
    for ej = 1 to 12 do
      let sj = E.solve_jobs ~cores ~experiment_jobs:ej in
      check_true "at least one domain per solve" (sj >= 1);
      check_true "product capped at the host cores"
        (sj = 1 || ej * sj <= cores)
    done
  done;
  List.iter
    (fun (cores, ej) ->
      match E.solve_jobs ~cores ~experiment_jobs:ej with
      | exception Invalid_argument _ -> ()
      | v -> Alcotest.failf "expected Invalid_argument, got %d" v)
    [ (0, 1); (1, 0); (-4, 2) ]

let suite =
  [
    ( "parallel",
      [
        qcheck_jobs_equiv_rbp;
        qcheck_jobs_equiv_prbp;
        case "jobs clamp" jobs_clamp;
        case "bounded runs are jobs-deterministic" bounded_deterministic;
        case "stats deterministic under a fake clock"
          fake_clock_deterministic;
        case "sharded table: handle round-trips" sharded_handles;
        slow_case "spill tier reaches the optimum" spill_reaches_optimum;
        case "spill tier degrades to a sound interval"
          spill_degrades_soundly;
        case "want_strategy disables spilling" spill_vs_strategy;
        case "prune auto-off keeps the optimum" prune_auto_off;
        case "parallel strategies replay" par_strategy_replays;
        case "Experiment.solve_jobs composition" compose_solve_jobs;
      ] );
  ]
