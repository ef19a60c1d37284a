(* Workload [exact]: the exact engine on pinned instances — a
   prune-heavy PRBP tree (branch and bound cuts ~100k states), two
   prune-free PRBP random DAGs (on one, [prune_off_after] switches the
   residual bound off), an RBP pyramid, an infeasible black-pebbling
   instance that exhausts its reachable space, and both multiprocessor
   games.  No serve, wire or bounds code runs.

   The instances are pinned, not drawn from the seed, because the
   oracle needs their optima and because search cost is a property of
   the instance: random DAGs of one shape differ tenfold, and even an
   isomorphic relabeling moves the searched state count by ~10% (the
   heuristic bound and the last level's pop order follow node ids).
   Their order is fixed too: the process's peak RSS depends on it.
   Every solve takes under 0.2 s: on a shared host, the fastest of a
   run's solves of one instance repeats from run to run only when the
   solve is short enough to fit between other tenants' bursts.  With a
   0.34 s instance the slowest input's fastest solve spread by 0.32
   over ten runs, against 0.10 for a 0.10 s one. *)

module S = Prbp.Solver

type game =
  | Rbp of int
  | Prbp of int
  | Black of int
  | Multi_rbp of int * int  (* p, r *)
  | Multi_prbp of int * int

type instance = {
  name : string;
  dag : Prbp.Dag.t;
  game : game;
  opt : int option;  (* pinned optimum; [None]: no pebbling exists *)
}

let random ~gen ~layers ~width ~din =
  Prbp.Graphs.Random_dag.make ~seed:gen ~max_in_degree:din ~layers ~width ()

let tree k depth = (Prbp.Graphs.Tree.make ~k ~depth).Prbp.Graphs.Tree.dag

let fig1 () = fst (Prbp.Graphs.Fig1.full ())

let pinned ~quick =
  let i name dag game opt = (name, dag, game, opt) in
  if quick then
    [
      i "prbp tree(2,2) r=3" (tree 2 2) (Prbp 3) (Some 5);
      i "rbp pyramid(3) r=3" (Prbp.Graphs.Basic.pyramid 3) (Rbp 3) (Some 11);
      i "black pyramid(3) s=3" (Prbp.Graphs.Basic.pyramid 3) (Black 3) None;
      i "multi-prbp fig1 p=2 r=3" (fig1 ()) (Multi_prbp (2, 3)) (Some 4);
    ]
  else
    [
      i "prbp tree(2,3) r=3" (tree 2 3) (Prbp 3) (Some 11);
      i "prbp random(g17,5x2,din2) r=3"
        (random ~gen:17 ~layers:5 ~width:2 ~din:2)
        (Prbp 3) (Some 9);
      i "prbp random(g99,4x3,din2) r=3"
        (random ~gen:99 ~layers:4 ~width:3 ~din:2)
        (Prbp 3) (Some 6);
      i "rbp pyramid(5) r=3" (Prbp.Graphs.Basic.pyramid 5) (Rbp 3) (Some 25);
      i "black pyramid(6) s=6" (Prbp.Graphs.Basic.pyramid 6) (Black 6) None;
      i "multi-prbp fig1 p=2 r=3" (fig1 ()) (Multi_prbp (2, 3)) (Some 4);
      i "multi-rbp pyramid(3) p=2 r=3"
        (Prbp.Graphs.Basic.pyramid 3)
        (Multi_rbp (2, 3))
        (Some 11);
    ]

let instances ~quick =
  List.map (fun (name, dag, game, opt) -> { name; dag; game; opt }) (pinned ~quick)

let max_states = 30_000_000

let budget () = S.Budget.states max_states

(* ------------------------------------------------------------------ *)
(* One solve through the public entry point of the instance's game. *)

type solved = {
  status : string;
  interval : int * int option;
  stats : S.stats;
  replay : (unit -> bool) option;
      (* replays the returned optimal strategy through the checker and
         compares its cost with the optimum *)
}

let summary oc check =
  let replay =
    match oc with
    | S.Optimal { strategy = Some ms; cost; _ } ->
        Some (fun () -> Replay.costs_exactly ~cost (check ms))
    | _ -> None
  in
  {
    status = S.outcome_label oc;
    interval = S.interval oc;
    stats = S.stats_of oc;
    replay;
  }

let solve ?(want_strategy = false) ?(prune = true) ?(jobs = 1)
    ?(budget = budget ()) i =
  let g = i.dag in
  match i.game with
  | Prbp r ->
      summary
        (Prbp.Exact_prbp.solve ~budget ~want_strategy ~prune ~jobs
           (Prbp.Prbp_game.config ~r ()) g)
        (Replay.prbp ~r g)
  | Rbp r ->
      summary
        (Prbp.Exact_rbp.solve ~budget ~want_strategy ~prune ~jobs
           (Prbp.Rbp.config ~r ()) g)
        (Replay.rbp ~r g)
  | Black s ->
      (* all moves are free: branch and bound is moot, and the game has
         no I/O certificate to replay *)
      summary
        (Prbp.Black.solve ~budget ~want_strategy ~jobs ~s g)
        (fun _ -> Ok 0)
  | Multi_rbp (p, r) ->
      summary
        (Prbp.Exact_multi.rbp_solve ~budget ~want_strategy ~prune ~jobs
           (Prbp.Multi.config ~p ~r ()) g)
        (Replay.multi_rbp ~p ~r g)
  | Multi_prbp (p, r) ->
      summary
        (Prbp.Exact_multi.prbp_solve ~budget ~want_strategy ~prune ~jobs
           (Prbp.Multi.config ~p ~r ()) g)
        (Replay.multi_prbp ~p ~r g)

let matches_pin i s =
  match (i.opt, s.status, s.interval) with
  | Some opt, "optimal", (c, _) -> c = opt
  | None, "unsolvable", _ -> true
  | _ -> false

(* After the window: one strategy-bearing solve per instance, replayed
   through the checker.  An instance whose strategy fails replay fails
   every one of its timed solves. *)
let strategy_oracle instances =
  List.map
    (fun i ->
      match i.opt with
      | None -> (i.name, true)
      | Some _ ->
          let s = solve ~want_strategy:true i in
          let ok =
            matches_pin i s
            && match s.replay with Some f -> f () | None -> false
          in
          if not ok then Util.log "exact: %s: strategy failed replay" i.name;
          (i.name, ok))
    instances

let settings_json ~quick =
  let module J = Util.Json in
  [
    ( "instances",
      J.List (List.map (fun (name, _, _, _) -> J.String name) (pinned ~quick)) );
    ("max_states", J.Int max_states);
    ("jobs", J.Int 1);
    ("prune", J.Bool true);
  ]

(* ------------------------------------------------------------------ *)

let run (st : Workload.settings) =
  let passes, setup_times, rss_mb =
    Workload.passes_with_setup ~seconds:st.seconds
      ~setup:(fun () -> instances ~quick:st.quick)
      (List.map (fun i ->
           let s, dt = Workload.timed_op (fun () -> solve i) in
           (i, s, dt)))
  in
  let instances = instances ~quick:st.quick in
  List.iteri
    (fun k i ->
      let mine = List.map (fun pass -> List.nth pass k) passes in
      let _, s, _ = List.hd mine in
      let dts = List.map (fun (_, _, dt) -> dt) mine in
      Util.log "exact: %-32s fastest %.4f s, median %.4f s, %d states explored, %d pruned"
        i.name (List.fold_left min infinity dts) (Util.median dts) s.stats.S.explored
        s.stats.S.pruned)
    instances;
  let oracle = strategy_oracle instances in
  let slices =
    List.map
      (fun results ->
        let ops =
          List.mapi
            (fun input (i, s, dt) ->
              let ok = matches_pin i s && List.assoc i.name oracle in
              if not (matches_pin i s) then
                Util.log "exact: %s: %s does not match the pinned optimum"
                  i.name s.status;
              {
                Workload.input;
                lat = dt;
                ttw = dt;
                width = 0;
                target = 0;
                ok;
                good = ok;
              })
            results
        in
        Workload.of_pass ops)
      passes
  in
  Workload.result ~per_input:true ~setup_times
    ~rss_mb
    ~settings_json:(settings_json ~quick:st.quick)
    slices

(* ------------------------------------------------------------------ *)
(* Traced run: one pass with spans and metrics on, plus the ablation
   passes the engine's per-layer numbers need. *)

let engine_counter name = Prbp.Obs.Metrics.counter name

let counters =
  [
    ("engine.expansions", engine_counter "prbp_engine_expansions_total");
    ("engine.explored", engine_counter "prbp_engine_explored_total");
    ("engine.pruned", engine_counter "prbp_engine_pruned_total");
    ("engine.table_resizes", engine_counter "prbp_engine_table_resizes_total");
  ]

let snapshot () =
  List.map (fun (k, c) -> (k, Prbp.Obs.Metrics.Counter.value c)) counters

let timed_pass ?(want_strategy = false) ?(prune = true) ?(jobs = 1) ?budget
    ?(traced = false) instances =
  List.map
    (fun i ->
      let span = if traced then Some ("bench.exact.solve", [ ("instance", i.name) ]) else None in
      let s, dt =
        Workload.timed_op ?span (fun () -> solve ~want_strategy ~prune ~jobs ?budget i)
      in
      (i, s, dt))
    instances

let pass_wall results = Util.sum (List.map (fun (_, _, dt) -> dt) results)

let trace (st : Workload.settings) =
  let instances = instances ~quick:st.quick in
  let module M = Prbp.Obs.Metrics in
  let module Sp = Prbp.Obs.Span in
  (* untraced reference pass first; it also warms the heap *)
  let plain = timed_pass instances in
  M.set_enabled true;
  let metered = timed_pass instances in
  Sp.set_enabled true;
  let before = snapshot () in
  let gc0 = Gc.quick_stat () in
  let traced = timed_pass ~traced:true instances in
  let gc1 = Gc.quick_stat () in
  let delta = List.map2 (fun (k, v) (_, v0) -> (k, float_of_int (v - v0))) (snapshot ()) before in
  Sp.set_enabled false;
  M.set_enabled false;
  let stats = List.map (fun (_, s, _) -> s.stats) traced in
  let total f = float_of_int (Util.isum (List.map f stats)) in
  let explored = total (fun s -> s.S.explored)
  and pruned = total (fun s -> s.S.pruned)
  and expansions = total (fun s -> s.S.expansions) in
  (* prune-free instances: the heuristic bound never cut a state *)
  let prune_free =
    List.filter_map
      (fun (i, s, dt) -> if s.stats.S.pruned = 0 then Some (i, dt) else None)
      plain
  in
  let unpruned = timed_pass ~prune:false (List.map fst prune_free) in
  let with_strategy = timed_pass ~want_strategy:true instances in
  (* a spill tier that is never reached routes jobs=1 through the
     parallel engine's code path *)
  let par1 =
    timed_pass ~budget:(S.Budget.v ~max_states ~spill_words:max_int ()) instances
  in
  let par2 = timed_pass ~jobs:2 instances in
  let ratio a b = if b > 0. then a /. b else 0. in
  let oracle = strategy_oracle instances in
  let failed =
    List.length
      (List.filter (fun (i, s, _) -> not (matches_pin i s && List.assoc i.name oracle)) traced)
  in
  let metrics =
    delta
    @ [
        ("engine.prune_yield", ratio pruned (explored +. pruned));
        ( "engine.prune_disabled",
          float_of_int
            (List.length (List.filter (fun s -> s.S.prune_disabled) stats)) );
        ("engine.mem_words", total (fun s -> s.S.mem_words));
        ("engine.explored_per_s", ratio explored (pass_wall traced));
        ( "engine.alloc_words_per_expansion",
          ratio (gc1.Gc.minor_words -. gc0.Gc.minor_words) expansions );
        ( "engine.prune_overhead",
          ratio (Util.sum (List.map snd prune_free)) (pass_wall unpruned) );
        ("engine.strategy_overhead", ratio (pass_wall with_strategy) (pass_wall plain));
        ("engine.par_path_j1_ratio", ratio (pass_wall par1) (pass_wall plain));
        ("engine.par_speedup_j2", ratio (pass_wall plain) (pass_wall par2));
        ("verify.moves_per_s", Replay.moves_per_s ());
        ("obs.trace_overhead", ratio (pass_wall traced) (pass_wall plain));
        ("obs.metrics_overhead", ratio (pass_wall metered) (pass_wall plain));
      ]
    @ Workload.gc_delta gc0 gc1
  in
  Workload.trace_result ~attempted:(List.length traced) ~failed
    ~settings_json:(settings_json ~quick:st.quick)
    metrics
