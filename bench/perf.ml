(* Bechamel micro-benchmarks of the library itself: simulator step
   rate, exact-solver throughput, generator and extraction speed —
   plus a single-shot solver throughput benchmark on harder instances
   that emits machine-readable BENCH_solver.json. *)

open Bechamel
open Toolkit
module Json = Prbp.Obs.Json

(* ------------------------------------------------------------------ *)
(* Solver throughput on hard exact instances, with the branch-and-
   bound ablation.  Each case is run once per prune setting (these are
   seconds-long searches, not micro-benchmarks) and the wall times and
   explored/pruned state counts land in BENCH_solver.json so later PRs
   can track the perf trajectory. *)

type solver_case = {
  name : string;
  game : string;
      (* "rbp" | "prbp" | "black" | "multi-rbp" | "multi-prbp" — one
         row per engine instance *)
  dag : Prbp_dag.Dag.t;
  r : int;  (* capacity; for "black" the pebble budget s *)
  p : int;  (* processors; 1 for the single-processor games *)
  budget : int;
}

let solver_cases () =
  [
    {
      name = "prbp random(seed5,7x2,din2) n=14";
      game = "prbp";
      dag =
        Prbp.Graphs.Random_dag.make ~seed:5 ~max_in_degree:2 ~layers:7
          ~width:2 ();
      r = 3;
      p = 1;
      budget = 30_000_000;
    };
    {
      name = "prbp tree(2,3) n=15";
      game = "prbp";
      dag = (Prbp.Graphs.Tree.make ~k:2 ~depth:3).Prbp.Graphs.Tree.dag;
      r = 3;
      p = 1;
      budget = 30_000_000;
    };
    {
      name = "rbp random(seed11,4x4,din3) n=16";
      game = "rbp";
      dag =
        Prbp.Graphs.Random_dag.make ~seed:11 ~max_in_degree:3 ~layers:4
          ~width:4 ();
      r = 4;
      p = 1;
      budget = 30_000_000;
    };
    {
      name = "black pyramid(6) n=28 s=8";
      game = "black";
      dag = Prbp.Graphs.Basic.pyramid 6;
      r = 8;
      p = 1;
      budget = 30_000_000;
    };
    {
      name = "multi-rbp pyramid(3) n=10 p=2";
      game = "multi-rbp";
      dag = Prbp.Graphs.Basic.pyramid 3;
      r = 3;
      p = 2;
      budget = 30_000_000;
    };
    {
      name = "multi-prbp fig1 n=10 p=2";
      game = "multi-prbp";
      dag = fst (Prbp.Graphs.Fig1.full ());
      r = 3;
      p = 2;
      budget = 30_000_000;
    };
  ]

type run_result = {
  outcome : string;  (* "optimal" | "bounded" *)
  lower : int;
  upper : int option;  (* = Some lower when optimal *)
  explored : int;
  pruned : int;
  wall_s : float;
  metrics : (string * int) list;
      (* per-run deltas of the engine's registry counters — an
         independent read of the same search the stats describe *)
}

(* The engine registers these at load time; [Metrics.counter] hands the
   same instruments back (registry dedup), so before/after values frame
   one case's footprint. *)
let engine_counters =
  [
    ("expansions", Prbp.Obs.Metrics.counter "prbp_engine_expansions_total");
    ("explored", Prbp.Obs.Metrics.counter "prbp_engine_explored_total");
    ("pruned", Prbp.Obs.Metrics.counter "prbp_engine_pruned_total");
    ( "table_resizes",
      Prbp.Obs.Metrics.counter "prbp_engine_table_resizes_total" );
  ]

let counters_snapshot () =
  List.map
    (fun (k, c) -> (k, Prbp.Obs.Metrics.Counter.value c))
    engine_counters

let counters_delta before =
  List.map2
    (fun (k, v) (_, v0) -> (k, v - v0))
    (counters_snapshot ()) before

let run_case ?(jobs = 1) c ~prune =
  (* level the heap between runs so a huge search doesn't tax the GC
     accounting of the next, smaller one *)
  Gc.compact ();
  let budget = Prbp.Solver.Budget.states c.budget in
  let summarize outcome =
    match outcome with
    | Prbp.Solver.Unsolvable _ ->
        failwith ("solver bench: no pebbling for " ^ c.name)
    | _ ->
        let stats = Prbp.Solver.stats_of outcome in
        let lower, upper = Prbp.Solver.interval outcome in
        {
          outcome = Prbp.Solver.outcome_label outcome;
          lower;
          upper;
          explored = stats.Prbp.Solver.explored;
          pruned = stats.Prbp.Solver.pruned;
          wall_s = 0.;
          metrics = [];
        }
  in
  let before = counters_snapshot () in
  let t0 = Prbp.Obs.Clock.now () in
  let res =
    match c.game with
    | "prbp" ->
        summarize
          (Prbp.Exact_prbp.solve ~budget ~prune ~jobs
             (Prbp.Prbp_game.config ~r:c.r ())
             c.dag)
    | "black" ->
        (* all-zero-cost instance: prune has nothing to cut, both runs
           measure raw reachability throughput *)
        summarize (Prbp.Black.solve ~budget ~jobs ~s:c.r c.dag)
    | "multi-rbp" ->
        summarize
          (Prbp.Exact_multi.rbp_solve ~budget ~prune ~jobs
             (Prbp.Multi.config ~p:c.p ~r:c.r ())
             c.dag)
    | "multi-prbp" ->
        summarize
          (Prbp.Exact_multi.prbp_solve ~budget ~prune ~jobs
             (Prbp.Multi.config ~p:c.p ~r:c.r ())
             c.dag)
    | _ ->
        summarize
          (Prbp.Exact_rbp.solve ~budget ~prune ~jobs
             (Prbp.Rbp.config ~r:c.r ())
             c.dag)
  in
  {
    res with
    wall_s = Prbp.Obs.Clock.elapsed_s t0;
    metrics = counters_delta before;
  }

let rate r = float_of_int r.explored /. (r.wall_s +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Bracket rows: the certified-bounds subsystem at scales the exact
   solvers cannot touch.  One row per (family, game); each bracket
   runs under a 10-second wall-clock budget and lands in
   BENCH_solver.json next to the solver cases, with its interval
   width and winning lower/upper rules for the width regression gate
   ([--check-widths]).  Closed forms attach via the DAGs' family
   tags.  Schema v10: each row also carries its convergence curve
   (how the bracket tightened over the budget), summarized in a
   "convergence" array with time-to-width stats. *)

let bracket_cases () =
  let fft = Prbp.Graphs.Fft.make ~m:128 in
  let mm = Prbp.Graphs.Matmul.make ~m1:20 ~m2:20 ~m3:20 in
  let qkt = Prbp.Graphs.Attention.qkt ~m:16 ~d:8 in
  [
    ("fft:128", `Rbp, fft.Prbp.Graphs.Fft.dag, 6);
    ("fft:128", `Prbp, fft.Prbp.Graphs.Fft.dag, 6);
    ("matmul:20:20:20", `Prbp, mm.Prbp.Graphs.Matmul.dag, 2);
    ("attention-qkt:16:8", `Prbp, qkt.Prbp.Graphs.Matmul.dag, 4);
  ]

let run_one_bracket game ~budget ~r g =
  match game with
  | `Rbp -> Prbp.Bounds.Bracket.rbp ~budget ~r g
  | `Prbp -> Prbp.Bounds.Bracket.prbp ~budget ~r g

let bracket_budget () = Prbp.Solver.Budget.v ~max_millis:10_000 ()

(* Per-bracket convergence summary: how fast the certified interval
   closed.  Times are wall-clock and wobble run to run, so the
   regression gate never compares them — they are for reading, the
   structural invariants (monotone, final point = bracket) are for
   gating. *)
let convergence_json family game r (b : Prbp.Bounds.Bracket.t) =
  let module B = Prbp.Bounds.Bracket in
  let time_to_width w =
    match Prbp.Solver.Convergence.time_to_width b.B.curve w with
    | Some s -> Json.Float s
    | None -> Json.Null
  in
  Json.Obj
    [
      ("family", Json.String family);
      ("game", Json.String game);
      ("r", Json.Int r);
      ("curve_points", Json.Int (List.length b.B.curve));
      ("final_width", Json.Int b.B.width);
      ( "time_to_width",
        Json.Obj
          (List.map
             (fun w -> (string_of_int w, time_to_width w))
             [ 8; 4; 2; 1; 0 ]) );
    ]

let run_brackets ppf =
  Format.fprintf ppf "@.=== PERF — certified brackets at scale ===@.@.";
  let t =
    Prbp.Table.make
      ~header:
        [ "family"; "game"; "r"; "bracket"; "width"; "rule"; "method"; "time" ]
  in
  let budget = bracket_budget () in
  let rows =
    List.filter_map
      (fun (family, game, g, r) ->
        Gc.compact ();
        match run_one_bracket game ~budget ~r g with
        | Error e ->
            Format.fprintf ppf "bracket %s: %s@." family e;
            None
        | Ok b ->
            let module B = Prbp.Bounds.Bracket in
            let module L = Prbp.Bounds.Lower in
            Prbp.Table.add_rowf t "%s|%s|%d|[%d,%d]|%d|%s|%s|%.1fs" family
              (L.game_label b.B.game) r b.B.lower.L.bound b.B.upper b.B.width
              b.B.lower.L.rule
              (Prbp.Bounds.Upper.meth_label b.B.meth)
              b.B.elapsed_s;
            Some
              ( Prbp.Wire.encode_bracket (Prbp.Wire.bracket_of ~family b),
                convergence_json family (L.game_label b.B.game) r b ))
      (bracket_cases ())
  in
  Prbp.Table.print ppf t;
  List.split rows

(* ------------------------------------------------------------------ *)
(* Frontier rows: certified multiprocessor trade-off fronts.  One row
   per (family, game) at a fixed processor count — a small instance
   the exact engine settles completely (the committed baseline pins an
   exact, fully verified front) and paper-scale instances served by
   the pooled-capacity brackets.  Schema v9 lands them in a
   "frontiers" array next to the bracket rows. *)

let frontier_cases () =
  let module F = Prbp.Frontier.Frontier in
  let fig1 = fst (Prbp.Graphs.Fig1.full ()) in
  let fft = Prbp.Graphs.Fft.make ~m:64 in
  let qkt = Prbp.Graphs.Attention.qkt ~m:16 ~d:8 in
  [
    ("fig1", F.Rbp_mc, fig1, 2, [ 3; 4 ]);
    ("fig1", F.Prbp_mc, fig1, 2, [ 3; 4 ]);
    ("fft:64", F.Rbp_mc, fft.Prbp.Graphs.Fft.dag, 4, [ 4; 8 ]);
    ("attention-qkt:16:8", F.Prbp_mc, qkt.Prbp.Graphs.Matmul.dag, 4, [ 4; 8 ]);
  ]

(* one frontier case, swept under the standard bench budget *)
let sweep_frontier (family, game, g, p, rs) =
  Gc.compact ();
  let budget = bracket_budget () in
  let f = Prbp.Frontier.Frontier.sweep ~budget game ~p ~rs g in
  Prbp.Wire.frontier_of ~family ~dag:g f

let run_frontiers ppf =
  let module W = Prbp.Wire in
  Format.fprintf ppf "@.=== PERF — certified frontiers ===@.@.";
  let t =
    Prbp.Table.make
      ~header:[ "family"; "game"; "points"; "open"; "width"; "time" ]
  in
  let rows =
    List.map
      (fun ((family, _, _, _, _) as case) ->
        let f = sweep_frontier case in
        Prbp.Table.add_rowf t "%s|%s|%d|%d|%d|%.1fs" family
          (W.game_label f.W.game) (W.frontier_points_n f) (W.frontier_open_n f)
          (W.frontier_width f) f.W.elapsed_s;
        W.encode_frontier f)
      (frontier_cases ())
  in
  Prbp.Table.print ppf t;
  rows

let check_frontier_widths ppf baseline =
  let module R = Prbp.Regression in
  if baseline = [] then begin
    Format.fprintf ppf
      "check-widths: no committed frontier baseline — brackets only@.";
    0
  end
  else begin
    let current = List.map sweep_frontier (frontier_cases ()) in
    let verdicts = R.check_frontiers ~baseline current in
    List.iter (Format.fprintf ppf "%a@." R.pp_frontier_verdict) verdicts;
    if R.frontier_regressed verdicts then 1 else 0
  end

(* [--check-widths]: re-run the bracket cases under the standard bench
   budget and gate on the interval widths committed in
   BENCH_solver.json.  Returns the process exit code: 1 when any
   committed case's width regressed, a case with a baseline failed to
   bracket at all, or a committed row no longer decodes; 0 otherwise.
   The frontier rows gate too: settled point counts must not shrink,
   open intervals must not multiply, summed widths must not grow past
   the slack.  Every fresh bracket's convergence curve must be
   monotone and end exactly at the certified bracket — a structural
   gate with no timing comparisons, so no CI flakes. *)
let check_widths ppf =
  let module R = Prbp.Regression in
  match R.of_file "BENCH_solver.json" with
  | exception Sys_error e ->
      Format.fprintf ppf "check-widths: cannot read BENCH_solver.json: %s@." e;
      0
  | Error e ->
      Format.fprintf ppf "check-widths: BENCH_solver.json: %s@." e;
      1
  | Ok { R.brackets = []; _ } ->
      Format.fprintf ppf
        "check-widths: no committed bracket baseline — nothing to gate@.";
      0
  | Ok baseline ->
      Format.fprintf ppf
        "@.=== PERF — interval-width regression gate ===@.@.";
      let budget = bracket_budget () in
      let failed = ref false in
      let current =
        List.filter_map
          (fun (family, game, g, r) ->
            Gc.compact ();
            match run_one_bracket game ~budget ~r g with
            | Error e ->
                Format.fprintf ppf "bracket %s failed: %s@." family e;
                failed := true;
                None
            | Ok b -> Some (Prbp.Wire.bracket_of ~family b))
          (bracket_cases ())
      in
      let verdicts = R.check ~baseline:baseline.R.brackets current in
      List.iter (Format.fprintf ppf "%a@." R.pp_verdict) verdicts;
      Format.fprintf ppf "@.=== PERF — convergence-curve gate (v10) ===@.@.";
      let curve_verdicts = List.map R.check_curve current in
      List.iter (Format.fprintf ppf "%a@." R.pp_curve_verdict) curve_verdicts;
      let bracket_code =
        if R.regressed verdicts || R.curves_regressed curve_verdicts || !failed
        then 1
        else 0
      in
      max bracket_code (check_frontier_widths ppf baseline.R.frontiers)

let show_interval r =
  match r.upper with
  | Some u when u = r.lower -> string_of_int r.lower
  | Some u -> Printf.sprintf "[%d,%d]" r.lower u
  | None -> Printf.sprintf "[%d,?]" r.lower

(* Only meaningful on multiple cores, so gated on [-j N > 1]: a
   frontier whose 10^8-state budget takes minutes sequentially.  It
   truncates at the budget with a certified interval — the measurement
   is throughput, not the (unreachable) optimum. *)
let huge_case () =
  {
    name = "huge rbp random(seed7,6x5,din3) n=30 1e8 states";
    game = "rbp";
    dag =
      Prbp.Graphs.Random_dag.make ~seed:7 ~max_in_degree:3 ~layers:6
        ~width:5 ();
    r = 4;
    p = 1;
    budget = 100_000_000;
  }

let run_solver ?(jobs = 1) ppf =
  (* the per-case metric deltas in the JSON need a live registry; the
     engine publishes once per solve, far from the hot loop *)
  Prbp.Obs.Metrics.set_enabled true;
  Format.fprintf ppf "@.=== PERF — exact-solver throughput ===@.@.";
  let t =
    Prbp.Table.make
      ~header:
        [ "case"; "r"; "opt/interval"; "time (prune)"; "states (prune)";
          "kst/s"; "time (off)"; "states (off)"; "pruned"; "shrink" ]
  in
  let rows =
    List.map
      (fun c ->
        let on = run_case c ~prune:true in
        let off = run_case c ~prune:false in
        Prbp.Table.add_rowf t "%s|%d|%s|%.2fs|%d|%.0f|%.2fs|%d|%d|%.1fx"
          c.name c.r (show_interval on) on.wall_s on.explored
          (rate on /. 1e3) off.wall_s off.explored on.pruned
          (float_of_int off.explored /. float_of_int on.explored);
        (c, on, off))
      (solver_cases ())
  in
  Prbp.Table.print ppf t;
  (* Parallel re-runs of the same cases at [-j N], against the j=1
     prune-on wall times above. *)
  let par_rows =
    if jobs <= 1 then []
    else begin
      Format.fprintf ppf "@.=== PERF — parallel solver (jobs=%d) ===@.@."
        jobs;
      let t =
        Prbp.Table.make
          ~header:
            [ "case"; "time (j=1)"; Printf.sprintf "time (j=%d)" jobs;
              "speedup"; "states" ]
      in
      let prs =
        List.map
          (fun (c, on, _) ->
            let par = run_case ~jobs c ~prune:true in
            let speedup = on.wall_s /. (par.wall_s +. 1e-9) in
            Prbp.Table.add_rowf t "%s|%.2fs|%.2fs|%.2fx|%d" c.name on.wall_s
              par.wall_s speedup par.explored;
            (c.name, (par, speedup)))
          rows
      in
      Prbp.Table.print ppf t;
      prs
    end
  in
  let huge =
    if jobs <= 1 then None
    else begin
      let c = huge_case () in
      Format.fprintf ppf "@.huge case (jobs=%d): %s ...@." jobs c.name;
      let res = run_case ~jobs c ~prune:true in
      Format.fprintf ppf "  %s in %.1fs, %d states (%.0f kst/s)@."
        (show_interval res) res.wall_s res.explored (rate res /. 1e3);
      Some (c, res)
    end
  in
  let bracket_rows, convergence_rows = run_brackets ppf in
  let frontier_rows = run_frontiers ppf in
  let num_opt = function Some v -> Json.Int v | None -> Json.Null in
  let per_s r = Json.Int (int_of_float (Float.round (rate r))) in
  let counters m = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) m) in
  let case_json (c, on, off) =
    Json.Obj
      [
        ("name", Json.String c.name);
        ("game", Json.String c.game);
        ("nodes", Json.Int (Prbp_dag.Dag.n_nodes c.dag));
        ("edges", Json.Int (Prbp_dag.Dag.n_edges c.dag));
        ("r", Json.Int c.r);
        ("p", Json.Int c.p);
        ("outcome", Json.String on.outcome);
        ("lower", Json.Int on.lower);
        ("upper", num_opt on.upper);
        ( "interval_width",
          num_opt (Option.map (fun u -> u - on.lower) on.upper) );
        ( "prune",
          Json.Obj
            [
              ("wall_s", Json.Float on.wall_s);
              ("explored", Json.Int on.explored);
              ("pruned", Json.Int on.pruned);
              ("explored_per_s", per_s on);
            ] );
        ( "no_prune",
          Json.Obj
            [
              ("wall_s", Json.Float off.wall_s);
              ("explored", Json.Int off.explored);
              ("explored_per_s", per_s off);
            ] );
        ( "par",
          match List.assoc_opt c.name par_rows with
          | None -> Json.Null
          | Some (par, speedup) ->
              Json.Obj
                [
                  ("jobs", Json.Int jobs);
                  ("wall_s", Json.Float par.wall_s);
                  ("explored", Json.Int par.explored);
                  ("speedup_vs_j1", Json.Float speedup);
                ] );
        ( "metrics",
          Json.Obj
            [
              ("prune", counters on.metrics); ("no_prune", counters off.metrics);
            ] );
      ]
  in
  let huge_json (c, res) =
    Json.Obj
      [
        ("name", Json.String c.name);
        ("jobs", Json.Int jobs);
        ("budget_states", Json.Int c.budget);
        ("outcome", Json.String res.outcome);
        ("lower", Json.Int res.lower);
        ("upper", num_opt res.upper);
        ("explored", Json.Int res.explored);
        ("wall_s", Json.Float res.wall_s);
        ("explored_per_s", per_s res);
      ]
  in
  (* one member per line and one row per line, so the [--serve] load
     generator (Exp_serve) can patch the single "serve" line in place *)
  let lines = function
    | [] -> "[]"
    | rs -> "[\n    " ^ String.concat ",\n    " rs ^ "\n  ]"
  in
  let member (k, v) = "  " ^ Json.string k ^ ": " ^ v in
  let json j = Json.to_string j in
  let doc =
    [
      (* single-sourced from Wire so the daemon's /healthz, the
         regression gate, and this writer can never disagree on the
         schema version *)
      ("schema", json (Json.String Prbp.Wire.bench_schema));
      ("serve", json Json.Null);
      ("jobs", json (Json.Int jobs));
      ("host_cores", json (Json.Int (Domain.recommended_domain_count ())));
      ("cases", lines (List.map (fun row -> json (case_json row)) rows));
      ("huge", json (Option.fold ~none:Json.Null ~some:huge_json huge));
      ("brackets", lines bracket_rows);
      ("convergence", lines (List.map json convergence_rows));
      ("frontiers", lines frontier_rows);
    ]
  in
  let oc = open_out "BENCH_solver.json" in
  output_string oc
    ("{\n" ^ String.concat ",\n" (List.map member doc) ^ "\n}\n");
  close_out oc;
  Format.fprintf ppf "@.wrote BENCH_solver.json@."

let fig1 = lazy (Prbp.Graphs.Fig1.full ())

let fig1_rbp_moves =
  lazy (Prbp.Strategies.fig1_rbp (snd (Lazy.force fig1)))

let fig1_prbp_moves =
  lazy (Prbp.Strategies.fig1_prbp (snd (Lazy.force fig1)))

let matvec8 = lazy (Prbp.Graphs.Matvec.make ~m:8)

let matvec8_moves =
  lazy (Prbp.Strategies.matvec_prbp (Lazy.force matvec8))

let tree26 = lazy (Prbp.Graphs.Tree.make ~k:2 ~depth:6)

let tree26_moves = lazy (Prbp.Strategies.tree_prbp (Lazy.force tree26))

let random240 =
  lazy (Prbp.Graphs.Random_dag.make ~seed:3 ~layers:12 ~width:20 ())

let tests =
  [
    Test.make ~name:"simulate: RBP fig1 strategy"
      (Staged.stage (fun () ->
           let g, _ = Lazy.force fig1 in
           Prbp.Rbp.run_exn (Prbp.Rbp.config ~r:4 ()) g
             (Lazy.force fig1_rbp_moves)));
    Test.make ~name:"simulate: PRBP fig1 strategy"
      (Staged.stage (fun () ->
           let g, _ = Lazy.force fig1 in
           Prbp.Prbp_game.run_exn
             (Prbp.Prbp_game.config ~r:4 ())
             g
             (Lazy.force fig1_prbp_moves)));
    Test.make ~name:"simulate: PRBP matvec(8) stream (208 I/Os)"
      (Staged.stage (fun () ->
           let mv = Lazy.force matvec8 in
           Prbp.Prbp_game.run_exn
             (Prbp.Prbp_game.config ~r:11 ())
             mv.Prbp.Graphs.Matvec.dag
             (Lazy.force matvec8_moves)));
    Test.make ~name:"exact: OPT_RBP fig1 (r=4)"
      (Staged.stage (fun () ->
           let g, _ = Lazy.force fig1 in
           Solve_util.rbp_opt (Prbp.Rbp.config ~r:4 ()) g));
    Test.make ~name:"exact: OPT_PRBP fig1 (r=4)"
      (Staged.stage (fun () ->
           let g, _ = Lazy.force fig1 in
           Solve_util.prbp_opt (Prbp.Prbp_game.config ~r:4 ()) g));
    Test.make ~name:"generate: FFT(1024) DAG (11264 nodes)"
      (Staged.stage (fun () -> Prbp.Graphs.Fft.make ~m:1024));
    Test.make ~name:"generate: matmul 16^3 DAG (4864 nodes)"
      (Staged.stage (fun () -> Prbp.Graphs.Matmul.make ~m1:16 ~m2:16 ~m3:16));
    Test.make ~name:"heuristic: PRBP Belady on 240-node DAG (r=6)"
      (Staged.stage (fun () ->
           Prbp.Heuristic.prbp ~r:6 (Lazy.force random240)));
    Test.make ~name:"strategy: blocked FFT(256) moves"
      (Staged.stage (fun () ->
           Prbp.Strategies.fft_blocked ~r:10 (Prbp.Graphs.Fft.make ~m:256)));
    Test.make ~name:"extract: edge partition of tree(2,6) trace"
      (Staged.stage (fun () ->
           let t = Lazy.force tree26 in
           Prbp.Extract.edge_partition_of_prbp ~r:3 t.Prbp.Graphs.Tree.dag
             (Lazy.force tree26_moves)));
    Test.make ~name:"greedy scheduler: matvec(6) (120 nodes)"
      (Staged.stage
         (let mv = Prbp.Graphs.Matvec.make ~m:6 in
          fun () ->
            Prbp.Heuristic.prbp_greedy ~r:9 mv.Prbp.Graphs.Matvec.dag));
    Test.make ~name:"black: pebbling number of pyramid(3)"
      (Staged.stage
         (let g = Prbp.Graphs.Basic.pyramid 3 in
          fun () -> Prbp.Black.number g));
    Test.make ~name:"minpart: MIN_edge of fig1 (S=8)"
      (Staged.stage
         (let g, _ = Prbp.Graphs.Fig1.full () in
          fun () -> Prbp.Minpart.edge_partition g ~s:8));
    Test.make ~name:"segment: greedy S-partition of fft(32) (S=8)"
      (Staged.stage
         (let g = (Prbp.Graphs.Fft.make ~m:32).Prbp.Graphs.Fft.dag in
          fun () -> Prbp.Bounds.Segment.greedy g ~s:8));
    Test.make ~name:"flow: min dominator in matmul 6^3 (300 nodes)"
      (Staged.stage
         (let mm = Prbp.Graphs.Matmul.make ~m1:6 ~m2:6 ~m3:6 in
          let g = mm.Prbp.Graphs.Matmul.dag in
          let sinks =
            Prbp.Bitset.of_list (Prbp.Dag.n_nodes g) (Prbp.Dag.sinks g)
          in
          fun () -> Prbp.Dominator.min_dominator_size g sinks));
  ]

let run ppf =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let grouped = Test.make_grouped ~name:"prbp" ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  let clock = Hashtbl.find merged (Measure.label Instance.monotonic_clock) in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) clock [] in
  let t = Prbp.Table.make ~header:[ "benchmark"; "time/run" ] in
  List.iter
    (fun (name, v) ->
      let est =
        match Analyze.OLS.estimates v with
        | Some [ e ] ->
            if e > 1e9 then Printf.sprintf "%.2f s" (e /. 1e9)
            else if e > 1e6 then Printf.sprintf "%.2f ms" (e /. 1e6)
            else if e > 1e3 then Printf.sprintf "%.2f us" (e /. 1e3)
            else Printf.sprintf "%.0f ns" e
        | _ -> "n/a"
      in
      Prbp.Table.add_row t [ name; est ])
    (List.sort compare rows);
  Format.fprintf ppf "@.=== PERF — Bechamel micro-benchmarks ===@.@.";
  Prbp.Table.print ppf t
