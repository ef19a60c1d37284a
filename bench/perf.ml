(* The certified-width baseline: bracket and frontier rows at scales the
   exact solvers cannot touch, written to BENCH_solver.json by [--perf]
   and gated against it by [--check-widths].  Timings live in the
   repeated, spread-reporting benchmark under benchmark/, not here. *)

(* ------------------------------------------------------------------ *)
(* Bracket rows: one per (family, game), each under a 10-second
   wall-clock budget, landing in BENCH_solver.json as wire records with
   their interval width, winning lower/upper rules and convergence
   curve.  Closed forms attach via the DAGs' family tags. *)

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

let bracket_budget () = Prbp.Solver.Budget.v ~max_millis:10_000 ()

(* Every bracket case, in order; a case that fails to bracket is
   reported on [ppf] and makes the result [None], so neither the
   writer nor the gate ever works from a partial set of rows. *)
let run_brackets ppf =
  let budget = bracket_budget () in
  let rows =
    List.map
      (fun (family, game, g, r) ->
        Gc.compact ();
        let run =
          match game with
          | `Rbp -> Prbp.Bounds.Bracket.rbp
          | `Prbp -> Prbp.Bounds.Bracket.prbp
        in
        match run ~budget ~r g with
        | Error e ->
            Format.fprintf ppf "bracket %s failed: %s@." family e;
            None
        | Ok b -> Some (Prbp.Wire.bracket_of ~family b))
      (bracket_cases ())
  in
  if List.mem None rows then None else Some (List.filter_map Fun.id rows)

(* ------------------------------------------------------------------ *)
(* Frontier rows: certified multiprocessor trade-off fronts.  One row
   per (family, game) at a fixed processor count — a small instance
   the exact engine settles completely (the committed baseline pins an
   exact, fully verified front) and paper-scale instances served by
   the pooled-capacity brackets. *)

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

let run_frontiers () =
  List.map
    (fun (family, game, g, p, rs) ->
      Gc.compact ();
      let budget = bracket_budget () in
      let f = Prbp.Frontier.Frontier.sweep ~budget game ~p ~rs g in
      Prbp.Wire.frontier_of ~family ~dag:g f)
    (frontier_cases ())

(* ------------------------------------------------------------------ *)
(* [--perf]: run every case and rewrite BENCH_solver.json.  Returns the
   process exit code; on a failed bracket case the file is left as it
   was, since a baseline without that row would let the gate wave the
   case through as new. *)

let run ppf =
  let module W = Prbp.Wire in
  Format.fprintf ppf "@.=== PERF — certified brackets at scale ===@.@.";
  match run_brackets ppf with
  | None ->
      Format.fprintf ppf "BENCH_solver.json left unchanged@.";
      1
  | Some brackets ->
      let t =
        Prbp.Table.make
          ~header:
            [ "family"; "game"; "r"; "bracket"; "width"; "rule"; "method";
              "curve"; "time" ]
      in
      List.iter
        (fun (b : W.bracket) ->
          Prbp.Table.add_rowf t "%s|%s|%d|[%d,%d]|%d|%s|%s|%d|%.1fs"
            (Option.value b.family ~default:"-")
            (W.game_label b.game) b.r b.lower b.upper b.width b.lower_rule
            b.upper_rule (List.length b.curve) b.elapsed_s)
        brackets;
      Prbp.Table.print ppf t;
      Format.fprintf ppf "@.=== PERF — certified frontiers ===@.@.";
      let frontiers = run_frontiers () in
      let t =
        Prbp.Table.make
          ~header:[ "family"; "game"; "points"; "open"; "width"; "time" ]
      in
      List.iter
        (fun (f : W.frontier) ->
          Prbp.Table.add_rowf t "%s|%s|%d|%d|%d|%.1fs"
            (Option.value f.family ~default:"-")
            (W.game_label f.game) (W.frontier_points_n f) (W.frontier_open_n f)
            (W.frontier_width f) f.elapsed_s)
        frontiers;
      Prbp.Table.print ppf t;
      (* one member per line and one row per line, so a diff of the
         committed baseline shows which case moved *)
      let rows rs = "[\n    " ^ String.concat ",\n    " rs ^ "\n  ]" in
      let member (k, v) = "  " ^ Prbp.Obs.Json.string k ^ ": " ^ v in
      let doc =
        [
          (* single-sourced from Wire, so the daemon's /healthz and this
             writer can never disagree on the schema version *)
          ("schema", Prbp.Obs.Json.string W.bench_schema);
          ("brackets", rows (List.map W.encode_bracket brackets));
          ("frontiers", rows (List.map W.encode_frontier frontiers));
        ]
      in
      Out_channel.with_open_bin "BENCH_solver.json" (fun oc ->
          output_string oc
            ("{\n" ^ String.concat ",\n" (List.map member doc) ^ "\n}\n"));
      Format.fprintf ppf "@.wrote BENCH_solver.json@.";
      0

(* ------------------------------------------------------------------ *)
(* [--check-widths]: re-run every case under the same budgets and gate
   on the widths committed in BENCH_solver.json.  Returns the process
   exit code, 1 when:
   - the file cannot be read, does not decode, or has no bracket or no
     frontier rows (nothing gated is not a pass);
   - a bracket case failed, or its width regressed;
   - a fresh bracket's convergence curve is not monotone or does not
     end exactly at the certified bracket (a structural gate with no
     timing comparisons, so no CI flakes);
   - a frontier settles fewer points, leaves more open, or its summed
     width grows past the slack. *)

let check_widths ppf =
  let module R = Prbp.Regression in
  let fail fmt = Format.kfprintf (fun _ -> 1) ppf ("check-widths: " ^^ fmt) in
  match R.of_file "BENCH_solver.json" with
  | exception Sys_error e -> fail "cannot read BENCH_solver.json: %s@." e
  | Error e -> fail "BENCH_solver.json: %s@." e
  | Ok { R.brackets = []; _ } -> fail "no committed bracket rows@."
  | Ok { R.frontiers = []; _ } -> fail "no committed frontier rows@."
  | Ok baseline -> (
      Format.fprintf ppf
        "@.=== PERF — interval-width regression gate ===@.@.";
      match run_brackets ppf with
      | None -> 1
      | Some current ->
          let verdicts = R.check ~baseline:baseline.R.brackets current in
          List.iter (Format.fprintf ppf "%a@." R.pp_verdict) verdicts;
          Format.fprintf ppf "@.=== PERF — convergence-curve gate ===@.@.";
          let curves = List.map R.check_curve current in
          List.iter (Format.fprintf ppf "%a@." R.pp_curve_verdict) curves;
          let frontiers =
            R.check_frontiers ~baseline:baseline.R.frontiers (run_frontiers ())
          in
          List.iter (Format.fprintf ppf "%a@." R.pp_frontier_verdict) frontiers;
          if
            R.regressed verdicts || R.curves_regressed curves
            || R.frontier_regressed frontiers
          then 1
          else 0)
