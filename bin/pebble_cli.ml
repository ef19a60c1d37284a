(* pebble_cli — generate the paper's DAG families, run the exact and
   heuristic solvers, replay the constructive strategies, extract
   partitions, and export DOT drawings.

     pebble_cli info    --family tree:2:4
     pebble_cli solve   --family fig1 -r 4
     pebble_cli solve   --family matvec:5 -r 8 --heuristic
     pebble_cli strategy --family zipper:3:6 -r 5 --game prbp
     pebble_cli partition --family fig1 -r 4 --kind edge
     pebble_cli dot     --family chained:3 -o chain.dot           *)

open Cmdliner

type family =
  | Fig1
  | Chained of int
  | Tree of int * int
  | Zipper of int * int
  | Collect of int * int
  | Matvec of int
  | Matmul of int * int * int
  | Fft of int
  | Attention of int * int
  | Lemma54 of int
  | Pyramid of int
  | Path of int
  | Diamond
  | Grid of int * int
  | Random of int * int * int
  | Horner of int
  | Spmv of int * int * int
  | File of string

let parse_family s =
  let fail () =
    Error
      (`Msg
        (Printf.sprintf
           "unknown family %S (try fig1, chained:N, tree:K:D, zipper:D:L, \
            collect:D:L, matvec:M, matmul:M1:M2:M3, fft:M, attention:M:D, \
            lemma54:H, pyramid:H, path:N, diamond, grid:R:C, horner:N, \
            spmv:SEED:ROWS:COLS, random:SEED:LAYERS:WIDTH, file:PATH)"
           s))
  in
  let int x = int_of_string_opt x in
  match String.split_on_char ':' s with
  | [ "fig1" ] -> Ok Fig1
  | [ "diamond" ] -> Ok Diamond
  | [ "chained"; n ] -> (
      match int n with Some n -> Ok (Chained n) | None -> fail ())
  | [ "tree"; k; d ] -> (
      match (int k, int d) with
      | Some k, Some d -> Ok (Tree (k, d))
      | _ -> fail ())
  | [ "zipper"; d; l ] -> (
      match (int d, int l) with
      | Some d, Some l -> Ok (Zipper (d, l))
      | _ -> fail ())
  | [ "collect"; d; l ] -> (
      match (int d, int l) with
      | Some d, Some l -> Ok (Collect (d, l))
      | _ -> fail ())
  | [ "matvec"; m ] -> (
      match int m with Some m -> Ok (Matvec m) | None -> fail ())
  | [ "matmul"; a; b; c ] -> (
      match (int a, int b, int c) with
      | Some a, Some b, Some c -> Ok (Matmul (a, b, c))
      | _ -> fail ())
  | [ "fft"; m ] -> (
      match int m with Some m -> Ok (Fft m) | None -> fail ())
  | [ "attention"; m; d ] -> (
      match (int m, int d) with
      | Some m, Some d -> Ok (Attention (m, d))
      | _ -> fail ())
  | [ "lemma54"; h ] -> (
      match int h with Some h -> Ok (Lemma54 h) | None -> fail ())
  | [ "pyramid"; h ] -> (
      match int h with Some h -> Ok (Pyramid h) | None -> fail ())
  | [ "path"; n ] -> (
      match int n with Some n -> Ok (Path n) | None -> fail ())
  | [ "grid"; r; c ] -> (
      match (int r, int c) with
      | Some r, Some c -> Ok (Grid (r, c))
      | _ -> fail ())
  | [ "horner"; n ] -> (
      match int n with Some n -> Ok (Horner n) | None -> fail ())
  | [ "spmv"; s'; rows; cols ] -> (
      match (int s', int rows, int cols) with
      | Some s', Some rows, Some cols -> Ok (Spmv (s', rows, cols))
      | _ -> fail ())
  | "file" :: rest when rest <> [] -> Ok (File (String.concat ":" rest))
  | [ "random"; s'; l; w ] -> (
      match (int s', int l, int w) with
      | Some s', Some l, Some w -> Ok (Random (s', l, w))
      | _ -> fail ())
  | _ -> fail ()

let build = function
  | Fig1 -> fst (Prbp.Graphs.Fig1.full ())
  | Chained n -> Prbp.Graphs.Fig1.chained ~copies:n
  | Tree (k, depth) -> (Prbp.Graphs.Tree.make ~k ~depth).Prbp.Graphs.Tree.dag
  | Zipper (d, len) -> (Prbp.Graphs.Zipper.make ~d ~len).Prbp.Graphs.Zipper.dag
  | Collect (d, len) ->
      (Prbp.Graphs.Collect.make ~d ~len).Prbp.Graphs.Collect.dag
  | Matvec m -> (Prbp.Graphs.Matvec.make ~m).Prbp.Graphs.Matvec.dag
  | Matmul (m1, m2, m3) ->
      (Prbp.Graphs.Matmul.make ~m1 ~m2 ~m3).Prbp.Graphs.Matmul.dag
  | Fft m -> (Prbp.Graphs.Fft.make ~m).Prbp.Graphs.Fft.dag
  | Attention (m, d) -> (Prbp.Graphs.Attention.full ~m ~d).Prbp.Graphs.Attention.dag
  | Lemma54 h ->
      (Prbp.Graphs.Lemma54.make ~group_size:h).Prbp.Graphs.Lemma54.dag
  | Pyramid h -> Prbp.Graphs.Basic.pyramid h
  | Path n -> Prbp.Graphs.Basic.path n
  | Diamond -> Prbp.Graphs.Basic.diamond ()
  | Grid (r, c) -> Prbp.Graphs.Basic.grid r c
  | Random (seed, layers, width) ->
      Prbp.Graphs.Random_dag.make ~seed ~layers ~width ()
  | Horner n -> Prbp.Graphs.Basic.horner n
  | Spmv (seed, rows, cols) ->
      (Prbp.Graphs.Spmv.make ~seed ~rows ~cols ()).Prbp.Graphs.Spmv.dag
  | File path -> (
      match Prbp.Serialize.of_file path with
      | Ok g -> g
      | Error e -> failwith (Printf.sprintf "cannot load %s: %s" path e))

let family_label = function
  | Fig1 -> "fig1"
  | Chained n -> Printf.sprintf "chained:%d" n
  | Tree (k, d) -> Printf.sprintf "tree:%d:%d" k d
  | Zipper (d, l) -> Printf.sprintf "zipper:%d:%d" d l
  | Collect (d, l) -> Printf.sprintf "collect:%d:%d" d l
  | Matvec m -> Printf.sprintf "matvec:%d" m
  | Matmul (a, b, c) -> Printf.sprintf "matmul:%d:%d:%d" a b c
  | Fft m -> Printf.sprintf "fft:%d" m
  | Attention (m, d) -> Printf.sprintf "attention:%d:%d" m d
  | Lemma54 h -> Printf.sprintf "lemma54:%d" h
  | Pyramid h -> Printf.sprintf "pyramid:%d" h
  | Path n -> Printf.sprintf "path:%d" n
  | Diamond -> "diamond"
  | Grid (r, c) -> Printf.sprintf "grid:%d:%d" r c
  | Random (s, l, w) -> Printf.sprintf "random:%d:%d:%d" s l w
  | Horner n -> Printf.sprintf "horner:%d" n
  | Spmv (s, r, c) -> Printf.sprintf "spmv:%d:%d:%d" s r c
  | File p -> "file:" ^ p

let family_conv = Arg.conv (parse_family, fun ppf _ -> Fmt.string ppf "<family>")

let family_arg =
  Arg.(
    required
    & opt (some family_conv) None
    & info [ "f"; "family" ] ~docv:"FAMILY" ~doc:"DAG family to generate.")

let r_arg =
  Arg.(
    value & opt int 4
    & info [ "r" ] ~docv:"R" ~doc:"Fast-memory capacity (red pebbles).")

let parse_game s =
  match String.split_on_char ':' s with
  | [ "rbp" ] -> Ok `Rbp
  | [ "prbp" ] -> Ok `Prbp
  | [ "both" ] -> Ok `Both
  | [ "black" ] -> Ok `Black
  | [ "multi"; p ] -> (
      match int_of_string_opt p with
      | Some p when p >= 1 -> Ok (`Multi p)
      | _ -> Error (`Msg (Printf.sprintf "bad processor count in %S" s)))
  | _ ->
      Error
        (`Msg
          (Printf.sprintf
             "unknown game %S (try rbp, prbp, both, black, multi:P)" s))

let game_conv =
  Arg.conv
    ( parse_game,
      fun ppf g ->
        Fmt.string ppf
          (match g with
          | `Rbp -> "rbp"
          | `Prbp -> "prbp"
          | `Both -> "both"
          | `Black -> "black"
          | `Multi p -> Printf.sprintf "multi:%d" p) )

let game_arg =
  Arg.(
    value
    & opt game_conv `Both
    & info [ "g"; "game" ] ~docv:"GAME"
        ~doc:
          "Which game to run: $(b,rbp), $(b,prbp), $(b,both), $(b,black) \
           (pebbling number, no I/O), or $(b,multi:P) (exact RBP-MC and \
           PRBP-MC with $(i,P) processors).")

(* --rules: names from the lower-bound registry; an unknown one is a
   usage error (exit 124) whose message lists the registry *)
let rule_conv =
  let parse n =
    Result.map_error (fun m -> `Msg m) (Prbp.Bounds.Lower.check_name n)
  in
  Arg.conv (parse, Fmt.string)

let rules_arg ~doc =
  Arg.(
    value
    & opt (some (list rule_conv)) None
    & info [ "rules" ] ~docv:"NAMES" ~doc)

(* ------------------------------------------------------------------ *)

(* Commands with no notion of a truncated solve always exit 0; [solve]
   returns its own status (see [exit_bounded] below). *)
let ok term = Term.(const (fun () -> 0) $ term)

let info_cmd =
  let run family =
    let g = build family in
    Format.printf "%a@." Prbp.Dag.pp g;
    Format.printf "trivial cost: %d@." (Prbp.Dag.trivial_cost g);
    Format.printf "height: %d@." (Prbp.Topo.height g)
  in
  Cmd.v (Cmd.info "info" ~doc:"Print statistics of a generated DAG.")
    (ok Term.(const run $ family_arg))

(* Durations for --deadline: "5s", "250ms", "2m", or plain seconds. *)
let parse_duration s =
  let fail () =
    Error (`Msg (Printf.sprintf "bad duration %S (try 5s, 250ms, 2m)" s))
  in
  let mk scale part =
    match float_of_string_opt part with
    | Some f when f > 0. -> Ok (int_of_float (Float.ceil (f *. scale)))
    | _ -> fail ()
  in
  let chop n = String.sub s 0 (String.length s - n) in
  if s = "" then fail ()
  else if Filename.check_suffix s "ms" then mk 1. (chop 2)
  else if Filename.check_suffix s "s" then mk 1000. (chop 1)
  else if Filename.check_suffix s "m" then mk 60_000. (chop 1)
  else mk 1000. s

let duration_conv =
  Arg.conv (parse_duration, fun ppf ms -> Fmt.pf ppf "%dms" ms)

(* Exit code for budget-truncated solves: distinct from plain success
   and from cmdliner's own error codes (123-125). *)
let exit_bounded = 10

(* --profile-out / --metrics-out: turn the corresponding recorder on
   for the command's lifetime and write the export when the run ends —
   including truncated runs (exit 10) and crashes, which are exactly
   the ones worth profiling. *)
let obs_args =
  let profile_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile-out" ] ~docv:"FILE"
          ~doc:
            "Record a span trace of the run and write it as Chrome \
             trace-event JSON to $(docv) (load it at ui.perfetto.dev or \
             chrome://tracing).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Record solver metrics and write a Prometheus text-format \
             snapshot to $(docv).")
  in
  Term.(const (fun p m -> (p, m)) $ profile_out $ metrics_out)

let with_obs (profile_out, metrics_out) f =
  if profile_out <> None then Prbp.Obs.Span.set_enabled true;
  if metrics_out <> None then Prbp.Obs.Metrics.set_enabled true;
  let write path s =
    let oc = open_out path in
    output_string oc s;
    close_out oc
  in
  let export () =
    Option.iter (fun p -> write p (Prbp.Obs.Span.to_chrome ())) profile_out;
    Option.iter
      (fun p -> write p (Prbp.Obs.Metrics.to_prometheus ()))
      metrics_out
  in
  match f () with
  | code ->
      export ();
      code
  | exception e ->
      export ();
      raise e

let solve_cmd =
  let run family r game heuristic max_states deadline budget_words spill_words
      jobs trace json sliding recompute no_delete obs =
    with_obs obs @@ fun () ->
    let g = build family in
    if not json then Format.printf "%a, r = %d@." Prbp.Dag.pp g r;
    let rcfg =
      Prbp.Rbp.config ~one_shot:(not recompute) ~sliding ~no_delete ~r ()
    in
    let pcfg =
      Prbp.Prbp_game.config ~one_shot:(not recompute) ~recompute ~no_delete
        ~r ()
    in
    let budget =
      Prbp.Solver.Budget.v ~max_states ?max_millis:deadline
        ?max_words:budget_words ?spill_words ()
    in
    let telemetry =
      if trace then Some (Prbp.Wire.jsonl ~every:1000 stderr) else None
    in
    let variants = { Prbp.Wire.sliding; recompute; no_delete } in
    let bounded = ref false in
    (* each exact solve records its convergence curve through a tee on
       the (optional) telemetry stream; the JSON outcome carries it *)
    let solve_with solver =
      let conv, sink = Prbp.Solver.Convergence.recorder ?telemetry () in
      let outcome = solver sink in
      (outcome, Prbp.Solver.Convergence.curve conv)
    in
    let report name wire_game (outcome, curve) =
      (match outcome with
      | Prbp.Solver.Bounded _ -> bounded := true
      | _ -> ());
      if json then
        print_endline
          (Prbp.Wire.encode_outcome
             (Prbp.Wire.outcome_of ~game:wire_game ~r ~variants ~curve ~dag:g
                outcome))
      else Format.printf "%s: %a@." name Prbp.Solver.pp outcome
    in
    let rbp () =
      if heuristic then
        Format.printf "RBP  heuristic cost: %d@."
          (Prbp.Heuristic.rbp_cost ~r g)
      else
        report "OPT_RBP " Prbp.Wire.Rbp
          (solve_with (fun sink ->
               Prbp.Exact_rbp.solve ~budget ~telemetry:sink ~jobs rcfg g))
    in
    let prbp () =
      if heuristic then
        Format.printf "PRBP heuristic cost: %d@."
          (Prbp.Heuristic.prbp_best_cost ~r g)
      else
        report "OPT_PRBP" Prbp.Wire.Prbp
          (solve_with (fun sink ->
               Prbp.Exact_prbp.solve ~budget ~telemetry:sink ~jobs pcfg g))
    in
    let black () =
      match Prbp.Black.number ~sliding ~max_states g with
      | Some n -> Format.printf "black pebbling number: %d@." n
      | None ->
          bounded := true;
          Format.printf "black pebbling number: state budget (%d) exhausted@."
            max_states
    in
    let multi p =
      if recompute then
        Format.printf "multi: one-shot only (drop --recompute)@."
      else begin
        let cfg = Prbp.Multi.config ~p ~r () in
        report
          (Printf.sprintf "OPT_RBP-MC  (p = %d)" p)
          (Prbp.Wire.Multi_rbp p)
          (solve_with (fun sink ->
               Prbp.Exact_multi.rbp_solve ~budget ~telemetry:sink ~jobs cfg g));
        report
          (Printf.sprintf "OPT_PRBP-MC (p = %d)" p)
          (Prbp.Wire.Multi_prbp p)
          (solve_with (fun sink ->
               Prbp.Exact_multi.prbp_solve ~budget ~telemetry:sink ~jobs cfg
                 g))
      end
    in
    (match game with
    | `Rbp -> rbp ()
    | `Prbp -> prbp ()
    | `Both ->
        rbp ();
        prbp ()
    | `Black -> black ()
    | `Multi p -> multi p);
    if not json then
      Format.printf "trivial lower bound: %d@." (Prbp.Dag.trivial_cost g);
    if !bounded then exit_bounded else 0
  in
  let heuristic =
    Arg.(
      value & flag
      & info [ "heuristic" ]
          ~doc:"Use the Belady heuristic pebbler instead of exact search.")
  in
  let max_states =
    Arg.(
      value & opt int 5_000_000
      & info [ "max-states" ] ~doc:"State budget for exact search.")
  in
  let deadline =
    Arg.(
      value
      & opt (some duration_conv) None
      & info [ "deadline" ] ~docv:"DUR"
          ~doc:
            "Wall-clock deadline per exact solve (e.g. $(b,5s), $(b,250ms), \
             $(b,2m), or plain seconds).  Past it the solver stops with a \
             certified bounded interval and the command exits 10.")
  in
  let budget_words =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget-words" ] ~docv:"N"
          ~doc:
            "Memory budget for the search structures, in heap words; \
             exceeding it stops the solve with a bounded outcome.")
  in
  let spill_words =
    Arg.(
      value
      & opt (some int) None
      & info [ "spill-words" ] ~docv:"N"
          ~doc:
            "With $(b,--budget-words): instead of stopping at the memory \
             budget, drop settled states from memory (one reached again is \
             re-explored) and keep searching until the dropped states \
             reach $(docv) words, counted as the state width plus one per \
             state.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Search on $(docv) parallel domains.  The optimum (and the \
             certified interval of a state-budget-truncated solve) does \
             not depend on $(docv).")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Stream JSON-lines solver telemetry (start/progress/prune/stop \
             events) to stderr.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one wire-schema JSON outcome object per exact solve on \
             stdout (and suppress the human-readable report).  Heuristic \
             and black-pebbling runs keep their text output.")
  in
  let sliding =
    Arg.(value & flag & info [ "sliding" ] ~doc:"Appendix B.2 sliding RBP.")
  in
  let recompute =
    Arg.(
      value & flag
      & info [ "recompute" ] ~doc:"Appendix B.1 re-computation variant.")
  in
  let no_delete =
    Arg.(
      value & flag & info [ "no-delete" ] ~doc:"Appendix B.4 no-deletion.")
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:
         "Compute optimal (or heuristic) pebbling costs.  Budget-truncated \
          exact solves report a certified [lower, upper] interval and exit \
          10 instead of failing.")
    Term.(
      const run $ family_arg $ r_arg $ game_arg $ heuristic $ max_states
      $ deadline $ budget_words $ spill_words $ jobs $ trace $ json
      $ sliding $ recompute $ no_delete $ obs_args)

let strategy_cmd =
  let run family r game verbose =
    let g = build family in
    let show_r moves =
      match Prbp.Rbp.check (Prbp.Rbp.config ~r ()) g moves with
      | Ok c ->
          Format.printf "RBP strategy: %d moves, I/O cost %d@."
            (List.length moves) c;
          if verbose then
            List.iter (fun m -> Format.printf "  %a@." Prbp.Move.R.pp m) moves
      | Error e -> Format.printf "RBP strategy invalid: %s@." e
    in
    let show_p moves =
      match Prbp.Prbp_game.check (Prbp.Prbp_game.config ~r ()) g moves with
      | Ok c ->
          Format.printf "PRBP strategy: %d moves, I/O cost %d@."
            (List.length moves) c;
          if verbose then
            List.iter (fun m -> Format.printf "  %a@." Prbp.Move.P.pp m) moves
      | Error e -> Format.printf "PRBP strategy invalid: %s@." e
    in
    let strategies :
        (unit -> Prbp.Move.R.t list) option
        * (unit -> Prbp.Move.P.t list) option =
      match family with
      | Fig1 ->
          let _, ids = Prbp.Graphs.Fig1.full () in
          ( Some (fun () -> Prbp.Strategies.fig1_rbp ids),
            Some (fun () -> Prbp.Strategies.fig1_prbp ids) )
      | Chained copies ->
          ( Some (fun () -> Prbp.Strategies.fig1_chained_rbp ~copies),
            Some (fun () -> Prbp.Strategies.fig1_chained_prbp ~copies) )
      | Tree (k, depth) ->
          let t = Prbp.Graphs.Tree.make ~k ~depth in
          ( Some (fun () -> Prbp.Strategies.tree_rbp t),
            Some (fun () -> Prbp.Strategies.tree_prbp t) )
      | Zipper (d, len) ->
          let z = Prbp.Graphs.Zipper.make ~d ~len in
          ( Some (fun () -> Prbp.Strategies.zipper_rbp z),
            Some (fun () -> Prbp.Strategies.zipper_prbp z) )
      | Collect (d, len) ->
          let c = Prbp.Graphs.Collect.make ~d ~len in
          ( Some (fun () -> Prbp.Strategies.collect_full c),
            Some (fun () -> Prbp.Strategies.collect_capped c) )
      | Matvec m ->
          let mv = Prbp.Graphs.Matvec.make ~m in
          (None, Some (fun () -> Prbp.Strategies.matvec_prbp mv))
      | Matmul (m1, m2, m3) ->
          let mm = Prbp.Graphs.Matmul.make ~m1 ~m2 ~m3 in
          let ti, tk, tj = Prbp.Strategies.matmul_tile_for ~r ~m1 ~m2 ~m3 in
          (None, Some (fun () -> Prbp.Strategies.matmul_tiled ~ti ~tk ~tj mm))
      | Fft m ->
          let f = Prbp.Graphs.Fft.make ~m in
          (Some (fun () -> Prbp.Strategies.fft_blocked ~r f), None)
      | Lemma54 h ->
          let l = Prbp.Graphs.Lemma54.make ~group_size:h in
          (None, Some (fun () -> Prbp.Strategies.lemma54_prbp l))
      | _ -> (None, None)
    in
    match (game, strategies) with
    | `Rbp, (Some s, _) -> show_r (s ())
    | `Prbp, (_, Some s) -> show_p (s ())
    | `Both, (rs, ps) ->
        Option.iter (fun s -> show_r (s ())) rs;
        Option.iter (fun s -> show_p (s ())) ps;
        if rs = None && ps = None then
          Format.printf "no constructive strategy known for this family@."
    | _ -> Format.printf "no constructive strategy for this family/game@."
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every move.")
  in
  Cmd.v
    (Cmd.info "strategy"
       ~doc:"Replay the paper's constructive strategy for a family.")
    (ok Term.(const run $ family_arg $ r_arg $ game_arg $ verbose))

let partition_cmd =
  let run family r kind =
    let g = build family in
    let s = 2 * r in
    let validate label check cls =
      Format.printf "%s: %d classes (S = %d)@." label (Array.length cls) s;
      match check with
      | Ok () -> Format.printf "valid: yes@."
      | Error e -> Format.printf "valid: NO — %s@." e
    in
    match kind with
    | `Edge ->
        let moves = Prbp.Heuristic.prbp ~r g in
        let cls = Prbp.Extract.edge_partition_of_prbp ~r g moves in
        validate "S-edge partition (Lemma 6.4)"
          (Prbp.Spart.is_edge_partition g ~s cls)
          cls
    | `Dom ->
        let moves = Prbp.Heuristic.prbp ~r g in
        let cls = Prbp.Extract.dominator_partition_of_prbp ~r g moves in
        validate "S-dominator partition (Lemma 6.8)"
          (Prbp.Spart.is_dominator_partition g ~s cls)
          cls
    | `Hk ->
        let moves = Prbp.Heuristic.rbp ~r g in
        let cls = Prbp.Extract.hong_kung ~r g moves in
        validate "S-partition (Hong–Kung)"
          (Prbp.Spart.is_spartition g ~s cls)
          cls
    | `Greedy ->
        let cls = Prbp.Spart.greedy_spartition g ~s in
        validate "greedy S-partition"
          (Prbp.Spart.is_spartition g ~s cls)
          cls
  in
  let kind =
    Arg.(
      value
      & opt
          (enum [ ("edge", `Edge); ("dom", `Dom); ("hk", `Hk); ("greedy", `Greedy) ])
          `Edge
      & info [ "kind" ] ~docv:"KIND" ~doc:"Partition flavor to extract.")
  in
  Cmd.v
    (Cmd.info "partition"
       ~doc:"Extract a partition from a pebbling trace and validate it.")
    (ok Term.(const run $ family_arg $ r_arg $ kind))

let dot_cmd =
  let run family r partition output =
    let g = build family in
    let s = 2 * r in
    let module Segment = Prbp.Bounds.Segment in
    let node_classes flavor =
      Result.map
        (fun (seg : Segment.t) ->
          Prbp.Dot.to_string ~classes:seg.Segment.classes g)
        (Segment.greedy ~flavor g ~s)
    in
    let rendered =
      match partition with
      | `None -> Ok (Prbp.Dot.to_string g)
      | `Greedy -> node_classes Segment.Spartition
      | `Dom -> node_classes Segment.Dominator
      | `Edge ->
          Result.map
            (fun (seg : Segment.t) ->
              Prbp.Dot.to_string ~edge_classes:seg.Segment.classes g)
            (Segment.greedy ~flavor:Segment.Edge g ~s)
      | `Level ->
          Result.map
            (fun (seg : Segment.t) ->
              Prbp.Dot.to_string ~classes:seg.Segment.classes g)
            (Segment.level_cut g ~s)
    in
    match rendered with
    | Error e ->
        Format.eprintf "dot: %s@." e;
        1
    | Ok str -> (
        match output with
        | None ->
            print_string str;
            0
        | Some path ->
            let oc = open_out path in
            output_string oc str;
            close_out oc;
            Format.printf "wrote %s@." path;
            0)
  in
  let partition =
    Arg.(
      value
      & opt
          (enum
             [ ("none", `None); ("greedy", `Greedy); ("dom", `Dom);
               ("edge", `Edge); ("level", `Level) ])
          `None
      & info [ "partition" ] ~docv:"KIND"
          ~doc:
            "Color the drawing by a validated partition at $(b,S = 2r): \
             $(b,greedy) (S-partition sweep), $(b,dom) (dominator flavor), \
             $(b,edge) (S-edge partition, colored edges), or $(b,level) \
             (level cut).  Classes cycle through a 12-color palette.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default stdout).")
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:
         "Export a family as a Graphviz drawing, optionally colored by a \
          validated partition certificate.")
    Term.(const run $ family_arg $ r_arg $ partition $ output)

let bracket_cmd =
  let run family r game max_states deadline rules json profile trace obs =
    with_obs obs @@ fun () ->
    let g = build family in
    let budget = Prbp.Solver.Budget.v ~max_states ?max_millis:deadline () in
    let telemetry =
      if trace then Some (Prbp.Wire.jsonl ~every:1000 stderr) else None
    in
    let module Bracket = Prbp.Bounds.Bracket in
    let module Segment = Prbp.Bounds.Segment in
    let not_tight = ref false in
    let errored = ref false in
    let show name result =
      match result with
      | Ok (b : Bracket.t) ->
          if not b.Bracket.tight then not_tight := true;
          if json then
            print_endline
              (Prbp.Wire.encode_bracket
                 (Prbp.Wire.bracket_of ~family:(family_label family) b))
          else begin
            Format.printf "%s: %a@." name Bracket.pp b;
            if profile then
              match b.Bracket.profile with
              | Some seg ->
                  Format.printf
                    "  profile: validated %s partition at S = %d, %d classes@."
                    (Segment.flavor_label seg.Segment.flavor)
                    seg.Segment.s
                    (Segment.n_classes seg)
              | None -> Format.printf "  profile: none@."
          end
      | Error e ->
          (* operational failure, not a loose bracket: exit 1, not 10
             (the documented exit-code contract in docs/ALGORITHMS.md) *)
          errored := true;
          Format.eprintf "%s: %s@." name e
    in
    let rbp () =
      show "RBP " (Bracket.rbp ~budget ?telemetry ?rules ~r g)
    in
    let prbp () =
      show "PRBP" (Bracket.prbp ~budget ?telemetry ?rules ~r g)
    in
    (match game with
    | `Rbp -> rbp ()
    | `Prbp -> prbp ()
    | `Both ->
        rbp ();
        prbp ()
    | `Black | `Multi _ ->
        errored := true;
        Format.eprintf "bracket: only the rbp/prbp games have brackets@.");
    if !errored then 1 else if !not_tight then exit_bounded else 0
  in
  let max_states =
    Arg.(
      value & opt int 5_000_000
      & info [ "max-states" ]
          ~doc:"State budget for the exact-partition lower-bound rules.")
  in
  let deadline =
    Arg.(
      value
      & opt (some duration_conv) None
      & info [ "deadline" ] ~docv:"DUR"
          ~doc:
            "Wall-clock budget for the whole bracket (split across the \
             lower- and upper-bound portfolios).")
  in
  let rules =
    rules_arg
      ~doc:
        "Comma-separated lower-bound rule names to run (default: every \
         registered rule).  Unknown names are a usage error; the message \
         lists the registry."
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit one JSON object per bracket on stdout.")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Also report the constructive partition profile attached to the \
             bracket.")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Stream JSON-lines bracket telemetry to stderr.")
  in
  Cmd.v
    (Cmd.info "bracket"
       ~doc:
         "Certified bounds at any scale: run the lower-bound rule portfolio \
          and the verified-strategy upper-bound portfolio and report \
          lower <= OPT <= upper with its certificates.  Exits 10 when the \
          bracket is not tight (lower < upper), 0 when it pins the optimum.")
    Term.(
      const run $ family_arg $ r_arg $ game_arg $ max_states $ deadline
      $ rules $ json $ profile $ trace $ obs_args)

let frontier_cmd =
  let run family fgame rs comm_cap r_max max_states deadline jobs rules json
      with_strategy obs =
    with_obs obs @@ fun () ->
    let module F = Prbp.Frontier.Frontier in
    let g = build family in
    let game, p = fgame in
    let budget = Prbp.Solver.Budget.v ~max_states ?max_millis:deadline () in
    match comm_cap with
    | Some comm_cap -> (
        let module J = Prbp.Obs.Json in
        let min_r_row fields =
          print_endline
            (J.to_string
               (J.Obj
                  ([
                     ("v", J.Int Prbp.Wire.version);
                     ("kind", J.String "min-r");
                     ("game", J.String (F.game_label game ~p));
                     ("comm_cap", J.Int comm_cap);
                   ]
                  @ fields)))
        in
        (* reverse ε-constraint: least capacity meeting the cap *)
        match
          F.min_r_for_comm ~budget ?rules ~jobs game ~p ~comm_cap ?r_max g
        with
        | F.Min_r { r; comm } ->
            if json then
              min_r_row [ ("r", J.Int r); ("comm", J.Int comm) ]
            else
              Format.printf
                "least r with OPT_comm <= %d: r = %d (comm %d)@." comm_cap r
                comm;
            0
        | F.Min_r_between (lo, hi) ->
            if json then
              min_r_row [ ("r_lower", J.Int lo); ("r_upper", J.Int hi) ]
            else
              Format.printf
                "least r with OPT_comm <= %d: certified in [%d, %d] (budget \
                 exhausted)@."
                comm_cap lo hi;
            exit_bounded
        | F.Min_r_infeasible ->
            if json then min_r_row [ ("infeasible", J.Bool true) ]
            else
              Format.printf "no capacity meets OPT_comm <= %d@." comm_cap;
            0)
    | None ->
        let f = F.sweep ~budget ?rules ~jobs game ~p ~rs g in
        if json then
          print_endline
            (Prbp.Wire.encode_frontier
               (Prbp.Wire.frontier_of ~family:(family_label family)
                  ~with_moves:with_strategy ~dag:g f))
        else begin
          Format.printf "%s frontier of %s (model %s):@."
            (F.game_label game ~p) (family_label family) f.F.model;
          List.iter
            (fun (pt : F.point) ->
              let itv lo = function
                | Some hi when hi = lo -> Printf.sprintf "%d" lo
                | Some hi -> Printf.sprintf "[%d, %d]" lo hi
                | None -> Printf.sprintf ">= %d" lo
              in
              Format.printf
                "  r = %-3d comm %-10s time %-10s %-9s %s%s%s@." pt.F.r
                (itv pt.F.comm_lower pt.F.comm_upper)
                (itv pt.F.time_lower pt.F.time_upper)
                (match pt.F.status with
                | `Exact -> "exact"
                | `Bracketed -> "bracketed")
                pt.F.source
                (if pt.F.verified then ", verified" else "")
                (if pt.F.dominated then ", dominated" else ""))
            f.F.points;
          if f.F.infeasible_rs <> [] then
            Format.printf "  infeasible at r = %s@."
              (String.concat ", " (List.map string_of_int f.F.infeasible_rs));
          Format.printf "front: %d of %d points%s@."
            (List.length (F.front f))
            (List.length f.F.points)
            (if f.F.exhausted then " (budget exhausted: intervals open)"
             else "")
        end;
        if f.F.exhausted then exit_bounded else 0
  in
  let parse_multi_game s =
    let bad () =
      Error
        (`Msg
          (Printf.sprintf
             "unknown multiprocessor game %S (try multi-rbp:P, multi-prbp:P)"
             s))
    in
    match String.split_on_char ':' s with
    | [ "multi-rbp"; p ] -> (
        match int_of_string_opt p with
        | Some p when p >= 1 -> Ok (Prbp.Frontier.Frontier.Rbp_mc, p)
        | _ -> bad ())
    | [ "multi-prbp"; p ] -> (
        match int_of_string_opt p with
        | Some p when p >= 1 -> Ok (Prbp.Frontier.Frontier.Prbp_mc, p)
        | _ -> bad ())
    | _ -> bad ()
  in
  let multi_game_conv =
    Arg.conv
      ( parse_multi_game,
        fun ppf (g, p) ->
          Fmt.string ppf (Prbp.Frontier.Frontier.game_label g ~p) )
  in
  let fgame =
    Arg.(
      value
      & opt multi_game_conv (Prbp.Frontier.Frontier.Prbp_mc, 2)
      & info [ "g"; "game" ] ~docv:"GAME"
          ~doc:
            "Multiprocessor game to sweep: $(b,multi-rbp:P) or \
             $(b,multi-prbp:P) with $(i,P) processors.")
  in
  let rs =
    Arg.(
      value
      & opt (list int) [ 1; 2; 3; 4 ]
      & info [ "r" ] ~docv:"R1,R2,..."
          ~doc:"Comma-separated per-processor capacities to sweep.")
  in
  let comm_cap =
    Arg.(
      value
      & opt (some int) None
      & info [ "comm-cap" ] ~docv:"C"
          ~doc:
            "Reverse mode: binary-search the least capacity whose certified \
             communication optimum is at most $(docv), instead of sweeping.")
  in
  let r_max =
    Arg.(
      value
      & opt (some int) None
      & info [ "r-max" ] ~docv:"N"
          ~doc:
            "With $(b,--comm-cap): cap the capacity search (default: the \
             node count).")
  in
  let max_states =
    Arg.(
      value & opt int 5_000_000
      & info [ "max-states" ] ~doc:"State budget shared by every probe.")
  in
  let deadline =
    Arg.(
      value
      & opt (some duration_conv) None
      & info [ "deadline" ] ~docv:"DUR"
          ~doc:
            "Wall-clock budget for the whole sweep, split across the \
             capacities still to run.  Past it, open points keep certified \
             intervals and the command exits 10.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Parallel search domains per exact probe.")
  in
  let rules =
    rules_arg
      ~doc:
        "Comma-separated lower-bound rule names for bracketed points \
         (default: every registered rule)."
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the wire-schema frontier record on stdout.")
  in
  let with_strategy =
    Arg.(
      value & flag
      & info [ "strategy" ]
          ~doc:"With $(b,--json): embed each point's witness strategy.")
  in
  Cmd.v
    (Cmd.info "frontier"
       ~doc:
         "Certified time/communication/memory trade-off frontiers for the \
          multiprocessor games: sweep per-processor capacities, minimizing \
          communication at each (exactly in reach of the exact engine, by \
          certified bracket beyond), price witnesses through the unit cost \
          model, and report the certified Pareto front.  Exits 10 when the \
          budget left intervals open, 0 when every point settled.")
    Term.(
      const run $ family_arg $ fgame $ rs $ comm_cap $ r_max $ max_states
      $ deadline $ jobs $ rules $ json $ with_strategy $ obs_args)

let trace_cmd =
  let run family r game =
    let g = build family in
    let show_summary render t =
      print_string (render t);
      print_newline ()
    in
    let rbp_trace () =
      let moves = Prbp.Heuristic.rbp ~r g in
      match Prbp.Trace.of_rbp (Prbp.Rbp.config ~r ()) g moves with
      | Ok t ->
          Format.printf "RBP heuristic trace: %s@." (Prbp.Trace.summary t);
          show_summary Prbp.Trace.occupancy t
      | Error e -> Format.printf "RBP trace failed: %s@." e
    in
    let prbp_trace () =
      let moves = Prbp.Heuristic.prbp_best ~r g in
      match Prbp.Trace.of_prbp (Prbp.Prbp_game.config ~r ()) g moves with
      | Ok t ->
          Format.printf "PRBP heuristic trace: %s@." (Prbp.Trace.summary t);
          show_summary Prbp.Trace.occupancy t
      | Error e -> Format.printf "PRBP trace failed: %s@." e
    in
    match game with
    | `Rbp -> rbp_trace ()
    | `Prbp -> prbp_trace ()
    | `Both ->
        rbp_trace ();
        prbp_trace ()
    | `Black | `Multi _ ->
        Format.printf "trace: only the rbp/prbp games have heuristic traces@."
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Replay a heuristic pebbling and draw its cache occupancy.")
    (ok Term.(const run $ family_arg $ r_arg $ game_arg))

let export_cmd =
  let run family output =
    let g = build family in
    match output with
    | None -> print_string (Prbp.Serialize.to_string g)
    | Some path ->
        Prbp.Serialize.to_file path g;
        Format.printf "wrote %s@." path
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default stdout).")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Serialize a family to the plain-text DAG format (load back \
             with --family file:PATH).")
    (ok Term.(const run $ family_arg $ output))

let analyze_cmd =
  let run family =
    let g = build family in
    Format.printf "%a@." Prbp.Dag.pp g;
    Format.printf "trivial cost: %d@." (Prbp.Dag.trivial_cost g);
    (let too_large () =
       Format.printf "black pebbling number: (too large for exact search)@."
     in
     match (Prbp.Black.number g, Prbp.Black.number ~sliding:true g) with
     | Some b, Some bs ->
         Format.printf "black pebbling number: %d (with sliding: %d)@." b bs
     | _ -> too_large ()
     | exception Invalid_argument _ -> too_large ());
    let show name = function
      | Some x -> Format.printf "%s = %d@." name x
      | None -> Format.printf "%s: not found within r <= n@." name
    in
    Format.printf "feasibility: RBP needs r >= %d, PRBP r >= %d@."
      (Prbp.Thresholds.rbp_feasible_r g)
      (Prbp.Thresholds.prbp_feasible_r g);
    show "r*_RBP  (least r at trivial cost)" (Prbp.Thresholds.rbp_trivial_r g);
    show "r*_PRBP (least r at trivial cost)" (Prbp.Thresholds.prbp_trivial_r g)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Exact memory analysis: black pebbling number and trivial-cost           cache thresholds (small DAGs).")
    (ok Term.(const run $ family_arg))

let status_cmd =
  (* a deliberately tiny HTTP/1.1 GET client over the unix stdlib: the
     daemon closes the connection after one response, so "read to EOF,
     split at the header/body boundary" is the whole protocol *)
  let http_get addr path =
    let domain =
      match addr with
      | Unix.ADDR_UNIX _ -> Unix.PF_UNIX
      | Unix.ADDR_INET _ -> Unix.PF_INET
    in
    let sock = Unix.socket domain Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect sock addr;
        let req =
          Printf.sprintf
            "GET %s HTTP/1.1\r\nhost: prbpd\r\nconnection: close\r\n\r\n" path
        in
        let _ = Unix.write_substring sock req 0 (String.length req) in
        let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
        let rec drain () =
          match Unix.read sock chunk 0 4096 with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              drain ()
        in
        drain ();
        let raw = Buffer.contents buf in
        let boundary =
          let n = String.length raw in
          let rec find i =
            if i + 4 > n then None
            else if String.sub raw i 4 = "\r\n\r\n" then Some i
            else find (i + 1)
          in
          find 0
        in
        match boundary with
        | None -> Error "malformed response (no header boundary)"
        | Some i ->
            let head = String.sub raw 0 i in
            let body = String.sub raw (i + 4) (String.length raw - i - 4) in
            if String.length head >= 12 && String.sub head 9 3 = "200" then
              Ok body
            else
              Error
                (Printf.sprintf "daemon answered %s"
                   (String.sub head 9 (min 3 (String.length head - 9)))))
  in
  let run host port unix_socket json =
    let addr =
      match unix_socket with
      | Some path -> Unix.ADDR_UNIX path
      | None -> Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
    in
    match http_get addr "/v1/status" with
    | exception Unix.Unix_error (e, _, _) ->
        Format.eprintf "status: cannot reach the daemon: %s@."
          (Unix.error_message e);
        1
    | Error e ->
        Format.eprintf "status: %s@." e;
        1
    | Ok body -> (
        if json then begin
          print_endline body;
          0
        end
        else
          match Prbp.Wire.decode_status body with
          | Error e ->
              Format.eprintf "status: malformed body: %s@." e;
              1
          | Ok st ->
              Format.printf
                "prbpd up %.1fs: %d workers, %d in flight, %d queued@."
                st.Prbp.Wire.uptime_s st.Prbp.Wire.workers
                st.Prbp.Wire.in_flight st.Prbp.Wire.queued;
              Format.printf
                "requests: %d total; cache %d hits / %d misses@."
                st.Prbp.Wire.requests_total st.Prbp.Wire.cache_hits
                st.Prbp.Wire.cache_misses;
              List.iter
                (fun (rs : Prbp.Wire.route_stat) ->
                  if rs.Prbp.Wire.count > 0 then
                    Format.printf "  %-14s %5d reqs  %8.3fs total@."
                      rs.Prbp.Wire.route rs.Prbp.Wire.count
                      rs.Prbp.Wire.sum_s)
                st.Prbp.Wire.routes;
              let show_req tag (q : Prbp.Wire.req) =
                Format.printf
                  "  %s trace=%d %-14s %d %-4s %7.3fs %s@." tag
                  q.Prbp.Wire.trace_id q.Prbp.Wire.route q.Prbp.Wire.status
                  q.Prbp.Wire.cache q.Prbp.Wire.dur_s q.Prbp.Wire.outcome
              in
              if st.Prbp.Wire.recent <> [] then
                Format.printf "recent (%d seen, capacity %d):@."
                  st.Prbp.Wire.flight_seen st.Prbp.Wire.flight_capacity;
              List.iter (show_req " ") st.Prbp.Wire.recent;
              if st.Prbp.Wire.slowest <> [] then
                Format.printf "slowest (full traces retained):@.";
              List.iter (show_req "*") st.Prbp.Wire.slowest;
              0)
  in
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Daemon address.")
  in
  let port =
    Arg.(
      value & opt int 8367
      & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Daemon TCP port.")
  in
  let unix_socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "unix-socket" ] ~docv:"PATH"
          ~doc:"Connect over a unix-domain socket instead of TCP.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the raw /v1/status JSON body.")
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:
         "Query a running prbpd's /v1/status: uptime, in-flight and \
          queued requests, cache hit ratio, per-route latency, and the \
          flight recorder's recent and slowest requests.")
    Term.(const run $ host $ port $ unix_socket $ json)

let () =
  let doc = "partial-computing red-blue pebble game toolkit" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "pebble_cli" ~doc)
          [
            info_cmd; solve_cmd; bracket_cmd; frontier_cmd; strategy_cmd;
            partition_cmd; dot_cmd; trace_cmd; export_cmd; analyze_cmd;
            status_cmd;
          ]))
