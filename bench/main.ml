(* Experiment harness: regenerates every quantitative claim of the
   paper (one experiment per proposition / theorem / figure), then
   rewrites the certified-width baseline BENCH_solver.json (Perf).
   Timings are measured by the benchmark under benchmark/.

     dune exec bench/main.exe                     # everything
     dune exec bench/main.exe -- --no-perf        # experiments only
     dune exec bench/main.exe -- --perf           # width baseline only
     dune exec bench/main.exe -- --check-widths   # gate vs the baseline
     dune exec bench/main.exe -- E03 E08          # a subset of experiments
     dune exec bench/main.exe -- -j 4             # 4 worker domains
     dune exec bench/main.exe -- --profile        # span-tree timing summary
     dune exec bench/main.exe -- --profile-out trace.json --metrics-out m.prom

   An unknown experiment id is a usage error (exit 2). *)

let experiments =
  Exp_fundamentals.all @ Exp_partitions.all @ Exp_bounds.all
  @ Exp_variants.all @ Exp_extensions.all @ Exp_bracket.all
  @ Exp_frontier.all

let default_jobs = min 8 (Domain.recommended_domain_count ())

let usage () =
  prerr_endline
    "usage: main.exe [--perf|--no-perf] [--check-widths] [-j N] \
     [--profile] [--profile-out FILE] [--metrics-out FILE] \
     [EXPERIMENT_ID ...]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let perf_only = ref false in
  let no_perf = ref false in
  let check_widths = ref false in
  let jobs = ref default_jobs in
  let profile = ref false in
  let profile_out = ref None in
  let metrics_out = ref None in
  let ids = ref [] in
  let rec parse = function
    | [] -> ()
    | "--perf" :: rest ->
        perf_only := true;
        parse rest
    | "--no-perf" :: rest ->
        no_perf := true;
        parse rest
    | "--check-widths" :: rest ->
        check_widths := true;
        parse rest
    | "--profile" :: rest ->
        profile := true;
        parse rest
    | "--profile-out" :: f :: rest ->
        profile_out := Some f;
        parse rest
    | "--metrics-out" :: f :: rest ->
        metrics_out := Some f;
        parse rest
    | "-j" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            jobs := n;
            parse rest
        | _ -> usage ())
    | a :: rest when String.length a > 2 && String.sub a 0 2 = "-j" -> (
        match int_of_string_opt (String.sub a 2 (String.length a - 2)) with
        | Some n when n >= 1 ->
            jobs := n;
            parse rest
        | _ -> usage ())
    | a :: _ when String.length a > 1 && a.[0] = '-' -> usage ()
    | a :: rest when List.exists (fun e -> e.Prbp.Experiment.id = a) experiments
      ->
        ids := a :: !ids;
        parse rest
    | a :: _ ->
        prerr_endline ("main.exe: unknown experiment id " ^ a);
        usage ()
  in
  parse args;
  let ids = List.rev !ids in
  (* Spans also turn metrics on: the per-experiment span attrs
     (engine_expansions) are counter deltas and read 0 otherwise. *)
  if !profile || !profile_out <> None then begin
    Prbp.Obs.Span.set_enabled true;
    Prbp.Obs.Metrics.set_enabled true
  end;
  if !metrics_out <> None then Prbp.Obs.Metrics.set_enabled true;
  let ppf = Format.std_formatter in
  Format.fprintf ppf
    "PRBP experiment harness — reproducing \"The Impact of Partial \
     Computations on the Red-Blue Pebble Game\" (SPAA 2025)@.";
  if !check_widths then begin
    (* the width gate is its own mode: bracket cases vs the committed
       BENCH_solver.json, nothing else *)
    let code = Perf.check_widths ppf in
    Format.pp_print_flush ppf ();
    exit code
  end;
  if not !perf_only then begin
    let selected =
      match ids with
      | [] -> experiments
      | ids ->
          List.filter (fun e -> List.mem e.Prbp.Experiment.id ids) experiments
    in
    let confirmed, total = Prbp.Experiment.run_all ~jobs:!jobs ppf selected in
    if confirmed <> total then exit 1
  end;
  let perf_code = if !no_perf then 0 else Perf.run ppf in
  (* exports last, so they cover experiments and benchmarks alike *)
  let write path s =
    let oc = open_out path in
    output_string oc s;
    close_out oc
  in
  Option.iter (fun p -> write p (Prbp.Obs.Span.to_chrome ())) !profile_out;
  Option.iter (fun p -> write p (Prbp.Obs.Metrics.to_prometheus ())) !metrics_out;
  if !profile then
    Format.fprintf ppf "@.=== PROFILE — span tree ===@.@.%s@."
      (Prbp.Obs.Span.to_text ());
  Format.pp_print_flush ppf ();
  exit perf_code
