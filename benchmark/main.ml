(* The prbp benchmark.  See README.md for the workloads, the metrics and
   how to read them.

     main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
              [--quick] [--out FILE] [--chrome FILE] [--prbpd PATH]
       one run of one workload; the last line of standard output is a
       JSON summary, and the exit code is 1 if any output failed its
       correctness oracle
     main.exe run [--seed N] [--seconds S] [--quick] --out FILE
       every workload, each run three times in its own child process
     main.exe trace [--seed N] [--seconds S] [--quick] --out FILE [--chrome FILE]
       one traced run of every workload: the per-layer metrics and a
       Chrome trace
     main.exe compare A1.json B1.json [A2.json B2.json ...] [--spec BENCHMARK.json]
       paired verdicts: parent (A) and change (B) results, run alternately
     main.exe selftest [--spec BENCHMARK.json]
       every workload at toy size, traced and untraced, checking that
       each metric BENCHMARK.json names is emitted with its unit *)

module J = Util.Json

let workloads = [ "exact"; "bracket"; "serve-hit"; "serve-miss" ]

let run_workload name ~trace st =
  match (name, trace) with
  | "exact", false -> Wl_exact.run st
  | "exact", true -> Wl_exact.trace st
  | "bracket", false -> Wl_bracket.run st
  | "bracket", true -> Wl_bracket.trace st
  | "serve-hit", false -> Wl_serve.run Wl_serve.Hit st
  | "serve-hit", true -> Wl_serve.trace Wl_serve.Hit st
  | "serve-miss", false -> Wl_serve.run Wl_serve.Miss st
  | "serve-miss", true -> Wl_serve.trace Wl_serve.Miss st
  | _ -> invalid_arg name

(* An untraced run reports every end-to-end metric; a traced run every
   per-layer metric, with 0 for layers the workload never reaches. *)
let complete ~trace (r : Workload.result) =
  let names =
    if trace then List.map (fun (l : Metrics.layer) -> l.d.name) Metrics.per_layer
    else List.map (fun (d : Metrics.def) -> d.name) Metrics.end_to_end
  in
  {
    r with
    metrics =
      List.map
        (fun n ->
          (n, Option.value ~default:(Util.exact 0.) (List.assoc_opt n r.metrics)))
        names;
  }

let one ~workload ~trace ~out ~chrome (st : Workload.settings) =
  let r = complete ~trace (run_workload workload ~trace st) in
  Option.iter
    (fun path -> Util.write_file path (Prbp.Obs.Span.to_chrome ()))
    (if trace then chrome else None);
  Option.iter
    (fun path ->
      Util.write_file path
        (J.to_string
           (Results.file
              ~provenance:
                (Results.provenance ~seed:st.seed ~seconds:st.seconds ~quick:st.quick ~trace)
              [ (workload, Results.workload_json r) ])))
    out;
  List.iter
    (fun (k, (v : Util.value)) ->
      Util.log "%-10s %-36s %14.6g %-6s [p25 %.6g, p75 %.6g, n %d]" workload k v.value
        (Metrics.unit_of k) v.p25 v.p75 v.n)
    r.metrics;
  print_endline (Results.summary_line r);
  if Results.failed r = 0 then 0 else 1

(* ------------------------------------------------------------------ *)
(* Child processes: [run], [trace] and [selftest] re-execute this
   program once per workload, so each workload has its own heap and its
   own peak RSS.  The child's standard output is returned; its standard
   error passes through.  A child still running when this process exits
   (interrupted, or failing) is stopped and reaped; it stops its own
   daemon in turn. *)

let running = ref None

let () =
  at_exit (fun () ->
      Option.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !running)

let child ?(stderr = Unix.stderr) args =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w stderr in
  running := Some pid;
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  running := None;
  (status, out)

(* As [child], with the child's standard error captured to a file in
   [dir] and returned. *)
let child_quiet ~dir args =
  let log = Filename.concat dir "child.err" in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let status, out =
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> child ~stderr:fd args)
  in
  (status, out, Util.read_file log)

let child_args ~workload ~trace ~(st : Workload.settings) extra =
  [
    "--workload"; workload; "--seed"; string_of_int st.seed; "--seconds";
    Printf.sprintf "%g" st.seconds; "--trace"; (if trace then "1" else "0"); "--prbpd";
    st.prbpd;
  ]
  @ (if st.quick then [ "--quick" ] else [])
  @ extra

let child_record ~dir ~workload ~trace ~st tag extra =
  let path = Filename.concat dir (workload ^ tag ^ ".json") in
  let status, _ = child (child_args ~workload ~trace ~st ([ "--out"; path ] @ extra)) in
  if status <> Unix.WEXITED 0 then Util.log "%s: run failed or was incorrect" workload;
  if not (Sys.file_exists path) then failwith (workload ^ ": no results written");
  Util.member_exn workload (Util.member_exn "workloads" (Util.read_json path))

let with_dir f =
  let dir = Util.fresh_dir () in
  Fun.protect ~finally:(fun () -> Util.remove_dir dir) (fun () -> f dir)

let print_table ws =
  List.iter
    (fun (w, j) ->
      match Util.member_exn "metrics" j with
      | J.Obj ms ->
          List.iter
            (fun (k, m) ->
              Printf.printf "%-10s %-36s %14.6g %s\n" w k
                (Util.float_exn (Util.member_exn "value" m))
                (Util.string_exn (Util.member_exn "unit" m)))
            ms
      | _ -> ())
    ws

let all_correct ws =
  List.for_all (fun (_, j) -> Util.member_exn "correct" j = J.Bool true) ws

(* Runs per workload in [run]: its results file holds the median and
   the quartiles across them. *)
let repeats = 3

let run_set ~out (st : Workload.settings) =
  let ws =
    with_dir (fun dir ->
        List.map
          (fun w ->
            ( w,
              Results.merge_runs
                (List.init repeats (fun i ->
                     child_record ~dir ~workload:w ~trace:false ~st (string_of_int i) [])) ))
          workloads)
  in
  let provenance =
    Results.provenance ~seed:st.seed ~seconds:st.seconds ~quick:st.quick ~trace:false
  in
  Util.write_file out (J.to_string (Results.file ~provenance ws));
  print_table ws;
  if all_correct ws then 0 else 1

(* The per-layer report: every workload's traced values, and for each
   metric the value from its home workload with the end-to-end metric
   it should move. *)
let trace_set ~out ~chrome (st : Workload.settings) =
  let ws, events =
    with_dir (fun dir ->
        let runs =
          List.mapi
            (fun i w ->
              let trace_path = Filename.concat dir (w ^ ".trace.json") in
              let record =
                child_record ~dir ~workload:w ~trace:true ~st "" [ "--chrome"; trace_path ]
              in
              (* each workload becomes one process of the merged trace *)
              let pid = J.Int (i + 1) in
              let events =
                if Sys.file_exists trace_path then
                  List.map
                    (function
                      | J.Obj fields ->
                          J.Obj (List.map (fun (k, v) -> (k, if k = "pid" then pid else v)) fields)
                      | e -> e)
                    (Util.list_exn (Util.member_exn "traceEvents" (Util.read_json trace_path)))
                else []
              in
              let name_event =
                J.Obj
                  [
                    ("name", J.String "process_name");
                    ("ph", J.String "M");
                    ("pid", pid);
                    ("args", J.Obj [ ("name", J.String w) ]);
                  ]
              in
              ((w, record), name_event :: events))
            workloads
        in
        (List.map fst runs, List.concat_map snd runs))
  in
  let layers =
    List.map
      (fun (l : Metrics.layer) ->
        let home = Util.member_exn "metrics" (List.assoc l.home ws) in
        ( l.d.name,
          J.Obj
            [
              ("unit", J.String l.d.unit_);
              ("better", J.String l.d.better);
              ("value", Util.member_exn "value" (Util.member_exn l.d.name home));
              ("measured_on", J.String l.home);
              ("moves", J.String l.moves);
            ] ))
      Metrics.per_layer
  in
  let provenance =
    Results.provenance ~seed:st.seed ~seconds:st.seconds ~quick:st.quick ~trace:true
  in
  Util.write_file out
    (J.to_string
       (J.Obj
          [
            ("benchmark", J.String "prbp"); ("provenance", provenance); ("layers", J.Obj layers);
            ("workloads", J.Obj ws);
          ]));
  Option.iter
    (fun path ->
      Util.write_file path
        (J.to_string
           (J.Obj [ ("displayTimeUnit", J.String "ms"); ("traceEvents", J.List events) ])))
    chrome;
  List.iter
    (fun (name, l) ->
      Printf.printf "%-36s %14.6g %-6s measured on %-10s moves %s\n" name
        (Util.float_exn (Util.member_exn "value" l))
        (Util.string_exn (Util.member_exn "unit" l))
        (Util.string_exn (Util.member_exn "measured_on" l))
        (Util.string_exn (Util.member_exn "moves" l)))
    layers;
  if all_correct ws then 0 else 1

(* ------------------------------------------------------------------ *)
(* Self-test: the benchmark cannot rot unnoticed.  Every workload runs
   at toy size, traced and untraced, through the same command line the
   benchmark is driven by; the summary line must list exactly the
   metrics BENCHMARK.json names, each with its unit and a finite value,
   and every output must pass its oracle. *)

let selftest ~spec_path (st : Workload.settings) =
  let spec = Spec.load spec_path in
  let problems = ref (Spec.drift spec) in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if spec.workloads <> workloads then problem "BENCHMARK.json names other workloads";
  let st = { st with quick = true; seconds = 0.3 } in
  with_dir @@ fun dir ->
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let expected = if trace then spec.per_layer else spec.end_to_end in
          let tag = Printf.sprintf "%s --trace %d" w (if trace then 1 else 0) in
          let status, out, err = child_quiet ~dir (child_args ~workload:w ~trace ~st []) in
          if status <> Unix.WEXITED 0 then begin
            prerr_string err;
            problem "%s: exit status is not 0" tag
          end;
          let last =
            List.fold_left
              (fun acc l -> if String.trim l = "" then acc else l)
              "" (String.split_on_char '\n' out)
          in
          match J.of_string last with
          | Error e -> problem "%s: last line is not JSON (%s)" tag e
          | Ok (J.Obj fields as j) -> (
              if List.map fst fields <> [ "correct"; "attempted"; "failed"; "metrics" ] then
                problem "%s: summary keys differ" tag;
              if J.member "correct" j <> Some (J.Bool true) then problem "%s: not correct" tag;
              match J.member "metrics" j with
              | Some (J.Obj ms) ->
                  if List.length ms <> List.length expected then
                    problem "%s: %d metrics" tag (List.length ms);
                  List.iter
                    (fun (m : Spec.metric) ->
                      match List.assoc_opt m.name ms with
                      | None -> problem "%s: %s missing" tag m.name
                      | Some v ->
                          if J.member "unit" v <> Some (J.String m.unit_) then
                            problem "%s: %s has the wrong unit" tag m.name;
                          (match Option.bind (J.member "value" v) J.to_float with
                          | Some f when Float.is_finite f -> ()
                          | _ -> problem "%s: %s has no value" tag m.name))
                    expected
              | _ -> problem "%s: no metrics" tag)
          | Ok _ -> problem "%s: summary is not an object" tag)
        [ false; true ])
    workloads;
  List.iter (Printf.printf "selftest: %s\n") (List.rev !problems);
  if !problems = [] then begin
    print_endline "selftest: ok";
    0
  end
  else 1

(* ------------------------------------------------------------------ *)

let usage =
  "usage: main.exe [run|trace|compare|selftest] [--workload W] [--seed N] [--seconds S] \
   [--trace 0|1] [--quick] [--out FILE] [--chrome FILE] [--spec FILE] [--prbpd PATH]"

let main () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 130));
  let args = List.tl (Array.to_list Sys.argv) in
  let sub, rest =
    match args with
    | (("run" | "trace" | "compare" | "selftest") as s) :: rest -> (Some s, rest)
    | rest -> (None, rest)
  in
  let workload = ref "" and seed = ref 1 and seconds = ref 25. and trace = ref false in
  let quick = ref false and out = ref None and chrome = ref None in
  let spec = ref "BENCHMARK.json" in
  let prbpd = ref (Filename.concat (Filename.dirname Sys.executable_name) "prbpd.exe") in
  let anon = ref [] in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "W one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S timed window per run (default 25)");
      ( "--trace",
        Arg.Int
          (function
          | 0 -> trace := false
          | 1 -> trace := true
          | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
        "0|1 per-layer metrics instead of end-to-end ones" );
      ("--quick", Arg.Set quick, " toy sizes");
      ("--out", Arg.String (fun s -> out := Some s), "FILE results file");
      ("--chrome", Arg.String (fun s -> chrome := Some s), "FILE Chrome trace (traced runs)");
      ("--spec", Arg.Set_string spec, "FILE BENCHMARK.json");
      ("--prbpd", Arg.Set_string prbpd, "PATH the daemon binary");
    ]
  in
  match
    Arg.parse_argv ~current:(ref 0)
      (Array.of_list (Sys.executable_name :: rest))
      specs
      (fun a -> anon := !anon @ [ a ])
      usage
  with
  | exception Arg.Bad msg ->
      prerr_string msg;
      2
  | exception Arg.Help msg ->
      print_string msg;
      0
  | () -> (
      let st =
        { Workload.seed = !seed; seconds = !seconds; quick = !quick; prbpd = !prbpd }
      in
      let need_out () =
        match !out with
        | Some o -> o
        | None ->
            prerr_endline usage;
            exit 2
      in
      if !seconds <= 0. then begin
        prerr_endline "--seconds must be positive";
        exit 2
      end;
      match (sub, !anon) with
      | None, [] when List.mem !workload workloads ->
          one ~workload:!workload ~trace:!trace ~out:!out ~chrome:!chrome st
      | Some "run", [] -> run_set ~out:(need_out ()) st
      | Some "trace", [] -> trace_set ~out:(need_out ()) ~chrome:!chrome st
      | Some "compare", (_ :: _ as files) when List.length files mod 2 = 0 ->
          Compare.run ~spec:(Spec.load !spec) files
      | Some "selftest", [] -> selftest ~spec_path:!spec st
      | _ ->
          prerr_endline usage;
          2)

let () = exit (main ())
