open Test_util
module Table = Prbp.Table
module Experiment = Prbp.Experiment

let test_table_render () =
  let t = Table.make ~header:[ "name"; "cost" ] in
  Table.add_row t [ "fig1"; "3" ];
  Table.add_row t [ "zipper"; "16" ];
  let s = Table.render t in
  check_true "header present" (String.length s > 0);
  let lines = String.split_on_char '\n' (String.trim s) in
  check_int "four lines" 4 (List.length lines);
  check_true "aligned rule"
    (String.for_all (fun c -> c = '-' || c = ' ') (List.nth lines 1))

let test_table_width_mismatch () =
  let t = Table.make ~header:[ "a"; "b" ] in
  check_true "rejected"
    (match Table.add_row t [ "only one" ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_table_rowf () =
  let t = Table.make ~header:[ "m"; "cost"; "bound" ] in
  Table.add_rowf t "%d|%d|%.2f" 4 24 23.08;
  let s = Table.render t in
  check_true "formatted" (String.length s > 0)

let test_csv () =
  let t = Table.make ~header:[ "a"; "b" ] in
  Table.add_row t [ "x,y"; "plain" ];
  let csv = Table.to_csv t in
  check_true "quoted comma"
    (String.length csv > 0
    &&
    match String.index_opt csv '"' with Some _ -> true | None -> false)

let test_experiment_run () =
  let e =
    Experiment.make ~id:"T1" ~paper:"test" ~claim:"1 = 1" (fun ppf (_ : Experiment.ctx) ->
        Format.fprintf ppf "checking@.";
        true)
  in
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  let ok = Experiment.run_one ppf e in
  Format.pp_print_flush ppf ();
  check_true "confirmed" ok;
  let s = Buffer.contents buf in
  check_true "id printed"
    (String.length s > 0
    &&
    let rec contains i =
      i + 2 <= String.length s && (String.sub s i 2 = "T1" || contains (i + 1))
    in
    contains 0)

let test_experiment_run_all () =
  let mk id ok =
    Experiment.make ~id ~paper:"p" ~claim:"c" (fun _ _ -> ok)
  in
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  let confirmed, total =
    Experiment.run_all ppf [ mk "A" true; mk "B" false; mk "C" true ]
  in
  check_int "confirmed" 2 confirmed;
  check_int "total" 3 total

(* ------------------------------------------------------------------ *)
(* The width gate over the committed BENCH_solver.json *)

module Regression = Prbp.Regression
module Wire = Prbp.Wire

let bench_text () =
  (* the dune rule copies the committed file next to the test tree *)
  In_channel.with_open_bin
    (Filename.concat
       (Filename.dirname Sys.executable_name)
       "../BENCH_solver.json")
    In_channel.input_all

let committed () =
  match Regression.of_string (bench_text ()) with
  | Ok b -> b
  | Error e -> Alcotest.failf "BENCH_solver.json: %s" e

let test_committed_rows () =
  let b = committed () in
  Alcotest.(check (list int))
    "bracket widths" [ 762; 762; 31069; 5888 ]
    (List.map (fun (row : Wire.bracket) -> row.width) b.Regression.brackets);
  Alcotest.(check (list int))
    "frontier widths" [ 0; 0; 786; 11264 ]
    (List.map Wire.frontier_width b.Regression.frontiers)

let test_bracket_slack () =
  let base = List.hd (committed ()).Regression.brackets in
  let wider pct =
    { base with Wire.width = base.Wire.width * (100 + pct) / 100 }
  in
  match Regression.check ~baseline:[ base ] [ wider 11; wider 9 ] with
  | [ Regression.Regressed _; Regression.Ok_width _ ] -> ()
  | vs ->
      Alcotest.failf "expected [regressed; ok], got %a"
        Fmt.(Dump.list Regression.pp_verdict)
        vs

let test_frontier_open_point () =
  let base = List.hd (committed ()).Regression.frontiers in
  let reopened =
    match base.Wire.points with
    | pt :: rest ->
        { base with Wire.points = { pt with Wire.settled = false } :: rest }
    | [] -> Alcotest.fail "committed frontier has no points"
  in
  check_true "one more open point regresses"
    (Regression.frontier_regressed
       (Regression.check_frontiers ~baseline:[ base ] [ reopened ]))

let test_undecodable_row () =
  let module Json = Prbp.Obs.Json in
  let row = Wire.encode_bracket (List.hd (committed ()).Regression.brackets) in
  let without_width =
    match Json.of_string row with
    | Ok (Json.Obj kvs) ->
        Json.to_string (Json.Obj (List.remove_assoc "interval_width" kvs))
    | _ -> Alcotest.fail "bracket rows are objects"
  in
  let doc rows = "{\"brackets\":[" ^ rows ^ "]}" in
  check_ok "the intact row decodes" (Regression.of_string (doc row));
  check_err "a row missing its width"
    (Regression.of_string (doc without_width))

let suite =
  [
    ( "harness",
      [
        case "table rendering" test_table_render;
        case "row width checked" test_table_width_mismatch;
        case "formatted rows" test_table_rowf;
        case "csv escaping" test_csv;
        case "experiment run" test_experiment_run;
        case "experiment aggregation" test_experiment_run_all;
        case "width gate reads the committed rows" test_committed_rows;
        case "width gate slack: 11% regresses, 9% passes" test_bracket_slack;
        case "width gate: one more open frontier point"
          test_frontier_open_point;
        case "width gate: an undecodable row is an error" test_undecodable_row;
      ] );
  ]
