(* lib/bounds/Bracket: wherever the exact solvers can reach, a bracket
   must contain the optimum, and every certificate it embeds must
   re-validate independently of the code that built it. *)
open Test_util
module Dag = Prbp.Dag
module Segment = Prbp.Bounds.Segment
module Lower = Prbp.Bounds.Lower
module Upper = Prbp.Bounds.Upper
module Bracket = Prbp.Bounds.Bracket

let small_graphs =
  lazy
    ([
       ("diamond", Prbp.Graphs.Basic.diamond ());
       ("pyramid(3)", Prbp.Graphs.Basic.pyramid 3);
       ("fan_in(4)", Prbp.Graphs.Basic.fan_in 4);
       ("horner(3)", Prbp.Graphs.Basic.horner 3);
       ("path(6)", Prbp.Graphs.Basic.path 6);
       ("fig1", fst (Prbp.Graphs.Fig1.full ()));
     ]
    @ List.filteri
        (fun i _ -> i < 4)
        (List.map
           (fun g -> ("random", g))
           (List.filter
              (fun g -> Dag.n_nodes g <= 12)
              (Lazy.force random_dags))))

let exact game ~r g =
  match game with
  | `Rbp -> opt_rbp_opt (Prbp.Rbp.config ~r ()) g
  | `Prbp -> opt_prbp_opt (Prbp.Prbp_game.config ~r ()) g

let bracket game ?budget ~r g =
  match game with
  | `Rbp -> Bracket.rbp ?budget ~r g
  | `Prbp -> Bracket.prbp ?budget ~r g

(* satellite (d): brackets contain the exact optimum on every DAG with
   n <= 12, for both games and several r *)
let test_contains_optimum () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun game ->
          List.iter
            (fun r ->
              let what =
                Printf.sprintf "%s %s r=%d" name
                  (match game with `Rbp -> "rbp" | `Prbp -> "prbp")
                  r
              in
              match (bracket game ~r g, exact game ~r g) with
              | Error _, None -> () (* both agree: no strategy at this r *)
              | Error e, Some _ ->
                  Alcotest.failf "%s: bracket failed but OPT exists: %s" what e
              | Ok _, None ->
                  Alcotest.failf "%s: bracket claims a strategy, OPT says none"
                    what
              | Ok b, Some opt ->
                  check_true
                    (Printf.sprintf "%s: %d <= %d <= %d" what
                       b.Bracket.lower.Lower.bound opt b.Bracket.upper)
                    (b.Bracket.lower.Lower.bound <= opt
                    && opt <= b.Bracket.upper))
            [ 2; 3; 4 ])
        [ `Rbp; `Prbp ])
    (Lazy.force small_graphs)

(* every embedded certificate re-validates through the independent
   checkers: Spart for partitions, the literal verifier for moves *)
let test_certificates_revalidate () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun game ->
          let r = 3 in
          match bracket game ~r g with
          | Error _ -> ()
          | Ok b ->
              (match b.Bracket.lower.Lower.witness with
              | Some seg -> check_ok (name ^ ": witness") (Segment.validate g seg)
              | None -> ());
              (match b.Bracket.profile with
              | Some seg -> check_ok (name ^ ": profile") (Segment.validate g seg)
              | None -> ());
              let replay =
                match b.Bracket.moves with
                | Bracket.Rbp_moves mv -> Prbp.Verifier.R.check ~r g mv
                | Bracket.Prbp_moves mv -> Prbp.Verifier.P.check ~r g mv
              in
              (match replay with
              | Ok c -> check_int (name ^ ": replay cost") b.Bracket.upper c
              | Error e -> Alcotest.failf "%s: replay rejected: %s" name e);
              check_true (name ^ ": game tag matches moves")
                (match (b.Bracket.game, b.Bracket.moves) with
                | Lower.Rbp, Bracket.Rbp_moves _
                | Lower.Prbp, Bracket.Prbp_moves _ ->
                    true
                | _ -> false))
        [ `Rbp; `Prbp ])
    (Lazy.force small_graphs)

let test_tight_bracket () =
  (* fan_in(5) at r = 6: load 5 sources + write the sink, and the
     trivial bound already equals it — the bracket must pin OPT *)
  let g = Prbp.Graphs.Basic.fan_in 5 in
  match Bracket.rbp ~r:6 g with
  | Error e -> Alcotest.failf "fan_in(5): %s" e
  | Ok b ->
      check_true "tight" b.Bracket.tight;
      check_int "pinned at 6" 6 b.Bracket.upper;
      check_int "OPT agrees" (opt_rbp (Prbp.Rbp.config ~r:6 ()) g)
        b.Bracket.upper

(* a starved budget must degrade the bracket, never break it: the first
   base heuristic (Belady) still runs and produces a verified strategy,
   and the lower portfolio falls back to the always-cheap rules *)
let test_starved_budget_stays_sound () =
  let budget =
    Prbp.Solver.Budget.v ~max_states:10 ~max_millis:1 ~check_every:1 ()
  in
  List.iter
    (fun (name, g) ->
      match Bracket.prbp ~budget ~r:3 g with
      | Error e -> Alcotest.failf "%s under starved budget: %s" name e
      | Ok b -> (
          match exact `Prbp ~r:3 g with
          | None -> Alcotest.failf "%s: OPT should exist at r=3" name
          | Some opt ->
              check_true (name ^ ": still contains OPT")
                (b.Bracket.lower.Lower.bound <= opt
                && opt <= b.Bracket.upper)))
    (Lazy.force small_graphs)

let fft16 () = (Prbp.Graphs.Fft.make ~m:16).Prbp.Graphs.Fft.dag

(* the upper stage is anytime: every verified improvement is a curve
   point as soon as its replay passes, so the curve reaches the final
   width before the bracket returns *)
let test_curve_has_every_improvement () =
  let module C = Prbp.Solver.Convergence in
  match Bracket.prbp ~r:4 (fft16 ()) with
  | Error e -> Alcotest.failf "fft:16: %s" e
  | Ok b -> (
      let curve = b.Bracket.curve in
      let show (p : C.point) =
        Printf.sprintf "%d/%s" p.C.lower
          (match p.C.upper with Some u -> string_of_int u | None -> "-")
      in
      Alcotest.(check (list string))
        "lower sighting, then belady, banded1 and banded2"
        [ "32/-"; "32/160"; "32/120"; "32/112" ]
        (List.map show curve);
      check_true "monotone" (C.monotone curve);
      (match C.final curve with
      | Some p ->
          check_true "ends at the bracket"
            (p.C.lower = b.Bracket.lower.Lower.bound
            && p.C.upper = Some b.Bracket.upper)
      | None -> Alcotest.fail "empty curve");
      match C.time_to_width curve b.Bracket.width with
      | Some t ->
          check_true "width reached before the bracket returns"
            (t < b.Bracket.elapsed_s)
      | None -> Alcotest.fail "the curve never reaches the bracket's width")

(* a deadline that expires during the lower stage leaves the upper
   stage one base candidate and skips the profile; the strategy is
   still certified.  The fake clock advances 1 s per read, so the
   1 s deadline has passed by the lower stage's first reads. *)
let test_expired_deadline_runs_one_candidate () =
  let module Clock = Prbp.Obs.Clock in
  let module Span = Prbp.Obs.Span in
  let g = fft16 () in
  let t = ref 0. in
  Clock.set_source
    (Some
       (fun () ->
         t := !t +. 1.;
         !t));
  Span.reset ();
  Span.set_enabled true;
  let result, spans =
    Fun.protect
      ~finally:(fun () ->
        Span.set_enabled false;
        Span.reset ();
        Clock.set_source None)
      (fun () ->
        let budget = Prbp.Solver.Budget.v ~max_millis:1000 () in
        let b = Bracket.prbp ~budget ~r:4 g in
        (b, Span.spans ()))
  in
  let count name =
    List.length (List.filter (fun s -> s.Span.name = name) spans)
  in
  match result with
  | Error e -> Alcotest.failf "fft:16 under an expired deadline: %s" e
  | Ok b -> (
      check_int "one base candidate" 1 (count "upper.candidate");
      check_int "no hill climb" 0 (count "upper.reorder");
      check_true "profile skipped" (b.Bracket.profile = None);
      check_int "no profile stage" 0 (count "bracket.profile");
      match b.Bracket.moves with
      | Bracket.Prbp_moves mv -> (
          match Prbp.Verifier.P.check ~r:4 g mv with
          | Ok c -> check_int "strategy replays at its upper" b.Bracket.upper c
          | Error e -> Alcotest.failf "replay rejected: %s" e)
      | Bracket.Rbp_moves _ -> Alcotest.fail "PRBP bracket carries RBP moves")

let test_deterministic_without_deadline () =
  (* no wall clock in the budget: two runs must agree on every field
     that is not elapsed time *)
  let key (b : Bracket.t) =
    ( b.Bracket.lower.Lower.bound,
      b.Bracket.lower.Lower.rule,
      b.Bracket.upper,
      Upper.meth_label b.Bracket.meth,
      b.Bracket.tight,
      Option.map Segment.n_classes b.Bracket.profile )
  in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun game ->
          match (bracket game ~r:3 g, bracket game ~r:3 g) with
          | Ok a, Ok b ->
              check_true (name ^ ": runs agree") (key a = key b)
          | Error _, Error _ -> ()
          | _ -> Alcotest.failf "%s: feasibility flipped between runs" name)
        [ `Rbp; `Prbp ])
    (Lazy.force small_graphs)

let test_json_row () =
  let g = Prbp.Graphs.Basic.diamond () in
  match Bracket.prbp ~r:2 g with
  | Error e -> Alcotest.failf "diamond: %s" e
  | Ok b ->
      let json =
        Prbp.Wire.encode_bracket (Prbp.Wire.bracket_of ~family:"diamond" b)
      in
      let contains needle hay =
        let nl = String.length needle and hl = String.length hay in
        let rec go i =
          i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
        in
        go 0
      in
      check_true "kind" (contains "\"kind\":\"bracket\"" json);
      check_true "family" (contains "\"family\":\"diamond\"" json);
      check_true "game" (contains "\"game\":\"prbp\"" json);
      check_true "upper"
        (contains (Printf.sprintf "\"upper\":%d" b.Bracket.upper) json);
      match Prbp.Wire.decode_bracket json with
      | Error e -> Alcotest.failf "decode_bracket: %s" e
      | Ok wb ->
          Alcotest.(check string)
            "bracket row round-trips byte-identically" json
            (Prbp.Wire.encode_bracket wb)

(* ------------------------------------------------------------------ *)
(* Pinned certificates: with no deadline a bracket is deterministic, so
   each one, moves included, is compared byte for byte with
   golden/brackets_v1.jsonl.  The wall-clock fields ([curve],
   [elapsed_s]) are blanked. *)

let golden_dags () =
  let fft m = (Prbp.Graphs.Fft.make ~m).Prbp.Graphs.Fft.dag in
  [
    ("fig1", fst (Prbp.Graphs.Fig1.full ()));
    ("diamond", Prbp.Graphs.Basic.diamond ());
    ("tree(2,3)", (Prbp.Graphs.Tree.make ~k:2 ~depth:3).Prbp.Graphs.Tree.dag);
    ("pyramid(5)", Prbp.Graphs.Basic.pyramid 5);
    ("fft:8", fft 8);
    ("fft:16", fft 16);
    ( "attention-qkt:4:4",
      (Prbp.Graphs.Attention.qkt ~m:4 ~d:4).Prbp.Graphs.Matmul.dag );
  ]
  @ List.map
      (fun seed ->
        ( Printf.sprintf "random:%d" seed,
          Prbp.Graphs.Random_dag.make ~seed ~layers:4 ~width:3 () ))
      [ 1; 2; 3 ]

(* both games at the RBP feasibility threshold and one above it *)
let golden_brackets () =
  List.concat_map
    (fun (name, g) ->
      let r0 = Prbp.Thresholds.rbp_feasible_r g in
      List.concat_map
        (fun game ->
          List.map
            (fun r ->
              match bracket game ~r g with
              | Error e -> Alcotest.failf "%s r=%d: %s" name r e
              | Ok b ->
                  Prbp.Wire.encode_bracket
                    {
                      (Prbp.Wire.bracket_of ~family:name ~with_moves:true b)
                      with
                      Prbp.Wire.curve = [];
                      elapsed_s = 0.;
                    })
            [ r0; r0 + 1 ])
        [ `Rbp; `Prbp ])
    (golden_dags ())

let test_golden_certificates () =
  check_golden "brackets_v1.jsonl" (golden_brackets ())

let gen_dag =
  QCheck.make
    ~print:(fun (seed, layers, width) ->
      Printf.sprintf "seed=%d layers=%d width=%d" seed layers width)
    QCheck.Gen.(triple (int_range 1 10_000) (int_range 2 3) (int_range 1 3))

let dag_of (seed, layers, width) =
  Prbp.Graphs.Random_dag.make ~seed ~layers ~width ~density:0.35
    ~max_in_degree:3 ()

(* The bracket contains the optimum.  An exact solve that runs out of
   its budget still certifies an interval, and the two certified
   intervals must then intersect. *)
let contains ?budget game ~r g =
  let module S = Prbp.Solver in
  (* the exact verdict as a certified interval [lower, upper] *)
  let interval = function
    | S.Optimal o -> Some (o.S.cost, Some o.S.cost)
    | S.Bounded x -> Some (x.S.lower, x.S.upper)
    | S.Unsolvable _ -> None
  in
  let exact =
    match game with
    | `Rbp -> interval (Prbp.Exact_rbp.solve ?budget (Prbp.Rbp.config ~r ()) g)
    | `Prbp ->
        interval
          (Prbp.Exact_prbp.solve ?budget (Prbp.Prbp_game.config ~r ()) g)
  in
  match (bracket game ~r g, exact) with
  | Error _, None -> true
  | Error _, Some (_, upper) -> upper = None
  | Ok _, None -> false
  | Ok b, Some (lower, upper) -> (
      lower <= b.Bracket.upper
      &&
      match upper with
      | Some u -> b.Bracket.lower.Lower.bound <= u
      | None -> true)

let prop_contains game label =
  qcase ~count:25 (label ^ " brackets contain the exact optimum") gen_dag
    (fun params -> contains game ~r:3 (dag_of params))

(* A DAG of the property's generator on which the exact PRBP solve at
   r = 3 runs out of its default budget ([9, 19] against the bracket's
   [6, 18]); here a small budget truncates it sooner. *)
let test_truncated_exact_intersects () =
  let g = dag_of (622, 3, 3) in
  let budget = Prbp.Solver.Budget.v ~max_states:20_000 () in
  check_true "the exact solve is truncated"
    (match
       Prbp.Exact_prbp.solve ~budget (Prbp.Prbp_game.config ~r:3 ()) g
     with
    | Prbp.Solver.Bounded _ -> true
    | _ -> false);
  check_true "the certified intervals intersect"
    (contains ~budget `Prbp ~r:3 g)

let suite =
  [
    ( "bracket",
      [
        slow_case "contains OPT on all small DAGs" test_contains_optimum;
        case "certificates re-validate" test_certificates_revalidate;
        case "tight bracket pins OPT" test_tight_bracket;
        case "starved budget stays sound" test_starved_budget_stays_sound;
        case "curve has one point per improvement"
          test_curve_has_every_improvement;
        case "expired deadline runs one base candidate"
          test_expired_deadline_runs_one_candidate;
        case "deterministic without deadline" test_deterministic_without_deadline;
        case "json row" test_json_row;
        case "certificates match the golden file" test_golden_certificates;
        prop_contains `Rbp "RBP";
        prop_contains `Prbp "PRBP";
        case "a truncated exact solve intersects the bracket"
          test_truncated_exact_intersects;
      ] );
  ]
