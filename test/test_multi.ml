(* Multiprocessor pebbling (Section 8.1 outlook): the RBP-MC and PRBP-MC
   checkers, and the literal rules of Prbp.Verifier they replay
   through. *)
open Test_util
module Dag = Prbp.Dag
module Multi = Prbp.Multi
module MM = Prbp.Multi.Move
module V = Prbp.Verifier
module R = Prbp.Move.R
module P = Prbp.Move.P
module IS = Set.Make (Int)
module Json = Prbp.Obs.Json

let cfg p r = Multi.config ~p ~r ()

let test_p1_specializes_rbp () =
  (* with one processor the game is exactly the Section-1 RBP *)
  let g, ids = Prbp.Graphs.Fig1.full () in
  let moves = Prbp.Strategies.fig1_rbp ids in
  match Multi.R.check (cfg 1 4) g (Multi.lift_rbp moves) with
  | Ok c -> check_int "same cost" 3 c
  | Error e -> Alcotest.fail e

let test_p1_specializes_prbp () =
  let g, ids = Prbp.Graphs.Fig1.full () in
  let moves = Prbp.Strategies.fig1_prbp ids in
  match Multi.P.check (cfg 1 4) g (Multi.lift_prbp moves) with
  | Ok c -> check_int "same cost" 2 c
  | Error e -> Alcotest.fail e

let test_p1_specialization_on_pool () =
  List.iter
    (fun g ->
      let r = max 2 (Dag.max_in_degree g + 1) in
      let single = Prbp.Heuristic.rbp ~r g in
      let expected = rbp_cost ~r g single in
      (match Multi.R.check (cfg 1 r) g (Multi.lift_rbp single) with
      | Ok c -> check_int "rbp cost equal" expected c
      | Error e -> Alcotest.fail e);
      let psingle = Prbp.Heuristic.prbp ~r:2 g in
      let pexpected = prbp_cost ~r:2 g psingle in
      match Multi.P.check (cfg 1 2) g (Multi.lift_prbp psingle) with
      | Ok c -> check_int "prbp cost equal" pexpected c
      | Error e -> Alcotest.fail e)
    (Lazy.force random_dags)

(* Step-by-step games through the literal rules: [play q m] plays [m] on
   processor [q] and advances [st] when the move is legal. *)
let player step st q m =
  match step !st ~q m with
  | Ok st' ->
      st := st';
      Ok ()
  | Error e -> Error e

(* Processor [q]'s pebbles in a red set: the keys q·n + v. *)
let on_proc g q s = IS.cardinal (IS.filter (fun k -> k / Dag.n_nodes g = q) s)

let prbp_reds g q (st : V.P.state) =
  on_proc g q st.V.P.light + on_proc g q st.V.P.dark

let test_capacity_per_processor () =
  let g = Prbp.Graphs.Basic.fan_in 3 in
  let st = ref (V.R.initial g) in
  let play = player (fun st ~q m -> V.R.step ~r:2 ~p:2 ~q g st m) st in
  check_ok "p0 load" (play 0 (R.Load 0));
  check_ok "p0 load" (play 0 (R.Load 1));
  check_err "p0 full" (play 0 (R.Load 2));
  (* the other processor's memory is separate *)
  check_ok "p1 load" (play 1 (R.Load 2));
  check_int "p0 count" 2 (on_proc g 0 !st.V.R.red);
  check_int "p1 count" 1 (on_proc g 1 !st.V.R.red)

let test_compute_locality () =
  (* inputs must be red on the SAME processor *)
  let g = Prbp.Graphs.Basic.fan_in 2 in
  let st = ref (V.R.initial g) in
  let play = player (fun st ~q m -> V.R.step ~r:3 ~p:2 ~q g st m) st in
  check_ok "p0 load u0" (play 0 (R.Load 0));
  check_ok "p1 load u1" (play 1 (R.Load 1));
  check_err "split inputs" (play 0 (R.Compute 2));
  check_ok "p0 load u1 too" (play 0 (R.Load 1));
  check_ok "now computes" (play 0 (R.Compute 2))

let test_dark_exclusivity () =
  (* a partial value lives on one processor; the other must wait for a
     save/load handoff *)
  let g = Prbp.Graphs.Basic.fan_in 2 in
  let st = ref (V.P.initial g) in
  let play = player (fun st ~q m -> V.P.step ~r:2 ~p:2 ~q g st m) st in
  check_ok "p0 load u0" (play 0 (P.Load 0));
  check_ok "p0 partial" (play 0 (P.Compute (0, 2)));
  check_ok "p1 load u1" (play 1 (P.Load 1));
  check_err "p1 cannot touch p0's dark value" (play 1 (P.Compute (1, 2)));
  check_ok "p0 saves" (play 0 (P.Save 2));
  check_ok "p0 drops copy" (play 0 (P.Delete 2));
  check_ok "p1 loads partial" (play 1 (P.Load 2));
  check_ok "p1 finishes" (play 1 (P.Compute (1, 2)));
  check_ok "p1 saves sink" (play 1 (P.Save 2));
  check_true "terminal" (V.P.is_terminal g !st);
  check_int "cost" 5 !st.V.P.io

let test_stale_copies_invalidated () =
  (* updating a value destroys other processors' light copies *)
  let g = Prbp.Dag.make ~n:4 [ (0, 2); (1, 2); (2, 3) ] in
  let st = ref (V.P.initial g) in
  let play = player (fun st ~q m -> V.P.step ~r:3 ~p:2 ~q g st m) st in
  check_ok "p0 load u0" (play 0 (P.Load 0));
  check_ok "p0 partial into 2" (play 0 (P.Compute (0, 2)));
  check_ok "p0 save" (play 0 (P.Save 2));
  check_ok "p1 loads the partial" (play 1 (P.Load 2));
  check_int "p1 holds a copy" 1 (prbp_reds g 1 !st);
  (* p1 aggregates the second input: p0's light copy must die *)
  check_ok "p1 load u1" (play 1 (P.Load 1));
  check_ok "p1 continues" (play 1 (P.Compute (1, 2)));
  check_int "p0 copy invalidated" 1 (prbp_reds g 0 !st)
  (* p0 still holds u0's light red only *)

let test_matvec_multi () =
  List.iter
    (fun (m, p) ->
      let mv = Prbp.Graphs.Matvec.make ~m in
      let g = mv.Prbp.Graphs.Matvec.dag in
      let r = ((m + p - 1) / p) + 3 in
      match Multi.P.check (cfg p r) g (Prbp.Strategies.matvec_prbp_multi ~p mv) with
      | Ok c -> check_int "formula" ((m * m) + ((p + 1) * m)) c
      | Error e -> Alcotest.fail e)
    [ (4, 1); (4, 2); (6, 2); (6, 3); (8, 4) ]

let test_matvec_multi_p1_matches_single () =
  let m = 5 in
  let mv = Prbp.Graphs.Matvec.make ~m in
  let g = mv.Prbp.Graphs.Matvec.dag in
  match Multi.P.check (cfg 1 (m + 3)) g (Prbp.Strategies.matvec_prbp_multi ~p:1 mv) with
  | Ok c -> check_int "same as Prop 4.3" (Prbp.Graphs.Matvec.prbp_opt ~m) c
  | Error e -> Alcotest.fail e

let test_fan_in_handoff () =
  List.iter
    (fun (d, halves) ->
      let g = Prbp.Graphs.Basic.fan_in d in
      match Multi.P.check (cfg halves 2) g (Prbp.Strategies.fan_in_handoff ~halves g) with
      | Ok c -> check_int "handoff cost" (d + 1 + (2 * (halves - 1))) c
      | Error e -> Alcotest.fail e)
    [ (6, 1); (6, 2); (6, 3); (9, 3); (8, 4) ]

let test_bad_processor_rejected () =
  let g = Prbp.Graphs.Basic.diamond () in
  check_err "out of range"
    (V.R.step ~r:3 ~p:2 ~q:2 g (V.R.initial g) (R.Load 0));
  check_err "out of range"
    (V.P.step ~r:3 ~p:2 ~q:(-1) g (V.P.initial g) (P.Load 0))

(* --- pinned verdicts ------------------------------------------------
   test/golden/multi_checker_v1.jsonl holds 326 RBP-MC and PRBP-MC move
   sequences, moves in wire form, on DAGs of at most 10 nodes and for
   p = 1..4: exact strategies, lifted Belady strategies, the same
   spread over random processors, random legal walks, and one mutant of
   each kind (drop, duplicate, swap, retarget a node or edge, retarget
   the processor, an out-of-range node or processor, truncate); then
   walk prefixes with one more move drawn from every processor's moves,
   and partial values handed to another processor with and without
   the save and load a handoff needs.  The verdicts were written by the
   mutable bitset engines that held the multiprocessor rules before the
   checkers ran on Verifier's: the cost, the first rejected move or
   "incomplete", then the I/O paid and each processor's occupancy after
   the last accepted move. *)

let json_fail what = Alcotest.failf "multi_checker_v1.jsonl: bad %s" what

let member k j = match Json.member k j with Some v -> v | None -> json_fail k

let int_of k j = match Json.to_int j with Some i -> i | None -> json_fail k

let list_of k j = match Json.to_list j with Some l -> l | None -> json_fail k

let dag_of j =
  let edge e =
    match list_of "edge" e with
    | [ u; v ] -> (int_of "edge" u, int_of "edge" v)
    | _ -> json_fail "edge"
  in
  Dag.make ~n:(int_of "nodes" (member "nodes" j))
    (List.map edge (list_of "edges" (member "edges" j)))

(* A wire move [{"op","q","u"?,"v"}] as (processor, op, u, v). *)
let flat j =
  let op = match Json.to_str (member "op" j) with Some s -> s | None -> json_fail "op" in
  let u = Option.map (int_of "u") (Json.member "u" j) in
  (int_of "q" (member "q" j), op, u, int_of "v" (member "v" j))

let rbp_move (q, op, _, v) : MM.rbp * (int * R.t) =
  match op with
  | "load" -> (Load (q, v), (q, R.Load v))
  | "save" -> (Save (q, v), (q, R.Save v))
  | "compute" -> (Compute (q, v), (q, R.Compute v))
  | "delete" -> (Delete (q, v), (q, R.Delete v))
  | _ -> json_fail "op"

let prbp_move (q, op, u, v) : MM.prbp * (int * P.t) =
  match (op, u) with
  | "load", _ -> (Load (q, v), (q, P.Load v))
  | "save", _ -> (Save (q, v), (q, P.Save v))
  | "compute", Some u -> (Compute (q, (u, v)), (q, P.Compute (u, v)))
  | "delete", _ -> (Delete (q, v), (q, P.Delete v))
  | _ -> json_fail "op"

(* The verdict of the literal rules, step by step up to the first
   rejection, with the I/O paid and the per-processor occupancy of the
   last accepted state. *)
let literal_verdict ~step ~initial ~is_terminal ~io ~reds ~p g moves =
  let rec go i st = function
    | [] ->
        ((if is_terminal g st then Printf.sprintf "cost %d" (io st) else "incomplete"), st)
    | (q, m) :: rest -> (
        match step ~q g st m with
        | Ok st -> go (i + 1) st rest
        | Error _ -> (Printf.sprintf "reject %d" i, st))
  in
  let verdict, st = go 0 (initial g) moves in
  (verdict, io st, List.init p (fun q -> reds g q st))

(* The same verdict read off Multi's checker. *)
let checker_verdict = function
  | Ok c -> Printf.sprintf "cost %d" c
  | Error e -> (
      match Scanf.sscanf_opt e "move #%d " Fun.id with
      | Some i -> Printf.sprintf "reject %d" i
      | None -> "incomplete")

let fresh_line line =
  let j = match Json.of_string line with Ok j -> j | Error e -> json_fail e in
  let g = dag_of (member "dag" j) in
  let r = int_of "r" (member "r" j) in
  let game =
    match Json.to_str (member "game" j) with
    | Some s -> Prbp.Wire.game_of_label s
    | None -> json_fail "game"
  in
  let moves = List.map flat (list_of "moves" (member "moves" j)) in
  let verdict, io, reds =
    match game with
    | Ok (Prbp.Wire.Multi_rbp p) ->
        let multi, single = List.split (List.map rbp_move moves) in
        let ((verdict, _, _) as v) =
          literal_verdict ~p g single
            ~step:(fun ~q g st m -> V.R.step ~r ~p ~q g st m)
            ~initial:V.R.initial ~is_terminal:V.R.is_terminal
            ~io:(fun st -> st.V.R.io)
            ~reds:(fun g q st -> on_proc g q st.V.R.red)
        in
        Alcotest.(check string) "Multi.R.check" verdict
          (checker_verdict (Multi.R.check (cfg p r) g multi));
        v
    | Ok (Prbp.Wire.Multi_prbp p) ->
        let multi, single = List.split (List.map prbp_move moves) in
        let ((verdict, _, _) as v) =
          literal_verdict ~p g single
            ~step:(fun ~q g st m -> V.P.step ~r ~p ~q g st m)
            ~initial:V.P.initial ~is_terminal:V.P.is_terminal
            ~io:(fun st -> st.V.P.io)
            ~reds:prbp_reds
        in
        Alcotest.(check string) "Multi.P.check" verdict
          (checker_verdict (Multi.P.check (cfg p r) g multi));
        v
    | _ -> json_fail "game"
  in
  let input =
    match j with
    | Json.Obj fields ->
        List.filter (fun (k, _) -> not (List.mem k [ "verdict"; "io"; "red" ])) fields
    | _ -> json_fail "record"
  in
  Json.to_string
    (Json.Obj
       (input
       @ [
           ("verdict", Json.String verdict);
           ("io", Json.Int io);
           ("red", Json.List (List.map (fun c -> Json.Int c) reds));
         ]))

let test_pinned_verdicts () =
  check_golden "multi_checker_v1.jsonl"
    (List.map fresh_line (golden_lines "multi_checker_v1.jsonl"))

let suite =
  [
    ( "multi",
      [
        case "p=1 specializes to RBP" test_p1_specializes_rbp;
        case "p=1 specializes to PRBP" test_p1_specializes_prbp;
        case "p=1 specialization on the pool" test_p1_specialization_on_pool;
        case "per-processor capacity" test_capacity_per_processor;
        case "compute locality" test_compute_locality;
        case "dark pebbles are exclusive" test_dark_exclusivity;
        case "stale copies invalidated" test_stale_copies_invalidated;
        case "parallel matvec formula" test_matvec_multi;
        case "p=1 matvec = Prop 4.3" test_matvec_multi_p1_matches_single;
        case "fan-in handoff cost" test_fan_in_handoff;
        case "processor ids validated" test_bad_processor_rejected;
        case "checkers keep the pinned verdicts of the bitset engines"
          test_pinned_verdicts;
      ] );
  ]
