open Test_util
module Dag = Prbp.Dag
module Rbp = Prbp.Rbp
module R = Prbp.Move.R

let diamond () = Prbp.Graphs.Basic.diamond ()

let cfg r = Rbp.config ~r ()

let test_initial_state () =
  let t = Rbp.start (cfg 3) (diamond ()) in
  check_true "source blue" (Rbp.has_blue t 0);
  check_false "sink not blue" (Rbp.has_blue t 3);
  check_int "no reds" 0 (Rbp.red_count t);
  check_false "not terminal" (Rbp.is_terminal t);
  check_int "no cost" 0 (Rbp.io_cost t)

let test_load_requires_blue () =
  let t = Rbp.start (cfg 3) (diamond ()) in
  check_err "load non-blue" (Rbp.apply t (R.Load 1));
  check_ok "load source" (Rbp.apply t (R.Load 0))

let test_compute_rules () =
  let g = diamond () in
  let t = Rbp.start (cfg 3) g in
  check_err "inputs not red" (Rbp.apply t (R.Compute 1));
  check_err "source not computable" (Rbp.apply t (R.Compute 0));
  check_ok "load" (Rbp.apply t (R.Load 0));
  check_ok "compute 1" (Rbp.apply t (R.Compute 1));
  check_true "computed" (Rbp.is_computed t 1);
  check_err "one-shot" (Rbp.apply t (R.Compute 1))

let test_capacity () =
  let g = Prbp.Graphs.Basic.fan_in 3 in
  let t = Rbp.start (cfg 2) g in
  check_ok "load 0" (Rbp.apply t (R.Load 0));
  check_ok "load 1" (Rbp.apply t (R.Load 1));
  check_err "fast memory full" (Rbp.apply t (R.Load 2));
  check_ok "delete" (Rbp.apply t (R.Delete 0));
  check_ok "now fits" (Rbp.apply t (R.Load 2))

let test_compute_needs_free_pebble () =
  let g = diamond () in
  let t = Rbp.start (cfg 1) g in
  check_ok "load 0" (Rbp.apply t (R.Load 0));
  check_err "no pebble free for result" (Rbp.apply t (R.Compute 1))

let test_save_delete () =
  let g = diamond () in
  let t = Rbp.start (cfg 4) g in
  check_err "save needs red" (Rbp.apply t (R.Save 1));
  check_ok "load" (Rbp.apply t (R.Load 0));
  check_ok "compute" (Rbp.apply t (R.Compute 1));
  check_ok "save" (Rbp.apply t (R.Save 1));
  check_true "blue now" (Rbp.has_blue t 1);
  check_true "still red" (Rbp.has_red t 1);
  check_ok "delete" (Rbp.apply t (R.Delete 1));
  check_false "red gone" (Rbp.has_red t 1);
  check_err "delete again" (Rbp.apply t (R.Delete 1))

let test_full_pebbling_diamond () =
  let g = diamond () in
  let moves =
    R.[ Load 0; Compute 1; Compute 2; Delete 0; Compute 3; Save 3 ]
  in
  check_int "cost 2" 2 (rbp_cost ~r:3 g moves);
  (* with r = 4 no delete needed *)
  let moves4 = R.[ Load 0; Compute 1; Compute 2; Compute 3; Save 3 ] in
  check_int "cost 2 at r=4" 2 (rbp_cost ~r:4 g moves4)

let test_incomplete_rejected () =
  let g = diamond () in
  check_err "no save of sink"
    (Rbp.check (cfg 4) g R.[ Load 0; Compute 1; Compute 2; Compute 3 ])

let test_wasteful_moves_legal () =
  (* the paper's rules allow loading an already-red node or saving an
     already-blue one; both burn cost without changing state *)
  let g = diamond () in
  let t = Rbp.start (cfg 4) g in
  check_ok "load" (Rbp.apply t (R.Load 0));
  check_ok "wasteful load" (Rbp.apply t (R.Load 0));
  check_ok "wasteful save" (Rbp.apply t (R.Save 0));
  check_int "costs accrued" 3 (Rbp.io_cost t);
  check_int "still one red" 1 (Rbp.red_count t)

let test_normalize () =
  let g = diamond () in
  let wasteful =
    R.[ Load 0; Load 0; Save 0; Compute 1; Compute 2; Delete 0; Compute 3; Save 3 ]
  in
  let clean = Rbp.normalize (cfg 4) g wasteful in
  check_int "normalized cost" 2 (rbp_cost ~r:4 g clean);
  check_int "moves dropped" (List.length wasteful - 2) (List.length clean)

(* An illegal move fails [normalize] with its [Failure], whatever the
   move: an out-of-range node id in a load or a save included. *)
let test_normalize_out_of_range () =
  let g = diamond () in
  List.iter
    (fun m ->
      check_true
        (Printf.sprintf "normalize [%s]" (R.to_string m))
        (match Rbp.normalize (cfg 4) g [ m ] with
        | _ -> false
        | exception Failure _ -> true))
    R.[ Load 4; Load (-1); Save 4; Save (-1); Compute 4 ]

let test_max_red_seen () =
  let g = diamond () in
  let t =
    Rbp.run_exn (cfg 4) g R.[ Load 0; Compute 1; Compute 2; Compute 3; Save 3 ]
  in
  check_int "peak" 4 (Rbp.max_red_seen t);
  check_true "terminal" (Rbp.is_terminal t)

let test_error_message_pinpoints_move () =
  let g = diamond () in
  match Rbp.run (cfg 4) g R.[ Load 0; Compute 3 ] with
  | Ok _ -> Alcotest.fail "expected error"
  | Error e ->
      check_true "mentions move index" (String.length e > 0 && e.[0] = 'm')

let test_run_counts () =
  let g = diamond () in
  let t =
    Rbp.run_exn (cfg 4) g R.[ Load 0; Compute 1; Compute 2; Compute 3; Save 3 ]
  in
  check_int "loads" 1 (Rbp.loads t);
  check_int "saves" 1 (Rbp.saves t);
  check_int "computes" 3 (Rbp.computes t);
  check_int "io" 2 (Rbp.io_cost t)

let test_compute_cost_accounting () =
  let g = diamond () in
  let cfg = Rbp.config ~r:4 ~compute_cost:0.5 () in
  let t =
    Rbp.run_exn cfg g R.[ Load 0; Compute 1; Compute 2; Compute 3; Save 3 ]
  in
  Alcotest.(check (float 1e-9)) "total" 3.5 (Rbp.total_cost t)

let test_trivial_cost_is_lower_bound () =
  (* every complete pebbling pays at least trivial cost (here checked
     on the optimal solver result across a family) *)
  List.iter
    (fun g ->
      let r = Dag.max_in_degree g + 1 in
      let c = Test_util.opt_rbp (cfg (max r 2)) g in
      check_true "c >= trivial" (c >= Dag.trivial_cost g))
    [ diamond (); Prbp.Graphs.Basic.path 4; Prbp.Graphs.Basic.pyramid 2 ]

let suite =
  [
    ( "rbp",
      [
        case "initial state" test_initial_state;
        case "load requires blue" test_load_requires_blue;
        case "compute rules + one-shot" test_compute_rules;
        case "capacity limit" test_capacity;
        case "compute needs a free pebble" test_compute_needs_free_pebble;
        case "save/delete" test_save_delete;
        case "full pebbling of diamond" test_full_pebbling_diamond;
        case "incomplete pebbling rejected" test_incomplete_rejected;
        case "wasteful moves stay legal" test_wasteful_moves_legal;
        case "normalize drops waste" test_normalize;
        case "normalize fails on out-of-range nodes" test_normalize_out_of_range;
        case "red high-water mark" test_max_red_seen;
        case "errors pinpoint the move" test_error_message_pinpoints_move;
        case "operation counters" test_run_counts;
        case "compute-cost accounting (B.3)" test_compute_cost_accounting;
        case "trivial cost lower-bounds optimum" test_trivial_cost_is_lower_bound;
      ] );
  ]
