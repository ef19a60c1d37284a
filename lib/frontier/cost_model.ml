module Dag = Prbp_dag.Dag
module Multi = Prbp_pebble.Multi

let name = "unit"

type eval = { comm : int; makespan : int; per_proc_time : int array }

(* The strategy passed [Multi.R.check] or [Multi.P.check], so its
   processors are in range; [time] gives each move's processor and time
   units. *)
let price ~time cfg moves comm =
  let per = Array.make cfg.Multi.p 0 in
  List.iter
    (fun m ->
      let q, t = time m in
      per.(q) <- per.(q) + t)
    moves;
  { comm; makespan = Array.fold_left max 0 per; per_proc_time = per }

let eval_rbp cfg g moves =
  let time : Multi.Move.rbp -> int * int = function
    | Load (q, _) | Save (q, _) | Compute (q, _) -> (q, 1)
    | Delete (q, _) -> (q, 0)
  in
  Result.map (price ~time cfg moves) (Multi.R.check cfg g moves)

let eval_prbp cfg g moves =
  let time : Multi.Move.prbp -> int * int = function
    | Load (q, _) | Save (q, _) | Compute (q, _) -> (q, 1)
    | Delete (q, _) -> (q, 0)
  in
  Result.map (price ~time cfg moves) (Multi.P.check cfg g moves)

(* Every complete pebbling computes each non-source node (RBP) or each
   edge (PRBP) once, at one time unit each, and performs at least
   [comm_lower] I/O moves; the per-processor maximum is at least the
   total divided by p. *)
let makespan_lower ~game ~p ~comm_lower g =
  let work =
    match game with
    | `Rbp -> Dag.n_nodes g - Dag.n_sources g
    | `Prbp -> Dag.n_edges g
  in
  (work + comm_lower + p - 1) / p
