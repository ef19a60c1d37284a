module Dag = Prbp_dag.Dag
module Solver = Prbp_solver.Solver
module Exact_multi = Prbp_solver.Exact_multi
module Multi = Prbp_pebble.Multi
module Multi_bounds = Prbp_bounds.Multi_bounds
module Lower = Prbp_bounds.Lower
module Clock = Prbp_obs.Clock

type game = Rbp_mc | Prbp_mc

let game_label game ~p =
  match game with
  | Rbp_mc -> Printf.sprintf "multi-rbp:%d" p
  | Prbp_mc -> Printf.sprintf "multi-prbp:%d" p

let cm_game = function Rbp_mc -> `Rbp | Prbp_mc -> `Prbp

type point = {
  p : int;
  r : int;
  comm_lower : int;
  comm_upper : int option;
  time_lower : int;
  time_upper : int option;
  status : [ `Exact | `Bracketed ];
  source : string;
  verified : bool;
  settled : bool;
  dominated : bool;
  witness : Multi_bounds.moves option;
  curve : Solver.Convergence.curve;
}

type t = {
  game : game;
  p : int;
  model : string;
  points : point list;
  infeasible_rs : int list;
  exhausted : bool;
  elapsed_s : float;
}

let front t = List.filter (fun pt -> not pt.dominated) t.points
let open_points t = List.filter (fun pt -> not pt.settled) t.points

(* One probe of the communication ε-constraint at a fixed capacity. *)
type interval = {
  i_lower : int;
  i_upper : int option;
  i_status : [ `Exact | `Bracketed ];
  i_source : string;
  i_witness : Multi_bounds.moves option;
  i_curve : Solver.Convergence.curve;
      (* how the probe's communication interval tightened, probe-relative
         seconds *)
}

type probe = Infeasible | Interval of interval

(* Exact_multi's hard limits; past them frontier points come from the
   pooled-capacity brackets instead. *)
let exact_reach game ~p g =
  p <= 8 && Dag.n_nodes g <= 62 && (game = Rbp_mc || Dag.n_edges g <= 62)

let exact_probe ~budget ?jobs game ~p ~r g =
  let cfg = Multi.config ~p ~r () in
  let conv, sink = Solver.Convergence.recorder () in
  (* one reading of either game's outcome; [wrap] tags its moves *)
  let interval wrap = function
    | Solver.Optimal { cost; strategy; _ } ->
        Interval
          {
            i_lower = cost;
            i_upper = Some cost;
            i_status = `Exact;
            i_source = "exact";
            i_witness = Option.map wrap strategy;
            i_curve = Solver.Convergence.curve conv;
          }
    | Solver.Bounded { lower; upper; incumbent_strategy; _ } ->
        Interval
          {
            i_lower = lower;
            i_upper = upper;
            i_status = `Bracketed;
            i_source = "exact-truncated";
            i_witness = Option.map wrap incumbent_strategy;
            i_curve = Solver.Convergence.curve conv;
          }
    | Solver.Unsolvable _ -> Infeasible
  in
  match game with
  | Rbp_mc ->
      interval
        (fun mv -> Multi_bounds.Rbp_mc_moves mv)
        (Exact_multi.rbp_solve ~budget ~telemetry:sink ?jobs
           ~want_strategy:true cfg g)
  | Prbp_mc ->
      interval
        (fun mv -> Multi_bounds.Prbp_mc_moves mv)
        (Exact_multi.prbp_solve ~budget ~telemetry:sink ?jobs
           ~want_strategy:true cfg g)

let bracket_probe ~budget ?rules game ~p ~r g =
  let t0 = Clock.now () in
  let res =
    match game with
    | Rbp_mc -> Multi_bounds.rbp ~budget ?rules ~p ~r g
    | Prbp_mc -> Multi_bounds.prbp ~budget ?rules ~p ~r g
  in
  match res with
  | Error _ -> Infeasible
  | Ok b ->
      let lower = b.Multi_bounds.lower.Lower.bound in
      let upper = Some b.Multi_bounds.upper in
      Interval
        {
          i_lower = lower;
          i_upper = upper;
          i_status = `Bracketed;
          i_source = b.Multi_bounds.lower.Lower.rule;
          i_witness = Some b.Multi_bounds.moves;
          (* the pooled-capacity bracket reports once, at the end *)
          i_curve =
            [ { Solver.Convergence.t_s = Clock.elapsed_s t0; lower; upper } ];
        }

let eval_witness cfg g = function
  | Multi_bounds.Rbp_mc_moves mv -> Cost_model.eval_rbp cfg g mv
  | Multi_bounds.Prbp_mc_moves mv -> Cost_model.eval_prbp cfg g mv

(* Every certificate is re-checked here, independently of the engine
   or portfolio that produced it: one replay through the literal rules
   ([Cost_model.eval_*]) certifies the witness's cost, which must be
   exactly the claimed upper cost, and prices its makespan. *)
let point_of_probe game ~p ~r g (iv : interval) =
  let cfg = Multi.config ~p ~r () in
  let comm_lower = iv.i_lower in
  let verified, comm_upper, time_upper =
    match Option.map (eval_witness cfg g) iv.i_witness with
    | None | Some (Error _) -> (false, iv.i_upper, None)
    | Some (Ok e) ->
        let c = e.Cost_model.comm in
        let cu = match iv.i_upper with Some u -> u | None -> c in
        (c = cu, Some cu, Some e.Cost_model.makespan)
  in
  let time_lower =
    Cost_model.makespan_lower ~game:(cm_game game) ~p ~comm_lower g
  in
  let settled = match comm_upper with Some u -> u = comm_lower | None -> false in
  {
    p;
    r;
    comm_lower;
    comm_upper;
    time_lower;
    time_upper;
    status = iv.i_status;
    source = iv.i_source;
    verified;
    settled;
    dominated = false;
    witness = iv.i_witness;
    curve = iv.i_curve;
  }

(* a's witness corner certifiably beats everything achievable at b's
   capacity, with strictly less memory *)
let dominates a b =
  a.r < b.r
  &&
  match (a.comm_upper, a.time_upper) with
  | Some cu, Some tu -> cu <= b.comm_lower && tu <= b.time_lower
  | _ -> false

let mark_dominated points =
  List.map
    (fun b -> { b with dominated = List.exists (fun a -> dominates a b) points })
    points

let ms_elapsed t0 = int_of_float (Clock.elapsed_s t0 *. 1000.)

let run_probe ~budget ?rules ?jobs game ~p ~r g =
  if exact_reach game ~p g then exact_probe ~budget ?jobs game ~p ~r g
  else bracket_probe ~budget ?rules game ~p ~r g

let sweep ?(budget = Solver.Budget.default) ?rules ?jobs game ~p ~rs g =
  if p < 1 then invalid_arg "Frontier.sweep: p must be >= 1";
  let rs = List.sort_uniq compare rs in
  if rs = [] then invalid_arg "Frontier.sweep: rs must be non-empty";
  if List.exists (fun r -> r < 1) rs then
    invalid_arg "Frontier.sweep: every r must be >= 1";
  let t0 = Clock.now () in
  let total = List.length rs in
  (* one shared budget: split the remaining wall clock evenly over the
     axes still to run, so an axis that settles early donates its
     slack to the rest *)
  let slice idx =
    match budget.Solver.Budget.max_millis with
    | None -> budget
    | Some ms ->
        let left = ms - ms_elapsed t0 in
        let axes_left = max 1 (total - idx) in
        {
          budget with
          Solver.Budget.max_millis = Some (max 1 (left / axes_left));
        }
  in
  let points = ref [] in
  let infeasible = ref [] in
  List.iteri
    (fun idx r ->
      match run_probe ~budget:(slice idx) ?rules ?jobs game ~p ~r g with
      | Infeasible -> infeasible := r :: !infeasible
      | Interval iv ->
          points := point_of_probe game ~p ~r g iv :: !points)
    rs;
  let points = mark_dominated (List.rev !points) in
  {
    game;
    p;
    model = Cost_model.name;
    points;
    infeasible_rs = List.rev !infeasible;
    exhausted = List.exists (fun pt -> not pt.settled) points;
    elapsed_s = Clock.elapsed_s t0;
  }

type min_r =
  | Min_r of { r : int; comm : int }
  | Min_r_between of int * int
  | Min_r_infeasible

(* OPT_comm(r) is non-increasing in r (extra capacity never hurts), so
   binary search is sound on certified verdicts; an undecided probe
   poisons only the exactness of the final answer, not its safety. *)
let min_r_for_comm ?(budget = Solver.Budget.default) ?rules ?jobs game ~p
    ~comm_cap ?r_max g =
  if p < 1 then invalid_arg "Frontier.min_r_for_comm: p must be >= 1";
  let r_max =
    match r_max with Some r -> max 1 r | None -> max 1 (Dag.n_nodes g)
  in
  let t0 = Clock.now () in
  (* at most ~log2 r_max probes remain at any moment: halving the
     remaining clock per probe keeps the sum under the budget *)
  let slice () =
    match budget.Solver.Budget.max_millis with
    | None -> budget
    | Some ms ->
        let left = max 1 (ms - ms_elapsed t0) in
        { budget with Solver.Budget.max_millis = Some (max 1 (left / 2)) }
  in
  let best = ref None in
  let lo_cert = ref 1 in
  let settled = ref true in
  let lo = ref 1 in
  let hi = ref r_max in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    match run_probe ~budget:(slice ()) ?rules ?jobs game ~p ~r:mid g with
    | Infeasible ->
        lo_cert := max !lo_cert (mid + 1);
        lo := mid + 1
    | Interval iv -> (
        match iv.i_upper with
        | Some u when u <= comm_cap ->
            best := Some (mid, u);
            hi := mid - 1
        | _ ->
            if iv.i_lower > comm_cap then begin
              lo_cert := max !lo_cert (mid + 1);
              lo := mid + 1
            end
            else begin
              (* the interval straddles the cap: undecided *)
              settled := false;
              lo := mid + 1
            end)
  done;
  match !best with
  | Some (r, comm) ->
      if !settled then Min_r { r; comm } else Min_r_between (!lo_cert, r)
  | None -> if !settled then Min_r_infeasible else Min_r_between (!lo_cert, r_max)
