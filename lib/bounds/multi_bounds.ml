module Dag = Prbp_dag.Dag
module Solver = Prbp_solver.Solver
module Multi = Prbp_pebble.Multi
module Clock = Prbp_obs.Clock

type moves =
  | Rbp_mc_moves of Multi.Move.rbp list
  | Prbp_mc_moves of Multi.Move.prbp list

type t = {
  game : Lower.game;
  p : int;
  r : int;
  n : int;
  m : int;
  lower : Lower.t;
  upper : int;
  width : int;
  moves : moves;
  meth : Upper.meth;
  tight : bool;
  elapsed_s : float;
}

let pool_label s = if s = "none" then s else "pooled:" ^ s

(* OPT_1(p·r) ≤ OPT_p(r): merging the per-processor red sets turns any
   p-processor strategy into a 1-processor strategy at capacity p·r
   with no more I/O (see the .mli), so every single-processor lower
   bound at the pooled capacity is sound for the p-processor game. *)
let lower ?budget ?rules ~game ~p ~r g =
  if p < 1 then invalid_arg "Multi_bounds.lower: p must be >= 1";
  let l = Lower.compute ?budget ?rules ~game ~r:(p * r) g in
  {
    l with
    Lower.r;
    rule = pool_label l.Lower.rule;
    evaluated =
      List.map (fun (lbl, b) -> (pool_label lbl, b)) l.Lower.evaluated;
  }

(* OPT_p(r) ≤ OPT_1(r): the single-processor winner played on
   processor 0.  The lifted move list is re-verified through the
   multiprocessor checker at exactly the single-processor cost —
   a lift the checker rejects (or re-prices) is a bug, not a bound,
   so it is refused rather than repaired. *)
let run ?(budget = Solver.Budget.default) ?rules ~game ~p ~r ~upper_fn
    ~lift ~check ~wrap g =
  if p < 1 then invalid_arg "Multi_bounds: p must be >= 1";
  let t0 = Clock.now () in
  let lo = lower ~budget:(Bracket.scale_budget budget 0.4) ?rules ~game ~p ~r g in
  let upper_budget =
    match Bracket.ms_left budget t0 with
    | None -> budget
    | Some ms -> { budget with Solver.Budget.max_millis = Some (max 1 ms) }
  in
  match upper_fn ~budget:upper_budget ~r g with
  | Error e -> Error e
  | Ok (cost, single_moves, meth) -> (
      match lift single_moves with
      | exception Invalid_argument e -> Error ("lift failed: " ^ e)
      | lifted -> (
          let cfg = Multi.config ~p ~r () in
          match check cfg g lifted with
          | Error e -> Error ("multi checker rejected lifted strategy: " ^ e)
          | Ok c when c <> cost ->
              Error
                (Printf.sprintf
                   "lifted strategy re-priced: single-proc %d, multi %d" cost c)
          | Ok _ ->
              if lo.Lower.bound > cost then
                Error
                  (Printf.sprintf
                     "inconsistent bracket: lower %d > upper %d (%s)"
                     lo.Lower.bound cost lo.Lower.rule)
              else
                Ok
                  {
                    game;
                    p;
                    r;
                    n = Dag.n_nodes g;
                    m = Dag.n_edges g;
                    lower = lo;
                    upper = cost;
                    width = cost - lo.Lower.bound;
                    moves = wrap lifted;
                    meth;
                    tight = lo.Lower.bound = cost;
                    elapsed_s = Clock.elapsed_s t0;
                  }))

let rbp ?budget ?rules ~p ~r g =
  run ?budget ?rules ~game:Lower.Rbp ~p ~r
    ~upper_fn:(fun ~budget ~r g ->
      Result.map
        (fun (u : _ Upper.t) -> (u.Upper.cost, u.Upper.moves, u.Upper.meth))
        (Upper.rbp ~budget ~r g))
    ~lift:Multi.lift_rbp ~check:Multi.R.check
    ~wrap:(fun mv -> Rbp_mc_moves mv)
    g

let prbp ?budget ?rules ~p ~r g =
  run ?budget ?rules ~game:Lower.Prbp ~p ~r
    ~upper_fn:(fun ~budget ~r g ->
      Result.map
        (fun (u : _ Upper.t) -> (u.Upper.cost, u.Upper.moves, u.Upper.meth))
        (Upper.prbp ~budget ~r g))
    ~lift:Multi.lift_prbp ~check:Multi.P.check
    ~wrap:(fun mv -> Prbp_mc_moves mv)
    g

let pp ppf t =
  Format.fprintf ppf "%s-mc p=%d r=%d: [%d, %d] width %d (%s / %s)%s"
    (Lower.game_label t.game) t.p t.r t.lower.Lower.bound t.upper t.width
    t.lower.Lower.rule (Upper.meth_label t.meth)
    (if t.tight then " tight" else "")
