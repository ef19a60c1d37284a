module Dag = Prbp_dag.Dag
module Solver = Prbp_solver.Solver
module Clock = Prbp_obs.Clock
module Span = Prbp_obs.Span
module Metrics = Prbp_obs.Metrics

type moves =
  | Rbp_moves of Prbp_pebble.Move.R.t list
  | Prbp_moves of Prbp_pebble.Move.P.t list

type t = {
  game : Lower.game;
  r : int;
  n : int;
  m : int;
  lower : Lower.t;
  upper : int;
  width : int;
  moves : moves;
  meth : Upper.meth;
  profile : Segment.t option;
  tight : bool;
  elapsed_s : float;
  curve : Solver.Convergence.curve;
}

let scale_budget (b : Solver.Budget.t) frac =
  {
    b with
    Solver.Budget.max_millis =
      Option.map
        (fun ms -> max 1 (int_of_float (float_of_int ms *. frac)))
        b.Solver.Budget.max_millis;
  }

let emit telemetry event =
  match telemetry with
  | Some sink -> sink.Solver.Telemetry.emit event
  | None -> ()

(* Brackets report certified bounds as they are found, not search
   counters, so the counter fields of their progress events are 0. *)
let stage_progress ~elapsed_s ~lower ~upper : Solver.Telemetry.progress =
  {
    expansions = 0;
    explored = 0;
    pruned = 0;
    frontier = 0;
    depth = 0;
    table_load = 0.;
    elapsed_s;
    lower;
    upper;
  }

(* Stage timings, one histogram family labeled by stage; observed once
   per bracket run, far from any hot loop. *)
let stage_hist stage =
  Metrics.histogram ~help:"Wall-clock seconds spent per bracket stage"
    ~labels:[ ("stage", stage) ]
    "prbp_bracket_stage_seconds"

let m_stage_lower = stage_hist "lower"
let m_stage_upper = stage_hist "upper"
let m_stage_profile = stage_hist "profile"

let m_runs =
  Metrics.counter ~help:"Bracket runs completed (any outcome)"
    "prbp_bracket_runs_total"

(* Run [f] as a named bracket stage: a child span when tracing is on,
   and a stage-seconds observation either way (disabled observes are
   one branch). *)
let stage ~name hist f =
  let t0 = Clock.now () in
  let timed () =
    let r = f () in
    Metrics.Histogram.observe hist (Clock.elapsed_s t0);
    r
  in
  if Span.enabled () then Span.with_ ~name timed else timed ()

(* Constructive profile of the DAG at s = 2r: how the greedy
   partitioner decomposes it.  Flow computations make this O(n·poly),
   so skip it on very large DAGs and once the deadline has passed; its
   absence never weakens the bracket (profiles are descriptive, the
   bounds carry the proof). *)
let profile_gate = 4096

let make_profile ~flavor g ~s =
  if Dag.n_nodes g > profile_gate then None
  else match Segment.greedy ~flavor g ~s with Ok seg -> Some seg | Error _ -> None

let ms_left (budget : Solver.Budget.t) t0 =
  Option.map
    (fun ms -> ms - int_of_float (Clock.elapsed_s t0 *. 1000.))
    budget.Solver.Budget.max_millis

let run ?(budget = Solver.Budget.default) ?telemetry ?rules ~game ~r
    ~upper_portfolio ~profile_flavor g =
  let body () =
    let t0 = Clock.now () in
    let deadline = Clock.deadline_of_millis budget.Solver.Budget.max_millis in
    emit telemetry
      (Solver.Telemetry.Start
         { width = Dag.n_nodes g; max_states = budget.Solver.Budget.max_states });
    (* the bracket's convergence curve: one certified (lower, upper)
       sighting per verified improvement, folded monotone *)
    let conv, _ = Solver.Convergence.recorder () in
    let sight ~lower ~upper =
      let elapsed_s = Clock.elapsed_s t0 in
      Solver.Convergence.observe conv ~t_s:elapsed_s ~lower ~upper;
      emit telemetry
        (Solver.Telemetry.Progress (stage_progress ~elapsed_s ~lower ~upper))
    in
    let finish outcome ~lower ~upper result =
      let elapsed_s = Clock.elapsed_s t0 in
      Solver.Convergence.observe conv ~t_s:elapsed_s ~lower ~upper;
      Metrics.Counter.incr m_runs;
      Span.add_attr "outcome" outcome;
      emit telemetry
        (Solver.Telemetry.Stop
           { outcome; progress = stage_progress ~elapsed_s ~lower ~upper });
      Result.map (fun mk -> mk elapsed_s (Solver.Convergence.curve conv)) result
    in
    let lower =
      stage ~name:"bracket.lower" m_stage_lower (fun () ->
          let l =
            Lower.compute ~budget:(scale_budget budget 0.4) ?rules ~game ~r g
          in
          Span.add_attr "rule" l.Lower.rule;
          Span.add_attr "bound" (string_of_int l.Lower.bound);
          l)
    in
    sight ~lower:lower.Lower.bound ~upper:None;
    (* rebalance: a lower phase that short-circuits hands its unused
       allotment to the upper phase (everything left on the clock, not
       a fixed 60%) *)
    let upper_budget =
      match ms_left budget t0 with
      | None -> budget
      | Some left ->
          { budget with Solver.Budget.max_millis = Some (max 1 left) }
    in
    (* each verified improvement is a curve point and a progress
       event the moment its replay passes *)
    let on_improve cost _ = sight ~lower:lower.Lower.bound ~upper:(Some cost) in
    let upper_result =
      stage ~name:"bracket.upper" m_stage_upper (fun () ->
          let u = upper_portfolio ~budget:upper_budget ~on_improve ~r g in
          (match u with
          | Ok (cost, _, meth) ->
              Span.add_attr "method" (Upper.meth_label meth);
              Span.add_attr "cost" (string_of_int cost)
          | Error _ -> ());
          u)
    in
    (* and vice versa: if a lower rule was budget-truncated and the
       upper phase left usable time, spend it tightening the floor *)
    let lower =
      if not lower.Lower.truncated then lower
      else
        match ms_left budget t0 with
        | Some left
          when left
               >= max 50
                    (Option.value ~default:0 budget.Solver.Budget.max_millis
                    / 10) ->
            let l2 =
              stage ~name:"bracket.lower" m_stage_lower (fun () ->
                  Lower.compute
                    ~budget:
                      { budget with Solver.Budget.max_millis = Some left }
                    ?rules ~game ~r g)
            in
            if l2.Lower.bound > lower.Lower.bound then begin
              (match upper_result with
              | Ok (cost, _, _) ->
                  sight ~lower:l2.Lower.bound ~upper:(Some cost)
              | Error _ -> ());
              l2
            end
            else lower
        | _ -> lower
    in
    match upper_result with
    | Error e -> finish "unsolvable" ~lower:max_int ~upper:None (Error e)
    | Ok (upper, moves, meth) ->
        if lower.Lower.bound > upper then
          (* both sides are independently certified, so this cannot
             happen unless a rule is unsound — refuse to report it *)
          finish "unsolvable" ~lower:max_int ~upper:None
            (Error
               (Printf.sprintf
                  "Bracket: certified lower bound %d exceeds verified upper \
                   bound %d — unsound rule?"
                  lower.Lower.bound upper))
        else begin
          let profile =
            if Clock.expired deadline then None
            else
              stage ~name:"bracket.profile" m_stage_profile (fun () ->
                  make_profile ~flavor:profile_flavor g ~s:(2 * r))
          in
          let tight = lower.Lower.bound = upper in
          finish
            (if tight then "optimal" else "bounded")
            ~lower:lower.Lower.bound ~upper:(Some upper)
            (Ok
               (fun elapsed_s curve ->
                 {
                   game;
                   r;
                   n = Dag.n_nodes g;
                   m = Dag.n_edges g;
                   lower;
                   upper;
                   width = upper - lower.Lower.bound;
                   moves;
                   meth;
                   profile;
                   tight;
                   elapsed_s;
                   curve;
                 }))
        end
  in
  if not (Span.enabled ()) then body ()
  else
    Span.with_ ~name:"bracket"
      ~attrs:
        [
          ("game", Lower.game_label game);
          ("r", string_of_int r);
          ("n", string_of_int (Dag.n_nodes g));
        ]
      body

let rbp ?budget ?telemetry ?rules ~r g =
  run ?budget ?telemetry ?rules ~game:Lower.Rbp ~r
    ~upper_portfolio:(fun ~budget ~on_improve ~r g ->
      Result.map
        (fun (u : _ Upper.t) ->
          (u.Upper.cost, Rbp_moves u.Upper.moves, u.Upper.meth))
        (Upper.rbp ~budget ~on_improve ~r g))
    ~profile_flavor:Segment.Spartition g

let prbp ?budget ?telemetry ?rules ~r g =
  run ?budget ?telemetry ?rules ~game:Lower.Prbp ~r
    ~upper_portfolio:(fun ~budget ~on_improve ~r g ->
      Result.map
        (fun (u : _ Upper.t) ->
          (u.Upper.cost, Prbp_moves u.Upper.moves, u.Upper.meth))
        (Upper.prbp ~budget ~on_improve ~r g))
    ~profile_flavor:Segment.Dominator g

let pp ppf t =
  Format.fprintf ppf "%s r=%d: %d <= OPT <= %d (width %d, %s / %s%s, %.2fs)"
    (Lower.game_label t.game) t.r t.lower.Lower.bound t.upper t.width
    t.lower.Lower.rule
    (Upper.meth_label t.meth)
    (if t.tight then ", tight" else "")
    t.elapsed_s
