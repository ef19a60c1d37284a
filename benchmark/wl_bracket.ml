(* Workload [bracket]: certified brackets and a pooled-capacity
   frontier at scales where the exact engine does no search.

   Time goes to the lower-bound rules, the upper-bound portfolio
   (Belady/LRU/FIFO, banded orders, hill climbing, the optimize pass),
   checker replay of every candidate, the Segment profile and the
   frontier's pooled brackets.  The cases run with no wall-clock
   deadline, so the portfolio runs every candidate (all 24 hill-climb
   orders and the optimize pass) and a case does the same work on every
   pass.  Under a deadline its latency would be the deadline plus
   whatever candidate happened to be in flight, and whether the optimize
   pass started at all would turn on a few milliseconds.  Every case
   takes at most ~0.2 s on a 2-core x86-64 VM, for the reason the exact
   workload's solves are short: on a shared host the fastest of a run's
   runs of one case repeats from run to run only when the case is short
   enough to fit between other tenants' bursts.  Each target width is
   the width the case certifies today.  The cases are structured
   families with no randomness, so the seed does not change them. *)

module B = Prbp.Bounds.Bracket
module F = Prbp.Frontier.Frontier

type case =
  | Bracket of {
      name : string;
      game : [ `Rbp | `Prbp ];
      dag : Prbp.Dag.t;
      r : int;
      target : int;
    }
  | Frontier of {
      name : string;
      game : F.game;
      dag : Prbp.Dag.t;
      p : int;
      rs : int list;
      target : int;
    }

let name = function Bracket c -> c.name | Frontier c -> c.name

let fft m = (Prbp.Graphs.Fft.make ~m).Prbp.Graphs.Fft.dag

let qkt m d = (Prbp.Graphs.Attention.qkt ~m ~d).Prbp.Graphs.Matmul.dag

let pinned ~quick =
  if quick then
    [
      Bracket { name = "fft:16 rbp r=4"; game = `Rbp; dag = fft 16; r = 4; target = 80 };
      Bracket { name = "fft:16 prbp r=4"; game = `Prbp; dag = fft 16; r = 4; target = 80 };
      Frontier
        {
          name = "fig1 multi-rbp:2 rs=3,4";
          game = F.Rbp_mc;
          dag = fst (Prbp.Graphs.Fig1.full ());
          p = 2;
          rs = [ 3; 4 ];
          target = 0;
        };
    ]
  else
    [
      Bracket { name = "fft:32 rbp r=6"; game = `Rbp; dag = fft 32; r = 6; target = 122 };
      Bracket { name = "fft:32 rbp r=4"; game = `Rbp; dag = fft 32; r = 4; target = 222 };
      Bracket { name = "fft:16 prbp r=6"; game = `Prbp; dag = fft 16; r = 6; target = 30 };
      Bracket { name = "fft:16 prbp r=4"; game = `Prbp; dag = fft 16; r = 4; target = 80 };
      Bracket
        {
          name = "attention-qkt:4:4 prbp r=4";
          game = `Prbp;
          dag = qkt 4 4;
          r = 4;
          target = 160;
        };
      Frontier
        {
          name = "fft:32 multi-rbp:4 rs=4,8";
          game = F.Rbp_mc;
          dag = fft 32;
          p = 4;
          rs = [ 4; 8 ];
          target = 326;
        };
    ]

(* No wall-clock deadline; the state cap only bounds the quick
   frontier's exact solves, which settle far below it. *)
let budget = Prbp.Solver.Budget.default

(* The deadline [bracket.deadline_overrun_s] is measured against, in
   the traced run only. *)
let deadline_ms = 100

(* ------------------------------------------------------------------ *)

type outcome =
  | Bracketed of (B.t, string) result
  | Swept of F.t

let run_case ?(budget = budget) = function
  | Bracket { game = `Rbp; dag; r; _ } -> Bracketed (B.rbp ~budget ~r dag)
  | Bracket { game = `Prbp; dag; r; _ } -> Bracketed (B.prbp ~budget ~r dag)
  | Frontier { game; dag; p; rs; _ } -> Swept (F.sweep ~budget game ~p ~rs dag)

let front_width (f : F.t) =
  Util.isum
    (List.map
       (fun (pt : F.point) ->
         match pt.F.comm_upper with Some u -> u - pt.F.comm_lower | None -> 0)
       f.F.points)

(* Correctness oracle, outside the timed window: the width meets the
   pinned target, and every certificate replays at exactly its claimed
   cost. *)
let certified case outcome =
  match (case, outcome) with
  | Bracket { dag; r; target; _ }, Bracketed (Ok b) ->
      let replayed =
        match b.B.moves with
        | B.Rbp_moves ms -> Replay.rbp ~r dag ms
        | B.Prbp_moves ms -> Replay.prbp ~r dag ms
      in
      b.B.width <= target && Replay.costs_exactly ~cost:b.B.upper replayed
  | Frontier { dag; target; _ }, Swept f ->
      front_width f <= target
      && List.for_all
           (fun (pt : F.point) ->
             match (pt.F.witness, pt.F.comm_upper) with
             | Some (Prbp.Bounds.Multi_bounds.Rbp_mc_moves ms), Some cost ->
                 Replay.costs_exactly ~cost
                   (Replay.multi_rbp ~p:pt.F.p ~r:pt.F.r dag ms)
             | Some (Prbp.Bounds.Multi_bounds.Prbp_mc_moves ms), Some cost ->
                 Replay.costs_exactly ~cost
                   (Replay.multi_prbp ~p:pt.F.p ~r:pt.F.r dag ms)
             | _ -> false)
           f.F.points
  | _ -> false

let target = function Bracket c -> c.target | Frontier c -> c.target

(* A case that misses its target counts its whole latency as its time
   to width. *)
let op ~input case (outcome, dt) =
  let ok = certified case outcome in
  if not ok then Util.log "bracket: %s failed its oracle" (name case);
  let width, ttw =
    match outcome with
    | Bracketed (Ok b) ->
        ( b.B.width,
          Option.value ~default:dt
            (Prbp.Solver.Convergence.time_to_width b.B.curve (target case)) )
    | Bracketed (Error _) -> (max_int / 4, dt)
    | Swept f -> (front_width f, f.F.elapsed_s)
  in
  let ttw = if ok then ttw else dt in
  { Workload.input; lat = dt; ttw; width; target = target case; ok; good = ok }

let settings_json ~quick =
  let module J = Util.Json in
  [
    ( "cases",
      J.List
        (List.map
           (fun c -> J.Obj [ ("case", J.String (name c)); ("target_width", J.Int (target c)) ])
           (pinned ~quick)) );
    ("budget_ms", J.String "none");
    ("max_states", J.Int budget.Prbp.Solver.Budget.max_states);
  ]

let run (st : Workload.settings) =
  let quick = st.quick in
  let passes, setup_times, rss_mb =
    Workload.passes_with_setup ~seconds:st.seconds
      ~setup:(fun () -> pinned ~quick)
      (List.map (fun c -> (c, Workload.timed_op (fun () -> run_case c))))
  in
  List.iteri
    (fun k c ->
      let dts = List.map (fun pass -> snd (snd (List.nth pass k))) passes in
      Util.log "bracket: %-32s fastest %.4f s, median %.4f s" (name c)
        (List.fold_left min infinity dts) (Util.median dts))
    (pinned ~quick);
  let slices =
    List.map
      (fun results -> Workload.of_pass (List.mapi (fun input (c, r) -> op ~input c r) results))
      passes
  in
  Workload.result ~per_input:true ~setup_times
    ~rss_mb
    ~settings_json:(settings_json ~quick) slices

(* ------------------------------------------------------------------ *)
(* Traced run: one pass with spans and metrics on (against an untraced
   and a metrics-only pass), then each layer of the bracket called on
   its own: every upper-bound candidate, the whole portfolio, the
   optimize pass, every lower-bound rule and the Segment profile. *)

let bracket_cases cases =
  List.filter_map
    (function Bracket c -> Some (c.game, c.dag, c.r) | Frontier _ -> None)
    cases

(* Candidate [c] of the upper-bound portfolio on one case: the moves,
   or [None] where the candidate does not apply to the game. *)
let candidate c (game, g, r) =
  let module H = Prbp.Heuristic in
  let policy = match c with "lru" -> H.Lru | "fifo" -> H.Fifo | _ -> H.Belady in
  let order =
    Option.map
      (fun h -> Prbp.Bounds.Upper.banded_order g ~h)
      (match c with
      | "banded1" -> Some 1
      | "banded2" -> Some 2
      | "banded3" -> Some 3
      | _ -> None)
  in
  match game with
  | `Rbp when c = "belady-defer" -> None
  | `Rbp -> Some (`R (H.rbp ~policy ?order ~r g))
  | `Prbp ->
      Some (`P (H.prbp ~policy ?order ~defer_saves:(c = "belady-defer") ~r g))

let trace (st : Workload.settings) =
  let quick = st.quick in
  let cases = pinned ~quick in
  let module M = Prbp.Obs.Metrics in
  let module Sp = Prbp.Obs.Span in
  let pass ~traced =
    List.map
      (fun c ->
        let span = if traced then Some ("bench.bracket.case", [ ("case", name c) ]) else None in
        (c, Workload.timed_op ?span (fun () -> run_case c)))
      cases
  in
  let wall results = Util.sum (List.map (fun (_, (_, dt)) -> dt) results) in
  let plain = pass ~traced:false in
  M.set_enabled true;
  let metered = pass ~traced:false in
  Sp.set_enabled true;
  let gc0 = Gc.quick_stat () in
  let traced = pass ~traced:true in
  let gc1 = Gc.quick_stat () in
  let ops = List.mapi (fun input (c, r) -> op ~input c r) traced in
  (* every bracket case once more, under a wall-clock deadline: how far
     past it the bracket returns *)
  let overrun =
    let budget = Prbp.Solver.Budget.v ~max_millis:deadline_ms () in
    List.fold_left
      (fun acc c ->
        let span = ("bench.bracket.deadline", [ ("case", name c) ]) in
        match fst (Workload.timed_op ~span (fun () -> run_case ~budget c)) with
        | Bracketed (Ok b) ->
            max acc (b.B.elapsed_s -. (float_of_int deadline_ms /. 1000.))
        | _ -> acc)
      0.
      (List.filter (function Bracket _ -> true | Frontier _ -> false) cases)
  in
  let frontier f =
    List.fold_left
      (fun acc (_, (outcome, _)) ->
        match outcome with Swept s -> acc +. f s | Bracketed _ -> acc)
      0. traced
  in
  let layer name f = Workload.timed_op ~span:(name, []) f in
  let brackets = bracket_cases cases in
  let upper =
    List.concat_map
      (fun c ->
        let results =
          List.filter_map
            (fun ((_, g, r) as case) ->
              let cost, dt =
                layer ("bench.upper." ^ c) (fun () ->
                    match candidate c case with
                    | None -> None
                    | Some (`R ms) -> Result.to_option (Replay.rbp ~r g ms)
                    | Some (`P ms) -> Result.to_option (Replay.prbp ~r g ms))
              in
              Option.map (fun cost -> (float_of_int cost, dt)) cost)
            brackets
        in
        [
          ("upper." ^ c ^ ".s", Util.sum (List.map snd results));
          ("upper." ^ c ^ ".cost", Util.sum (List.map fst results));
        ])
      Metrics.upper_candidates
  in
  (* the whole portfolio, then the optimize pass on its winner where the
     portfolio itself would run it (at most 2500 moves) *)
  let portfolio (game, g, r) =
    let module U = Prbp.Bounds.Upper in
    let optimize moves f =
      if List.length moves <= 2500 then snd (layer "bench.optimize" f) else 0.
    in
    match game with
    | `Rbp -> (
        match layer "bench.upper.portfolio" (fun () -> U.rbp ~budget ~r g) with
        | Ok u, dt ->
            ( dt,
              optimize u.U.moves (fun () ->
                  Prbp.Optimize.rbp (Prbp.Rbp.config ~r ()) g u.U.moves) )
        | Error _, dt -> (dt, 0.))
    | `Prbp -> (
        match layer "bench.upper.portfolio" (fun () -> U.prbp ~budget ~r g) with
        | Ok u, dt ->
            ( dt,
              optimize u.U.moves (fun () ->
                  Prbp.Optimize.prbp (Prbp.Prbp_game.config ~r ()) g u.U.moves) )
        | Error _, dt -> (dt, 0.))
  in
  let portfolio_s, optimize_s =
    List.fold_left
      (fun (ps, os) case ->
        let p, o = portfolio case in
        (ps +. p, os +. o))
      (0., 0.) brackets
  in
  let lower =
    List.concat_map
      (fun rule ->
        let results =
          List.map
            (fun (game, g, r) ->
              let game =
                match game with
                | `Rbp -> Prbp.Bounds.Lower.Rbp
                | `Prbp -> Prbp.Bounds.Lower.Prbp
              in
              let l, dt =
                layer ("bench.lower." ^ rule) (fun () ->
                    Prbp.Bounds.Lower.compute ~budget ~rules:[ rule ] ~game ~r g)
              in
              (float_of_int l.Prbp.Bounds.Lower.bound, dt))
            brackets
        in
        [
          ("lower." ^ rule ^ ".s", Util.sum (List.map snd results));
          ("lower." ^ rule ^ ".bound", Util.sum (List.map fst results));
        ])
      Metrics.lower_rules
  in
  (* the bracket's own profile: greedy partition at s = 2r, skipped
     above the same node count the bracket skips it *)
  let segment_s =
    Util.sum
      (List.map
         (fun (game, g, r) ->
           if Prbp.Dag.n_nodes g > 4096 then 0.
           else
             let flavor =
               match game with
               | `Rbp -> Prbp.Bounds.Segment.Spartition
               | `Prbp -> Prbp.Bounds.Segment.Dominator
             in
             snd (layer "bench.segment.greedy" (fun () ->
                      Prbp.Bounds.Segment.greedy ~flavor g ~s:(2 * r))))
         brackets)
  in
  Sp.set_enabled false;
  M.set_enabled false;
  let ratio a b = if b > 0. then a /. b else 0. in
  let metrics =
    upper
    @ [
        ("upper.portfolio_s", portfolio_s);
        ("optimize.s", optimize_s);
        ("verify.moves_per_s", Replay.moves_per_s ());
      ]
    @ lower
    @ [
        ("segment.greedy_s", segment_s);
        ("bracket.deadline_overrun_s", overrun);
        ("frontier.sweep_s", frontier (fun f -> f.F.elapsed_s));
        ( "frontier.open_points",
          frontier (fun f -> float_of_int (List.length (F.open_points f))) );
        ("obs.trace_overhead", ratio (wall traced) (wall plain));
        ("obs.metrics_overhead", ratio (wall metered) (wall plain));
      ]
    @ Workload.gc_delta gc0 gc1
  in
  Workload.trace_result ~attempted:(List.length ops)
    ~failed:(List.length (List.filter (fun o -> not o.Workload.ok) ops))
    ~settings_json:(settings_json ~quick) metrics
