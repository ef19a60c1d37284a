module Dag = Prbp_dag.Dag
module Topo = Prbp_dag.Topo
module Solver = Prbp_solver.Solver
module Heuristic = Prbp_solver.Heuristic
module Thresholds = Prbp_solver.Thresholds
module Verifier = Prbp_pebble.Verifier
module Clock = Prbp_obs.Clock
module Span = Prbp_obs.Span
module Metrics = Prbp_obs.Metrics

let m_candidates =
  Metrics.counter ~help:"Upper-bound candidate strategies attempted"
    "prbp_upper_candidates_total"

let m_accepted =
  Metrics.counter ~help:"Upper-bound candidates that survived verification"
    "prbp_upper_accepted_total"

type meth = { base : string; reorder_seed : int option }

let meth_label m = m.base ^ if m.reorder_seed <> None then "+reorder" else ""

let meth base = { base; reorder_seed = None }

type 'm t = { cost : int; moves : 'm list; meth : meth }

(* ------------------------------------------------------------------ *)
(* Deterministic order perturbation: a Lehmer LCG drives adjacent
   transpositions, applied only where the pair is not an edge — the
   perturbed array stays a topological order, so the pebblers accept
   it without re-checking. *)

let lcg st = st * 48271 mod 0x7fffffff

let perturb g base seed =
  let order = Array.copy base in
  let n = Array.length order in
  let st = ref (max 1 seed) in
  for _ = 1 to max 4 (n / 8) do
    st := lcg !st;
    let i = !st mod (n - 1) in
    let u = order.(i) and v = order.(i + 1) in
    if not (Dag.has_edge g u v) then begin
      order.(i) <- v;
      order.(i + 1) <- u
    end
  done;
  order

(* ------------------------------------------------------------------ *)
(* Banded topological orders.  The default topological order sweeps
   layered DAGs row by row, thrashing the cache on every long row;
   grouping [h] consecutive depth levels into a band and emitting the
   band component by component keeps each component's working set
   resident, so values are loaded once per band instead of once per
   level (on FFT this is the classic blocked schedule).

   Band [p] {e spans} levels [p·h .. (p+1)·h] and {e emits} levels
   (p·h .. (p+1)·h] — plus level 0 for band 0 — so each level is
   emitted exactly once and band boundaries overlap by one level (the
   values the next band consumes).  Components are connected components
   of the edges inside the span; emission order is bands ascending,
   components by minimum emitted node id, nodes by (level, id).

   The result is always a topological order: an edge (u,v) has
   level u < level v, so either u is emitted by an earlier band, or
   both endpoints lie in v's band's span — making them one component,
   ordered by level. *)

let banded_order g ~h =
  let n = Dag.n_nodes g in
  let levels = Topo.levels g in
  let nlev = Array.length levels in
  let level_of = Array.make n 0 in
  Array.iteri (fun l ns -> List.iter (fun v -> level_of.(v) <- l) ns) levels;
  let order = Array.make n 0 in
  let pos = ref 0 in
  let n_bands = max 1 ((nlev - 1 + h - 1) / h) in
  for p = 0 to n_bands - 1 do
    let lo = p * h and hi = min (nlev - 1) ((p + 1) * h) in
    let span = ref [] in
    for l = lo to hi do
      List.iter (fun v -> span := v :: !span) levels.(l)
    done;
    let span = !span in
    let parent = Hashtbl.create 64 in
    List.iter (fun v -> Hashtbl.replace parent v v) span;
    let rec find v =
      let pv = Hashtbl.find parent v in
      if pv = v then v
      else begin
        let root = find pv in
        Hashtbl.replace parent v root;
        root
      end
    in
    let union a b =
      let ra = find a and rb = find b in
      if ra <> rb then Hashtbl.replace parent (max ra rb) (min ra rb)
    in
    List.iter
      (fun v ->
        if level_of.(v) > lo then
          Dag.iter_pred (fun u -> if level_of.(u) >= lo then union u v) g v)
      span;
    let emitted =
      List.filter
        (fun v -> level_of.(v) > lo || (p = 0 && level_of.(v) = 0))
        span
    in
    let by_root = Hashtbl.create 64 in
    List.iter
      (fun v ->
        let root = find v in
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_root root) in
        Hashtbl.replace by_root root (v :: prev))
      emitted;
    let comps =
      Hashtbl.fold
        (fun _ vs acc ->
          let key = List.fold_left min max_int vs in
          let vs =
            List.sort
              (fun a b -> compare (level_of.(a), a) (level_of.(b), b))
              vs
          in
          (key, vs) :: acc)
        by_root []
    in
    List.iter
      (fun (_, vs) ->
        List.iter
          (fun v ->
            order.(!pos) <- v;
            incr pos)
          vs)
      (List.sort compare comps)
  done;
  order

let banded_heights = [ 1; 2; 3 ]

let hill_climb_iters = 24

(* The shared portfolio, around the game's Belady pebbler
   [pebble ?order ()]: the default order, then [extra] (the game's own
   base candidates), the banded orders and [tail], then hill climbing
   over perturbations of the default topological order.  Every
   candidate is certified by [verify] before its cost is believed, and
   a rejected or crashing candidate is skipped.  Each verified
   candidate that beats the incumbent is reported to [on_improve] at
   once, so callers can publish it before the portfolio ends.  The
   first base candidate always runs; the clock and cancellation are
   checked before every later one. *)
let run_portfolio ~(budget : Solver.Budget.t) ~on_improve ~verify
    ~(pebble : ?order:Dag.node array -> unit -> _) ~extra ~tail g =
  let deadline = Clock.deadline_of_millis budget.Solver.Budget.max_millis in
  let time_ok () =
    (not (Clock.expired deadline))
    && match budget.Solver.Budget.cancelled with
       | Some f -> not (f ())
       | None -> true
  in
  let banded =
    if Dag.n_nodes g < 2 then []
    else
      List.map
        (fun h ->
          ( meth (Printf.sprintf "banded%d" h),
            fun () -> pebble ~order:(banded_order g ~h) () ))
        banded_heights
  in
  let best = ref None in
  let consider meth moves =
    match verify moves with
    | Error _ -> ()
    | Ok cost -> (
        Metrics.Counter.incr m_accepted;
        Span.add_attr "cost" (string_of_int cost);
        match !best with
        | Some b when b.cost <= cost -> ()
        | _ ->
            best := Some { cost; moves; meth };
            Span.add_attr "improved" "true";
            on_improve cost meth)
  in
  let attempt ?(span = "upper.candidate") meth produce =
    Metrics.Counter.incr m_candidates;
    let go () =
      match produce () with
      | moves -> consider meth moves
      | exception (Invalid_argument _ | Failure _) -> ()
    in
    if Span.enabled () then
      Span.with_ ~name:span ~attrs:[ ("method", meth_label meth) ] go
    else go ()
  in
  let rec base first = function
    | (meth, produce) :: rest when first || time_ok () ->
        attempt meth produce;
        base false rest
    | _ -> ()
  in
  let go () =
    base true (((meth "belady", fun () -> pebble ()) :: extra) @ banded @ tail);
    if Dag.n_nodes g >= 3 then begin
      let order = Topo.sort g in
      let seed = ref 1 in
      let iters = ref 0 in
      while !iters < hill_climb_iters && time_ok () do
        incr iters;
        seed := lcg !seed;
        let s = !seed in
        attempt ~span:"upper.reorder"
          { base = "belady"; reorder_seed = Some s }
          (fun () -> pebble ~order:(perturb g order s) ())
      done
    end;
    match !best with
    | Some b -> Ok b
    | None -> Error "Upper: no candidate strategy survived verification"
  in
  if not (Span.enabled ()) then go ()
  else
    Span.with_ ~name:"upper.portfolio" (fun () ->
        let r = go () in
        (match r with
        | Ok b ->
            Span.add_attr "method" (meth_label b.meth);
            Span.add_attr "cost" (string_of_int b.cost)
        | Error _ -> ());
        r)

let rbp ?(budget = Solver.Budget.default) ?(on_improve = fun _ _ -> ())
    ~r g =
  if r < Thresholds.rbp_feasible_r g then
    Error "Upper.rbp: r is below the RBP feasibility threshold (max in-degree + 1)"
  else
    run_portfolio ~budget ~on_improve ~verify:(Verifier.R.check ~r g)
      ~pebble:(fun ?order () -> Heuristic.rbp ?order ~r g)
      ~extra:[] ~tail:[] g

let prbp ?(budget = Solver.Budget.default) ?(on_improve = fun _ _ -> ())
    ~r g =
  if r < Thresholds.prbp_feasible_r g then
    Error "Upper.prbp: r is below the PRBP feasibility threshold (2 on any DAG with an edge)"
  else
    run_portfolio ~budget ~on_improve ~verify:(Verifier.P.check ~r g)
      ~pebble:(fun ?order () -> Heuristic.prbp ?order ~r g)
      ~extra:
        [ (meth "belady+defer", fun () -> Heuristic.prbp ~defer_saves:true ~r g) ]
      ~tail:
        (if Dag.n_edges g <= 4000 then
           [ (meth "greedy-edges", fun () -> Heuristic.prbp_greedy ~r g) ]
         else [])
      g
