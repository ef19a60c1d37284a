(* Resource governance and observability for the exact solvers: the
   budget record every engine-backed solve honours, the telemetry sink
   the search loop reports into, and the anytime outcome type: an
   optimum, a certified interval, or a proof of infeasibility. *)

module Budget = struct
  type t = {
    max_states : int;
    max_millis : int option;
    max_words : int option;
    cancelled : (unit -> bool) option;
    check_every : int;
    spill_words : int option;
    prune_off_after : int;
  }

  let default_prune_off_after = 262_144

  let default =
    {
      max_states = 5_000_000;
      max_millis = None;
      max_words = None;
      cancelled = None;
      check_every = 2048;
      spill_words = None;
      prune_off_after = default_prune_off_after;
    }

  let v ?(max_states = default.max_states) ?max_millis ?max_words ?cancelled
      ?(check_every = default.check_every) ?spill_words
      ?(prune_off_after = default.prune_off_after) () =
    if max_states < 1 then invalid_arg "Solver.Budget.v: max_states >= 1";
    if check_every < 1 then invalid_arg "Solver.Budget.v: check_every >= 1";
    if prune_off_after < 1 then
      invalid_arg "Solver.Budget.v: prune_off_after >= 1";
    {
      max_states;
      max_millis;
      max_words;
      cancelled;
      check_every;
      spill_words;
      prune_off_after;
    }

  let states n = v ~max_states:n ()

  let millis ms = v ~max_millis:ms ()

  let words w = v ~max_words:w ()

  let unlimited = { default with max_states = max_int }
end

type reason = Max_states | Deadline | Max_words | Cancelled

let reason_label = function
  | Max_states -> "max-states"
  | Deadline -> "deadline"
  | Max_words -> "max-words"
  | Cancelled -> "cancelled"

let pp_reason ppf r = Format.pp_print_string ppf (reason_label r)

type stats = {
  explored : int;
  pruned : int;
  expansions : int;
  frontier : int;
  elapsed_s : float;
  mem_words : int;
  prune_disabled : bool;
  spilled : int;
}

let empty_stats =
  {
    explored = 0;
    pruned = 0;
    expansions = 0;
    frontier = 0;
    elapsed_s = 0.;
    mem_words = 0;
    prune_disabled = false;
    spilled = 0;
  }

module Telemetry = struct
  type progress = {
    expansions : int;
    explored : int;
    pruned : int;
    frontier : int;
    depth : int;
    table_load : float;
    elapsed_s : float;
    lower : int;
        (* certified lower bound on OPT at this instant: every settled
           0-1-BFS depth is one (the goal would otherwise have been
           popped already), and a terminal event carries the outcome's
           certified bound *)
    upper : int option;  (* branch-and-bound incumbent, when one exists *)
  }

  type event =
    | Start of { width : int; max_states : int }
    | Progress of progress
    | Prune of { pruned : int }
    | Stop of { outcome : string; progress : progress }

  type sink = { every : int; emit : event -> unit }

  let default_every = 65_536

  let make ?(every = default_every) emit =
    if every < 1 then invalid_arg "Solver.Telemetry.make: every >= 1";
    { every; emit }

  type summary = {
    mutable events : int;
    mutable progress_events : int;
    mutable prune_events : int;
    mutable solves : int;
    mutable last : progress option;
    mutable peak_explored : int;
  }

  let summarize ?every () =
    let s =
      {
        events = 0;
        progress_events = 0;
        prune_events = 0;
        solves = 0;
        last = None;
        peak_explored = 0;
      }
    in
    let emit ev =
      s.events <- s.events + 1;
      match ev with
      | Start _ -> s.solves <- s.solves + 1
      | Progress p ->
          s.progress_events <- s.progress_events + 1;
          s.last <- Some p;
          if p.explored > s.peak_explored then s.peak_explored <- p.explored
      | Prune _ -> s.prune_events <- s.prune_events + 1
      | Stop { progress = p; _ } ->
          s.last <- Some p;
          if p.explored > s.peak_explored then s.peak_explored <- p.explored
    in
    (s, make ?every emit)
end

type 'move optimal = {
  cost : int;
  strategy : 'move list option;
  stats : stats;
}

type 'move bounded = {
  lower : int;
  upper : int option;
  incumbent_strategy : 'move list option;
  stats : stats;
  stopped : reason;
}

type 'move outcome =
  | Optimal of 'move optimal
  | Bounded of 'move bounded
  | Unsolvable of stats

let outcome_label = function
  | Optimal _ -> "optimal"
  | Bounded _ -> "bounded"
  | Unsolvable _ -> "unsolvable"

let stats_of = function
  | Optimal { stats; _ } -> stats
  | Bounded { stats; _ } -> stats
  | Unsolvable stats -> stats

let optimal_cost = function Optimal { cost; _ } -> Some cost | _ -> None

(* The certified interval [lower, upper] on OPT; for [Unsolvable] the
   optimum does not exist and the interval is empty-by-convention
   (max_int, None). *)
let interval = function
  | Optimal { cost; _ } -> (cost, Some cost)
  | Bounded { lower; upper; _ } -> (lower, upper)
  | Unsolvable _ -> (max_int, None)

let pp ppf = function
  | Optimal { cost; stats; _ } ->
      Format.fprintf ppf "optimal %d (%d states, %.2fs)" cost stats.explored
        stats.elapsed_s
  | Bounded { lower; upper; stats; stopped; _ } ->
      Format.fprintf ppf "bounded [%d, %s] (%s; %d states, %.2fs)" lower
        (match upper with Some u -> string_of_int u | None -> "?")
        (reason_label stopped) stats.explored stats.elapsed_s
  | Unsolvable stats ->
      Format.fprintf ppf "unsolvable (%d states, %.2fs)" stats.explored
        stats.elapsed_s

(* ------------------------------------------------------------------ *)

module Convergence = struct
  type point = { t_s : float; lower : int; upper : int option }

  type curve = point list

  type recorder = {
    mutable rev : point list;  (* newest first *)
    r_lock : Mutex.t;
  }

  let min_upper a b =
    match (a, b) with
    | None, u | u, None -> u
    | Some a, Some b -> Some (min a b)

  (* Fold one certified (lower, upper) sighting into the curve,
     keeping it monotone: the recorded lower bound never decreases,
     the recorded upper bound never increases, and a sighting that
     tightens nothing is dropped (so curves stay short).  Sightings
     with [lower = max_int] (the Unsolvable convention) are ignored —
     there is no optimum to converge to. *)
  let observe r ~t_s ~lower ~upper =
    if lower < max_int then begin
      Mutex.lock r.r_lock;
      let lo', up' =
        match r.rev with
        | [] -> (lower, upper)
        | last :: _ -> (max lower last.lower, min_upper upper last.upper)
      in
      let tightens =
        match r.rev with
        | [] -> true
        | last :: _ -> lo' > last.lower || up' <> last.upper
      in
      if tightens then r.rev <- { t_s; lower = lo'; upper = up' } :: r.rev;
      Mutex.unlock r.r_lock
    end

  let curve r =
    Mutex.lock r.r_lock;
    let l = List.rev r.rev in
    Mutex.unlock r.r_lock;
    l

  (* A recorder plus a telemetry sink that feeds it (and tees into
     [telemetry] when given, preserving its cadence). *)
  let recorder ?telemetry () =
    let r = { rev = []; r_lock = Mutex.create () } in
    let every =
      match telemetry with
      | Some (s : Telemetry.sink) -> s.Telemetry.every
      | None -> Telemetry.default_every
    in
    let emit ev =
      (match ev with
      | Telemetry.Progress p | Telemetry.Stop { progress = p; _ } ->
          observe r ~t_s:p.Telemetry.elapsed_s ~lower:p.Telemetry.lower
            ~upper:p.Telemetry.upper
      | Telemetry.Start _ | Telemetry.Prune _ -> ());
      match telemetry with
      | Some s -> s.Telemetry.emit ev
      | None -> ()
    in
    (r, { Telemetry.every; emit })

  let width p =
    match p.upper with Some u -> Some (u - p.lower) | None -> None

  let final c =
    match List.rev c with [] -> None | last :: _ -> Some last

  (* Earliest recorded time at which the certified width was ≤ [w];
     [None] when the curve never got there (or never had an upper
     bound). *)
  let time_to_width c w =
    List.find_map
      (fun p ->
        match width p with
        | Some wd when wd <= w -> Some p.t_s
        | _ -> None)
      c

  let monotone c =
    let rec go = function
      | a :: (b :: _ as tl) ->
          b.lower >= a.lower
          && (match (a.upper, b.upper) with
             | Some ua, Some ub -> ub <= ua
             | Some _, None -> false  (* an incumbent cannot vanish *)
             | None, _ -> true)
          && b.t_s >= a.t_s && go tl
      | _ -> true
    in
    go c
end
