(* The one exhaustive-search loop of the library.  Every exact solver
   (Exact_rbp, Exact_prbp, Black, Exact_multi) instantiates this
   functor; none of them owns a BFS or branch-and-bound loop of its
   own.

   The loop is *anytime*: a Solver.Budget can stop it on state count,
   wall-clock deadline, memory estimate or cooperative cancellation,
   and a truncated search still returns a certified interval on OPT
   (Solver.Bounded) instead of raising.  Governance costs one integer
   compare per expansion; deadlines, memory estimates and telemetry
   run on the slow path every [check_every] expansions. *)

module T = State_table.Flat
module Clock = Prbp_obs.Clock
module Span = Prbp_obs.Span
module Metrics = Prbp_obs.Metrics

(* One instrument family shared by every game instance (the functor
   below may be applied many times; the registry dedupes).  Values are
   published once per solve, at the end — the per-expansion hot loop
   never touches them, so observability off or on costs the loop
   nothing beyond the counters it already keeps. *)
let m_solves =
  Metrics.counter ~help:"engine solves started" "prbp_engine_solves_total"

let m_expansions =
  Metrics.counter ~help:"states popped and expanded"
    "prbp_engine_expansions_total"

let m_explored =
  Metrics.counter ~help:"distinct states inserted into the search"
    "prbp_engine_explored_total"

let m_pruned =
  Metrics.counter ~help:"states cut by branch-and-bound"
    "prbp_engine_pruned_total"

let m_table_resizes =
  Metrics.counter ~help:"state-table geometric growth steps"
    "prbp_engine_table_resizes_total"

let m_peak_frontier =
  Metrics.gauge ~help:"largest 0-1 deque length sampled at a slow-path poll"
    "prbp_engine_peak_frontier"

let m_solve_seconds =
  Metrics.histogram ~help:"wall-clock seconds per engine solve"
    "prbp_engine_solve_seconds"

(* The search memory of a sequential solve — its state table, 0-1
   deque and parent arrays — outlives the solve: each domain keeps the
   last one in a slot and the next solve on that domain recycles it, so
   a domain that has solved an instance of some size solves the next
   one no larger without touching the major heap.  That matters beyond
   the solve itself: in OCaml 5 every minor collection and every
   major-cycle phase stops all domains, so one domain's allocation
   churn stalls the others (prbpd's workers and its accept loop).

   The slot holds the workspace weakly, so a major cycle can still
   reclaim a large one between solves.  A solve takes the workspace out
   of the slot and hands it back when it returns: a nested solve (one
   started from a telemetry sink) finds the slot empty and allocates
   its own, and a solve that raises simply drops it.  Everything in it
   is an [int] array, so every game instance of the functor below
   shares it, whatever its key width. *)
module Workspace = struct
  type t = {
    tbl : T.t;
    dq : Deque01.t;
    mutable parent_idx : int array;
    mutable parent_move : int array;  (* the games' int move codes *)
  }

  let slot : t Weak.t Domain.DLS.key =
    Domain.DLS.new_key (fun () -> Weak.create 1)

  let take ~width =
    let cell = Domain.DLS.get slot in
    match Weak.get cell 0 with
    | Some ws ->
        Weak.set cell 0 None;
        T.recycle ws.tbl ~width;
        Deque01.recycle ws.dq;
        ws
    | None ->
        {
          tbl = T.create ~width ();
          dq = Deque01.create ();
          parent_idx = [||];
          parent_move = [||];
        }

  let give ws = Weak.set (Domain.DLS.get slot) 0 (Some ws)
end

module Make (G : Game.S) = struct
  type ctx = {
    inst : G.inst;
    budget : Solver.Budget.t;
    tele : Solver.Telemetry.sink option;
    want_strategy : bool;
    ub : int;  (* branch-and-bound bound; max_int = pruning off *)
    t0 : float;
    deadline : float;  (* absolute, infinity when none *)
    (* residual checks are live; dropped mid-solve when
       [prune_off_after] expansions pass without a single prune (the
       incumbent [ub] survives for the certified upper bound) *)
    mutable prune_on : bool;
    mutable prune_disabled : bool;
    mutable pruned : int;
    mutable expansions : int;
    mutable stop : Solver.reason option;
    (* min of (distance + residual) over every state the budget hid
       from the search: successors dropped at the state cap, and the
       popped state a stop settled without expanding.  Folded into the
       certified lower bound — such a state is an exit from the
       settled region that the surviving frontier does not cover. *)
    mutable lost_lb : int;
    mutable next_check : int;
    mutable next_emit : int;  (* max_int when no sink *)
    mutable next_gate : int;  (* min of the two above *)
    (* largest deque length seen at a slow-path poll or at the end of
       the solve — a sampled high-water mark, not an exact maximum *)
    mutable peak_frontier : int;
    tbl : T.t;
    (* the workspace's parent arrays, at least [pcap] long; [pcap] is
       the length a fresh solve would have grown them to *)
    mutable parent_idx : int array;
    mutable parent_move : int array;
    mutable pcap : int;
    dq : Deque01.t;
    (* set by the pop loop before calling [G.expand]; read by the
       [emit] relaxation closure *)
    mutable cur_idx : int;
    mutable cur_d : int;
  }

  (* Estimated live heap words of the search structures, counted at
     the logical sizes a fresh solve would reach, so that budget
     verdicts and the reported figure do not depend on what the
     recycled workspace held before.  Strategy bookkeeping contributes
     exactly its two int arrays — zero unless [want_strategy], which
     the end-of-solve assertion pins down. *)
  let mem_words ctx = T.words ctx.tbl + Deque01.words ctx.dq + (2 * ctx.pcap)

  let record_parent ctx idx =
    if idx >= ctx.pcap then begin
      let cap = max 16 (2 * ctx.pcap) in
      ctx.pcap <- cap;
      if Array.length ctx.parent_idx < cap then begin
        let pi = Array.make cap 0 and pm = Array.make cap 0 in
        Array.blit ctx.parent_idx 0 pi 0 idx;
        Array.blit ctx.parent_move 0 pm 0 idx;
        ctx.parent_idx <- pi;
        ctx.parent_move <- pm
      end
    end

  (* Relax the successor state sitting in [scratch]: the 0-1 BFS step,
     plus branch-and-bound on first sight of a new state.  A full
     state table flags the stop reason instead of raising, and the
     dropped successor's cheapest continuation is recorded in
     [lost_lb] so the certified lower bound still sees it. *)
  let relax ctx scratch m cost01 =
    let cost = ctx.cur_d + cost01 in
    let idx = T.find ctx.tbl scratch in
    if idx >= 0 then begin
      let v = T.value ctx.tbl idx in
      (* v < 0: settled, already minimal *)
      if v >= 0 && v > cost then begin
        T.set_value ctx.tbl idx cost;
        if ctx.want_strategy then begin
          ctx.parent_idx.(idx) <- ctx.cur_idx;
          ctx.parent_move.(idx) <- m
        end;
        if cost01 = 0 then Deque01.push_front ctx.dq idx
        else Deque01.push_back ctx.dq idx
      end
    end
    else if ctx.prune_on && cost + G.residual_lb ctx.inst scratch > ctx.ub
    then begin
      ctx.pruned <- ctx.pruned + 1;
      match ctx.tele with
      | Some sink when ctx.pruned land (ctx.pruned - 1) = 0 ->
          sink.emit (Solver.Telemetry.Prune { pruned = ctx.pruned })
      | _ -> ()
    end
    else if T.length ctx.tbl >= ctx.budget.Solver.Budget.max_states then begin
      if ctx.stop = None then ctx.stop <- Some Solver.Max_states;
      let c = cost + G.residual_lb ctx.inst scratch in
      if c < ctx.lost_lb then ctx.lost_lb <- c
    end
    else begin
      let idx = T.add ctx.tbl scratch cost in
      if ctx.want_strategy then begin
        record_parent ctx idx;
        ctx.parent_idx.(idx) <- ctx.cur_idx;
        ctx.parent_move.(idx) <- m
      end;
      if cost01 = 0 then Deque01.push_front ctx.dq idx
      else Deque01.push_back ctx.dq idx;
      (* the tables grow geometrically, so a memory cap can overshoot
         by a whole growth step between two slow-path polls; re-check
         at power-of-two state counts to bound the overshoot *)
      let len = T.length ctx.tbl in
      if len land (len - 1) = 0 then
        match ctx.budget.Solver.Budget.max_words with
        | Some w when mem_words ctx > w ->
            if ctx.stop = None then ctx.stop <- Some Solver.Max_words
        | _ -> ()
    end

  let progress ctx =
    {
      Solver.Telemetry.expansions = ctx.expansions;
      explored = T.length ctx.tbl;
      pruned = ctx.pruned;
      frontier = Deque01.length ctx.dq;
      depth = ctx.cur_d;
      table_load = T.load ctx.tbl;
      elapsed_s = Clock.elapsed_s ctx.t0;
      (* the settled 0-1 distance is a certified lower bound: a
         cheaper complete pebbling would already have been popped *)
      lower = ctx.cur_d;
      upper = (if ctx.ub < max_int then Some ctx.ub else None);
    }

  (* Deadline / memory / cancellation polls and telemetry emission;
     reached every [min check_every sink.every] expansions. *)
  let slow_path ctx =
    let b = ctx.budget in
    let frontier = Deque01.length ctx.dq in
    if frontier > ctx.peak_frontier then ctx.peak_frontier <- frontier;
    if ctx.expansions >= ctx.next_check then begin
      (* cases whose heuristic upper bound sits far above OPT never
         prune, and for them the per-relaxation residual evaluation is
         pure overhead: after [prune_off_after] expansions with zero
         prunes, stop paying for it.  Expansion-count-triggered, so the
         decision (and every counter after it) stays deterministic. *)
      if
        ctx.prune_on && ctx.pruned = 0
        && ctx.expansions >= b.Solver.Budget.prune_off_after
      then begin
        ctx.prune_on <- false;
        ctx.prune_disabled <- true
      end;
      (if ctx.stop = None then
         if Clock.now () > ctx.deadline then
           ctx.stop <- Some Solver.Deadline
         else
           match b.Solver.Budget.max_words with
           | Some w when mem_words ctx > w -> ctx.stop <- Some Solver.Max_words
           | _ -> (
               match b.Solver.Budget.cancelled with
               | Some f when f () -> ctx.stop <- Some Solver.Cancelled
               | _ -> ()));
      ctx.next_check <- ctx.expansions + b.Solver.Budget.check_every
    end;
    (match ctx.tele with
    | Some sink when ctx.expansions >= ctx.next_emit ->
        sink.emit (Solver.Telemetry.Progress (progress ctx));
        ctx.next_emit <- ctx.expansions + sink.every
    | _ -> ());
    ctx.next_gate <- min ctx.next_check ctx.next_emit

  let stats ctx =
    {
      Solver.explored = T.length ctx.tbl;
      pruned = ctx.pruned;
      expansions = ctx.expansions;
      frontier = Deque01.length ctx.dq;
      elapsed_s = Clock.elapsed_s ctx.t0;
      mem_words = mem_words ctx;
      prune_disabled = ctx.prune_disabled;
      spilled = 0;
    }

  (* Certified lower bound on OPT at truncation: any optimal path must
     leave the settled region either through a still-queued frontier
     state [s] with its tentative distance [d(s)], or through a state
     the budget hid from the search (a successor dropped at the state
     cap, or the popped state a stop settled without expanding) whose
     cheapest continuation is tracked in [lost_lb].  So
     OPT >= min(lost_lb, min over the live frontier of
     (d(s) + residual_lb s)).  Branch-and-bound never cuts a state on
     an optimal path (its d + residual is at most OPT <= ub), so
     pruning keeps this sound.  An empty frontier with nothing lost
     degrades to the last settled depth. *)
  let frontier_lower_bound ctx buf =
    let best = ref ctx.lost_lb in
    Deque01.iter
      (fun idx ->
        let v = T.value ctx.tbl idx in
        if v >= 0 && v < !best then begin
          T.read_key ctx.tbl idx buf;
          let c = v + G.residual_lb ctx.inst buf in
          if c < !best then best := c
        end)
      ctx.dq;
    if !best < max_int then !best else ctx.cur_d

  (* How a search loop ended. *)
  type ending =
    | Goal of int * G.move list option  (* cost, optimal strategy *)
    | Exhausted  (* no goal state is reachable *)
    | Stopped of Solver.reason * int
        (* the frontier's certified lower bound, before the clamp *)

  (* The one exit of both search loops: build the outcome, emit the
     terminal telemetry event, and feed the end-of-solve counters and
     the solve span — never from the expansion loop.  [domains] holds
     the parallel loop's per-domain (expansions, pruned, spilled)
     counts; the sequential loop has none. *)
  let finish ~telemetry ~want_strategy ~incumbent ~t0 ~progress ~stats
      ~resizes ~peak_frontier ?domains ending =
    let upper = Option.map fst incumbent in
    let outcome =
      match ending with
      | Goal (cost, strategy) -> Solver.Optimal { cost; strategy; stats }
      | Exhausted -> Solver.Unsolvable stats
      | Stopped (stopped, lb) ->
          (* clamp against the incumbent: an upper bound comes from a
             concrete strategy, so OPT <= upper always holds *)
          let lower = match upper with Some u -> min lb u | None -> lb in
          (* move lists are strictly opt-in, incumbent included *)
          let incumbent_strategy =
            if want_strategy then Option.map snd incumbent else None
          in
          Solver.Bounded { lower; upper; incumbent_strategy; stats; stopped }
    in
    (match telemetry with
    | Some sink ->
        (* the terminal event carries the outcome's certified interval,
           which can beat the last mid-run sighting (the final Bounded
           lower comes from the surviving frontier, not just the
           settled depth) *)
        let lo, up = Solver.interval outcome in
        sink.Solver.Telemetry.emit
          (Solver.Telemetry.Stop
             {
               outcome = Solver.outcome_label outcome;
               progress =
                 { (progress ()) with Solver.Telemetry.lower = lo; upper = up };
             })
    | None -> ());
    if Metrics.enabled () then begin
      Metrics.Counter.incr m_solves;
      Metrics.Counter.add m_expansions stats.Solver.expansions;
      Metrics.Counter.add m_explored stats.Solver.explored;
      Metrics.Counter.add m_pruned stats.Solver.pruned;
      Metrics.Counter.add m_table_resizes resizes;
      Metrics.Gauge.max_ m_peak_frontier (float_of_int peak_frontier);
      Metrics.Histogram.observe m_solve_seconds (Clock.elapsed_s t0);
      (* per-domain view of the same solve: one labeled counter family
         per metric (the registry dedupes registration, so this costs a
         lookup per domain per solve) *)
      Option.iter
        (Array.iteri (fun id (expansions, pruned, spilled) ->
             let labels = [ ("domain", string_of_int id) ] in
             Metrics.Counter.add
               (Metrics.counter ~help:"states expanded, by engine domain"
                  ~labels "prbp_engine_domain_expansions_total")
               expansions;
             Metrics.Counter.add
               (Metrics.counter
                  ~help:"states cut by branch-and-bound, by owning domain"
                  ~labels "prbp_engine_domain_pruned_total")
               pruned;
             Metrics.Counter.add
               (Metrics.counter
                  ~help:"settled states evicted to the spill tier, by domain"
                  ~labels "prbp_engine_domain_spilled_total")
               spilled))
        domains
    end;
    if Span.enabled () then begin
      (* bridge the terminal telemetry into span annotations *)
      Span.add_attr "outcome" (Solver.outcome_label outcome);
      Option.iter
        (fun d -> Span.add_attr "jobs" (string_of_int (Array.length d)))
        domains;
      Span.add_attr "expansions" (string_of_int stats.Solver.expansions);
      Span.add_attr "explored" (string_of_int stats.Solver.explored);
      if stats.Solver.pruned > 0 then
        Span.add_attr "pruned" (string_of_int stats.Solver.pruned);
      if stats.Solver.spilled > 0 then
        Span.add_attr "spilled" (string_of_int stats.Solver.spilled)
    end;
    outcome

  let solve_raw ~budget ~telemetry ~want_strategy ~incumbent inst =
    let w = G.width inst in
    let t0 = Clock.now () in
    let ws = Workspace.take ~width:w in
    let ctx =
      {
        inst;
        budget;
        tele = telemetry;
        want_strategy;
        ub = (match incumbent with Some (c, _) -> c | None -> max_int);
        t0;
        deadline =
          (match budget.Solver.Budget.max_millis with
          | Some ms -> t0 +. (float_of_int ms /. 1000.)
          | None -> infinity);
        prune_on = false;  (* armed below, once [ub] is known finite *)
        prune_disabled = false;
        peak_frontier = 0;
        pruned = 0;
        expansions = 0;
        stop = None;
        lost_lb = max_int;
        next_check = budget.Solver.Budget.check_every;
        next_emit =
          (match telemetry with Some s -> s.every | None -> max_int);
        next_gate = 0;
        tbl = ws.Workspace.tbl;
        parent_idx = ws.Workspace.parent_idx;
        parent_move = ws.Workspace.parent_move;
        pcap = 0;
        dq = ws.Workspace.dq;
        cur_idx = 0;
        cur_d = 0;
      }
    in
    ctx.prune_on <- ctx.ub < max_int;
    ctx.next_gate <- min ctx.next_check ctx.next_emit;
    (match telemetry with
    | Some sink ->
        sink.emit
          (Solver.Telemetry.Start
             { width = w; max_states = budget.Solver.Budget.max_states })
    | None -> ());
    let cur = Array.make w 0 and scratch = Array.make w 0 in
    (* init state gets dense index 0 *)
    G.write_init inst cur;
    ignore (T.add ctx.tbl cur 0);
    if want_strategy then record_parent ctx 0;
    Deque01.push_back ctx.dq 0;
    let emit m cost01 = relax ctx scratch m cost01 in
    let result = ref None in
    let continue = ref true in
    while !continue && ctx.stop = None do
      match Deque01.pop_front ctx.dq with
      | -1 -> continue := false
      | idx ->
          let d = T.value ctx.tbl idx in
          if d >= 0 then begin
            T.set_value ctx.tbl idx (lnot d);
            T.read_key ctx.tbl idx cur;
            ctx.cur_idx <- idx;
            ctx.cur_d <- d;
            if G.is_goal inst cur then begin
              result := Some (idx, d);
              continue := false
            end
            else begin
              ctx.expansions <- ctx.expansions + 1;
              if ctx.expansions >= ctx.next_gate then slow_path ctx;
              if ctx.stop = None then G.expand inst cur ~scratch ~emit
              else begin
                (* settled above but never expanded: its continuations
                   must stay visible to the certified lower bound *)
                let c = d + G.residual_lb inst cur in
                if c < ctx.lost_lb then ctx.lost_lb <- c
              end
            end
          end
    done;
    (* strategy bookkeeping is strictly opt-in: nothing on any path
       may grow the parent arrays without [want_strategy], and the
       memory estimate above counts exactly these arrays *)
    assert (want_strategy || ctx.pcap = 0);
    let ending =
      match (!result, ctx.stop) with
      | Some (goal, d), _ ->
          let strategy =
            if not want_strategy then None
            else begin
              let acc = ref [] in
              let idx = ref goal in
              while !idx <> 0 do
                acc := G.decode inst ctx.parent_move.(!idx) :: !acc;
                idx := ctx.parent_idx.(!idx)
              done;
              Some !acc
            end
          in
          Goal (d, strategy)
      | None, None -> Exhausted
      | None, Some stopped -> Stopped (stopped, frontier_lower_bound ctx cur)
    in
    let stats = stats ctx in
    let outcome =
      finish ~telemetry ~want_strategy ~incumbent ~t0
        ~progress:(fun () -> progress ctx)
        ~stats ~resizes:(T.resizes ctx.tbl)
        ~peak_frontier:(max ctx.peak_frontier stats.Solver.frontier)
        ending
    in
    (* after the Stop event: a solve nested in the sink still finds the
       slot empty *)
    ws.Workspace.parent_idx <- ctx.parent_idx;
    ws.Workspace.parent_move <- ctx.parent_move;
    Workspace.give ws;
    outcome

  (* ================== parallel path =================== *)
  (* Level-synchronized 0-1 BFS over a hash-sharded state table.
     Domains alternate three-phase bulk-synchronous subrounds:

       work      settle and expand this subround's bucket (with chunk
                 stealing from slower domains); successors are routed
                 into per-(producer, owner) lanes, never inserted
       barrier
       integrate each owner drains the lanes aimed at it — every
                 0-cost record before any 1-cost record, producers in
                 index order — and deduplicates/prunes/inserts into
                 its own shards; then publishes its counters
       barrier
       decide    every domain computes the *same* verdict (continue /
                 next level / spill / stop) from the published sums
                 and the quiescent stop/goal atomics, and applies its
                 own bucket swaps
       barrier

     Cross-domain data is only ever read at least one barrier after it
     was last written, so the hot paths need no locks.  Because a
     subround's content is "the states first reachable at this
     0-distance from the level-entry set" — a property of the game, not
     of the sharding — the aggregated explored/expanded/pruned counters
     and every barrier-decided stop are identical for every [jobs]
     value (deadline and cancellation stops are inherently timing-
     dependent; memory stops depend on allocator behaviour).  The shard
     count is fixed at [par_shards] rather than derived from [jobs] for
     the same reason: table growth, and therefore the word estimate the
     memory cap sees, must not depend on the domain count. *)

  module Sh = State_table.Sharded

  type decision =
    | Subround  (* more 0-cost-reachable work at this level *)
    | Next_level
    | Spill  (* level boundary, over the word cap, spill tier armed *)
    | Finish_goal of int  (* gid of a settled goal state *)
    | Finish_stop of Solver.reason
    | Finish_exhausted

  type mode = Mwork | Mspill

  (* Per-domain state.  [pend]/[inbox]/[next] hold gids this domain
     owns; [out*]/[mv*] are the successor lanes this domain *produces*,
     indexed by destination domain. *)
  type pd = {
    id : int;
    pend : Par.Ibuf.t;
    inbox : Par.Ibuf.t;
    next : Par.Ibuf.t;
    cursor : int Atomic.t;  (* next unclaimed [pend] slot; stealable *)
    out0 : Par.Ibuf.t array;
    out1 : Par.Ibuf.t array;
    mv0 : Par.Ibuf.t array;  (* move codes beside the [out*] records *)
    mv1 : Par.Ibuf.t array;
    cur : int array;
    scratch : int array;
    mutable level : int;
    mutable mode : mode;
    mutable just_spilled : bool;
    mutable prune_on : bool;
    mutable prune_disabled : bool;
    mutable expansions : int;
    mutable pruned : int;
    mutable inserted : int;  (* fresh table inserts; survives eviction *)
    mutable spilled : int;
    mutable since_poll : int;
    mutable stop_seen : bool;
    mutable cur_gid : int;
    mutable dead : exn option;  (* a phase raised; idle the protocol out *)
    (* domain 0 only: telemetry cadence and the frontier high-water *)
    mutable next_emit : int;
    mutable next_prune : int;
    mutable peak_frontier : int;
  }

  type shared = {
    p_inst : G.inst;
    p_budget : Solver.Budget.t;
    p_tele : Solver.Telemetry.sink option;
    p_want_strategy : bool;
    p_spill_on : bool;
    p_ub : int;
    p_t0 : float;
    p_deadline : float;
    p_jobs : int;
    p_width : int;
    tbl : Sh.t;
    doms : pd array;
    bar : Par.Barrier.t;
    stop_r : int Atomic.t;  (* -1 = running, else a reason tag *)
    goal_gid : int Atomic.t;  (* min gid of a settled goal; max_int *)
    (* per-shard strategy bookkeeping, owner-written at integration *)
    parents : Par.Ibuf.t array;
    pmoves : Par.Ibuf.t array;
    (* published slots: own slot written between the work and publish
       barriers, everyone's slots read only after the publish barrier *)
    pub_exp : int array;
    pub_pruned : int array;
    pub_ins : int array;
    pub_len : int array;
    pub_words : int array;
    pub_queue : int array;
    pub_inbox : int array;
    pub_next : int array;
    pub_spillw : int array;
  }

  let par_shards = 32

  let steal_chunk = 32

  let tag_of_reason = function
    | Solver.Max_states -> 0
    | Solver.Deadline -> 1
    | Solver.Max_words -> 2
    | Solver.Cancelled -> 3

  let reason_of_tag = function
    | 0 -> Solver.Max_states
    | 1 -> Solver.Deadline
    | 2 -> Solver.Max_words
    | _ -> Solver.Cancelled

  let set_stop sh r =
    ignore (Atomic.compare_and_set sh.stop_r (-1) (tag_of_reason r))

  (* keep the smallest goal gid so the choice among same-cost goals is
     reproducible for a fixed domain count *)
  let rec goal_min sh gid =
    let g = Atomic.get sh.goal_gid in
    if gid < g && not (Atomic.compare_and_set sh.goal_gid g gid) then
      goal_min sh gid

  let sum = Array.fold_left ( + ) 0

  let mk_pd jobs width id =
    {
      id;
      pend = Par.Ibuf.create ();
      inbox = Par.Ibuf.create ();
      next = Par.Ibuf.create ();
      cursor = Atomic.make 0;
      out0 = Array.init jobs (fun _ -> Par.Ibuf.create ());
      out1 = Array.init jobs (fun _ -> Par.Ibuf.create ());
      mv0 = Array.init jobs (fun _ -> Par.Ibuf.create ());
      mv1 = Array.init jobs (fun _ -> Par.Ibuf.create ());
      cur = Array.make width 0;
      scratch = Array.make width 0;
      level = 0;
      mode = Mwork;
      just_spilled = false;
      prune_on = false;
      prune_disabled = false;
      expansions = 0;
      pruned = 0;
      inserted = 0;
      spilled = 0;
      since_poll = 0;
      stop_seen = false;
      cur_gid = 0;
      dead = None;
      next_emit = max_int;
      next_prune = max_int;
      peak_frontier = 0;
    }

  (* Deadline / cancellation poll, every [check_every] settled states
     per domain.  Only timing-dependent budgets are polled here; state
     and word caps are decided at barriers so they stay deterministic. *)
  let poll sh pd =
    pd.since_poll <- pd.since_poll + 1;
    if pd.since_poll >= sh.p_budget.Solver.Budget.check_every then begin
      pd.since_poll <- 0;
      (if Atomic.get sh.stop_r < 0 then
         if Clock.now () > sh.p_deadline then set_stop sh Solver.Deadline
         else
           match sh.p_budget.Solver.Budget.cancelled with
           | Some f when f () -> set_stop sh Solver.Cancelled
           | _ -> ());
      pd.stop_seen <- Atomic.get sh.stop_r >= 0
    end

  (* Route the successor in [pd.scratch] to its owner's lane.  Records
     are [width] key ints, plus the producer gid when a strategy is
     wanted (the move rides in the parallel [mv] lane). *)
  let route sh pd m cost01 =
    let dest = Sh.owner sh.tbl pd.scratch mod sh.p_jobs in
    let lane, mv =
      if cost01 = 0 then (pd.out0.(dest), pd.mv0.(dest))
      else (pd.out1.(dest), pd.mv1.(dest))
    in
    for i = 0 to sh.p_width - 1 do
      Par.Ibuf.push lane (Array.unsafe_get pd.scratch i)
    done;
    if sh.p_want_strategy then begin
      Par.Ibuf.push lane pd.cur_gid;
      Par.Ibuf.push mv m
    end

  (* Drain one pend bucket — [victim]'s, which may be [pd] itself or a
     slower domain being helped.  Chunks are claimed off the victim's
     atomic cursor, so thieves and owner never double-process an entry.
     Settling writes the owner's shard value column in place: safe
     because nothing inserts (hence nothing resizes) during the work
     phase.  After a stop lands, remaining entries are left *tentative*
     (not settled), keeping them visible to the certified lower bound. *)
  let process sh pd emit victim =
    let pend = victim.pend in
    let n = Par.Ibuf.length pend in
    let continue = ref (not pd.stop_seen) in
    while !continue do
      let start = Atomic.fetch_and_add victim.cursor steal_chunk in
      if start >= n then continue := false
      else begin
        let fin = min n (start + steal_chunk) in
        let i = ref start in
        while !i < fin && not pd.stop_seen do
          let gid = Par.Ibuf.get pend !i in
          let s = Sh.shard_of_handle sh.tbl gid in
          let j = Sh.index_of_handle sh.tbl gid in
          let f = Sh.shard sh.tbl s in
          (* stale entries (settled via a cheaper same-level path)
             carry a foreign value and are skipped on that alone *)
          if T.value f j = pd.level then begin
            T.set_value f j (lnot pd.level);
            T.read_key f j pd.cur;
            if G.is_goal sh.p_inst pd.cur then goal_min sh gid
            else begin
              pd.expansions <- pd.expansions + 1;
              pd.cur_gid <- gid;
              G.expand sh.p_inst pd.cur ~scratch:pd.scratch ~emit
            end
          end;
          poll sh pd;
          incr i
        done;
        if pd.stop_seen then continue := false
      end
    done

  (* Insert one routed record into the shard that owns it (which this
     domain owns — the producer routed it here).  The mirror of the
     sequential [relax], minus the capacity refusals: the state cap is
     enforced at the decision barrier instead, so integration never
     drops successors and the parallel path needs no [lost_lb]. *)
  let insert sh pd ~cost ~cls pgid m =
    let key = pd.scratch in
    let s = Sh.owner sh.tbl key in
    let f = Sh.shard sh.tbl s in
    let j = T.find f key in
    if j >= 0 then begin
      let v = T.value f j in
      if v >= 0 && v > cost then begin
        (* discovered over a 1-cost edge last level, now reached by a
           0-cost path: re-file it into the current level *)
        T.set_value f j cost;
        if sh.p_want_strategy then begin
          Par.Ibuf.set sh.parents.(s) j pgid;
          Par.Ibuf.set sh.pmoves.(s) j m
        end;
        Par.Ibuf.push pd.inbox (Sh.handle sh.tbl ~shard:s j)
      end
    end
    else if pd.prune_on && cost + G.residual_lb sh.p_inst key > sh.p_ub then
      pd.pruned <- pd.pruned + 1
    else begin
      let j = T.add f key cost in
      pd.inserted <- pd.inserted + 1;
      if sh.p_want_strategy then begin
        Par.Ibuf.push sh.parents.(s) pgid;
        Par.Ibuf.push sh.pmoves.(s) m
      end;
      let gid = Sh.handle sh.tbl ~shard:s j in
      if cls = 0 then Par.Ibuf.push pd.inbox gid
      else Par.Ibuf.push pd.next gid
    end

  (* Owner side of the subround: drain every producer's lanes aimed at
     this domain.  All 0-cost records strictly before any 1-cost record
     — a state reachable at cost [d] must not be first-seen at [d+1] —
     and producers in index order, so dedup outcomes (and with them the
     aggregate counters) do not depend on work-phase timing. *)
  let integrate sh pd =
    let d = pd.level in
    let w = sh.p_width in
    let stride = w + if sh.p_want_strategy then 1 else 0 in
    for cls = 0 to 1 do
      let cost = d + cls in
      for p = 0 to sh.p_jobs - 1 do
        let prod = sh.doms.(p) in
        let lane = if cls = 0 then prod.out0.(pd.id) else prod.out1.(pd.id) in
        let mv = if cls = 0 then prod.mv0.(pd.id) else prod.mv1.(pd.id) in
        let nrec = Par.Ibuf.length lane / stride in
        for r = 0 to nrec - 1 do
          let base = r * stride in
          for i = 0 to w - 1 do
            pd.scratch.(i) <- Par.Ibuf.get lane (base + i)
          done;
          let pgid =
            if sh.p_want_strategy then Par.Ibuf.get lane (base + w) else -1
          in
          let m =
            if sh.p_want_strategy then Par.Ibuf.get mv r else 0
          in
          insert sh pd ~cost ~cls pgid m
        done
      done
    done

  let publish sh pd =
    let len = ref 0 and words = ref 0 in
    let s = ref pd.id in
    while !s < Sh.shards sh.tbl do
      let f = Sh.shard sh.tbl !s in
      len := !len + T.length f;
      words := !words + T.words f;
      s := !s + sh.p_jobs
    done;
    sh.pub_len.(pd.id) <- !len;
    sh.pub_words.(pd.id) <- !words;
    sh.pub_queue.(pd.id) <- Par.Ibuf.length pd.inbox + Par.Ibuf.length pd.next;
    sh.pub_inbox.(pd.id) <- Par.Ibuf.length pd.inbox;
    sh.pub_next.(pd.id) <- Par.Ibuf.length pd.next;
    sh.pub_exp.(pd.id) <- pd.expansions;
    sh.pub_pruned.(pd.id) <- pd.pruned;
    sh.pub_ins.(pd.id) <- pd.inserted;
    (* what the spill cap counts: the key and the distance of every
       evicted state *)
    sh.pub_spillw.(pd.id) <- (sh.p_width + 1) * pd.spilled

  let par_progress sh =
    let load = ref 0. in
    for s = 0 to Sh.shards sh.tbl - 1 do
      let l = T.load (Sh.shard sh.tbl s) in
      if l > !load then load := l
    done;
    {
      Solver.Telemetry.expansions = sum sh.pub_exp;
      (* +1: the seeded init state, inserted before the domains spawn *)
      explored = sum sh.pub_ins + 1;
      pruned = sum sh.pub_pruned;
      frontier = sum sh.pub_queue;
      depth = sh.doms.(0).level;
      table_load = !load;
      elapsed_s = Clock.elapsed_s sh.p_t0;
      (* the level-synchronized frontier depth is the settled 0-1
         distance, hence a certified lower bound *)
      lower = sh.doms.(0).level;
      upper = (if sh.p_ub < max_int then Some sh.p_ub else None);
    }

  (* The subround verdict.  Every domain evaluates this identically:
     the inputs are the published slots (stable since the publish
     barrier) and the stop/goal atomics (quiescent — they are only
     written during work phases, two barriers away on either side).
     Domain 0 additionally feeds telemetry here, where the aggregate
     counters exist. *)
  let decide sh pd =
    let b = sh.p_budget in
    let texp = sum sh.pub_exp and tpruned = sum sh.pub_pruned in
    (* distinct insertions (+ the seeded init state), not live table
       size — eviction to the spill tier must not reopen the cap *)
    let tins = sum sh.pub_ins + 1 in
    let tinbox = sum sh.pub_inbox and tnext = sum sh.pub_next in
    let tqueue = sum sh.pub_queue in
    let twords = sum sh.pub_words + tqueue in
    (* deterministic prune auto-off, mirrored on every domain *)
    if
      pd.prune_on && tpruned = 0
      && texp >= b.Solver.Budget.prune_off_after
    then begin
      pd.prune_on <- false;
      pd.prune_disabled <- true
    end;
    if pd.id = 0 then begin
      if tqueue > pd.peak_frontier then pd.peak_frontier <- tqueue;
      match sh.p_tele with
      | Some sink ->
          if tpruned >= pd.next_prune then begin
            sink.emit (Solver.Telemetry.Prune { pruned = tpruned });
            pd.next_prune <- 2 * tpruned
          end;
          if texp >= pd.next_emit then begin
            sink.emit (Solver.Telemetry.Progress (par_progress sh));
            pd.next_emit <- texp + sink.every
          end
      | None -> ()
    end;
    let goal = Atomic.get sh.goal_gid in
    let stop = Atomic.get sh.stop_r in
    if goal < max_int then Finish_goal goal
    else if stop >= 0 then Finish_stop (reason_of_tag stop)
    else if tins >= b.Solver.Budget.max_states then
      (* checked at the barrier, not per insert: the search can
         overshoot the cap by at most one subround, in exchange for a
         verdict that cannot depend on the domain count *)
      Finish_stop Solver.Max_states
    else if tinbox = 0 && tnext = 0 then Finish_exhausted
    else
      let over =
        match b.Solver.Budget.max_words with
        | Some mw -> twords > mw
        | None -> false
      in
      let spill_usable =
        sh.p_spill_on && not pd.just_spilled
        && (match b.Solver.Budget.spill_words with
           | Some cap -> sum sh.pub_spillw < cap
           | None -> false)
      in
      if over then
        if spill_usable then
          (* evicting mid-level would strand inbox gids; ride out the
             level first (the overshoot is one level's frontier) *)
          if tinbox = 0 then Spill else Subround
        else Finish_stop Solver.Max_words
      else if tinbox > 0 then Subround
      else Next_level

  let clear_lanes sh pd =
    for k = 0 to sh.p_jobs - 1 do
      Par.Ibuf.clear pd.out0.(k);
      Par.Ibuf.clear pd.out1.(k);
      Par.Ibuf.clear pd.mv0.(k);
      Par.Ibuf.clear pd.mv1.(k)
    done

  (* Each domain applies a non-terminal verdict to its own structures;
     the barrier after this keeps thieves off the fresh [pend]. *)
  let apply sh pd = function
    | Subround ->
        Par.Ibuf.clear pd.pend;
        Par.Ibuf.swap pd.pend pd.inbox;
        Atomic.set pd.cursor 0;
        clear_lanes sh pd
    | Next_level ->
        pd.level <- pd.level + 1;
        pd.just_spilled <- false;
        Par.Ibuf.clear pd.pend;
        Par.Ibuf.swap pd.pend pd.next;
        Atomic.set pd.cursor 0;
        clear_lanes sh pd
    | Spill ->
        pd.mode <- Mspill;
        pd.just_spilled <- true;
        clear_lanes sh pd
    | Finish_goal _ | Finish_stop _ | Finish_exhausted -> assert false

  (* Spill work phase, at a level boundary: drop the settled states of
     every owned shard from memory, rebuild each shard around its
     surviving tentative entries, and rewrite [next] against the
     compacted indices (stale gids — settled this level — drop out).
     Sound because an evicted state is settled *and expanded*: its
     successors were already relaxed, so re-reaching it later can only
     waste work, never shorten a distance; and the certified lower
     bound takes a min over tentative entries, which re-inserted copies
     (at no-smaller values) cannot raise. *)
  let spill_phase sh pd =
    let nshards = Sh.shards sh.tbl in
    let maps = Array.make nshards [||] in
    let s = ref pd.id in
    while !s < nshards do
      let f = Sh.shard sh.tbl !s in
      let n = T.length f in
      let map = Array.make n (-1) in
      (* size the rebuilt shard to its survivors, so compaction
         actually shrinks RAM instead of keeping the grown arrays *)
      let surv = ref 0 in
      for j = 0 to n - 1 do
        if T.value f j >= 0 then incr surv
      done;
      let nf = T.create ~capacity:!surv ~width:sh.p_width () in
      for j = 0 to n - 1 do
        let v = T.value f j in
        if v >= 0 then begin
          T.read_key f j pd.scratch;
          map.(j) <- T.add nf pd.scratch v
        end
        else pd.spilled <- pd.spilled + 1
      done;
      Sh.replace_shard sh.tbl !s nf;
      maps.(!s) <- map;
      s := !s + sh.p_jobs
    done;
    let len = Par.Ibuf.length pd.next in
    let k = ref 0 in
    for i = 0 to len - 1 do
      let gid = Par.Ibuf.get pd.next i in
      let s = Sh.shard_of_handle sh.tbl gid in
      let j = Sh.index_of_handle sh.tbl gid in
      let nj = maps.(s).(j) in
      if nj >= 0 then begin
        Par.Ibuf.set pd.next !k (Sh.handle sh.tbl ~shard:s nj);
        incr k
      end
    done;
    Par.Ibuf.truncate pd.next !k

  (* One domain's whole life: the three-phase subround loop.  A phase
     that raises marks the domain dead and flags a stop, but the domain
     keeps arriving at barriers so the others can wind down instead of
     deadlocking; the stored exception is re-raised after the join. *)
  let domain_loop sh pd =
    let emit m cost01 = route sh pd m cost01 in
    let result = ref None in
    while !result = None do
      (try
         if pd.dead = None then
           match pd.mode with
           | Mwork ->
               process sh pd emit pd;
               for off = 1 to sh.p_jobs - 1 do
                 process sh pd emit sh.doms.((pd.id + off) mod sh.p_jobs)
               done
           | Mspill ->
               spill_phase sh pd;
               pd.mode <- Mwork
       with e ->
         pd.dead <- Some e;
         set_stop sh Solver.Cancelled);
      Par.Barrier.await sh.bar;
      (try if pd.dead = None then integrate sh pd
       with e ->
         pd.dead <- Some e;
         set_stop sh Solver.Cancelled);
      publish sh pd;
      Par.Barrier.await sh.bar;
      (match decide sh pd with
      | (Finish_goal _ | Finish_stop _ | Finish_exhausted) as d ->
          result := Some d
      | d -> (
          try apply sh pd d
          with e ->
            pd.dead <- Some e;
            set_stop sh Solver.Cancelled));
      Par.Barrier.await sh.bar
    done;
    match !result with Some d -> d | None -> assert false

  (* Certified lower bound at truncation, parallel flavour: every exit
     from the ever-settled region (in RAM or spilled) is a tentative
     table entry, so min over tentative entries of
     (value + admissible residual) bounds OPT from below — see
     [frontier_lower_bound] for the sequential argument and the spill
     note above for why eviction keeps it sound. *)
  let par_lower sh buf =
    let best = ref max_int in
    for s = 0 to Sh.shards sh.tbl - 1 do
      let f = Sh.shard sh.tbl s in
      for j = 0 to T.length f - 1 do
        let v = T.value f j in
        if v >= 0 && v < !best then begin
          T.read_key f j buf;
          let c = v + G.residual_lb sh.p_inst buf in
          if c < !best then best := c
        end
      done
    done;
    if !best < max_int then !best else sh.doms.(0).level

  let solve_par ~budget ~telemetry ~want_strategy ~incumbent ~jobs inst =
    let w = G.width inst in
    let t0 = Clock.now () in
    let jobs = max 1 (min jobs par_shards) in
    (* spilling compacts dense indices, which would orphan the parent
       gids strategy reconstruction walks; a strategy solve keeps the
       plain Max_words stop instead *)
    let spill_on =
      (not want_strategy) && budget.Solver.Budget.spill_words <> None
    in
    let tbl = Sh.create ~shards:par_shards ~width:w () in
    let nshards = Sh.shards tbl in
    let ub = match incumbent with Some (c, _) -> c | None -> max_int in
    let doms = Array.init jobs (mk_pd jobs w) in
    let sh =
      {
        p_inst = inst;
        p_budget = budget;
        p_tele = telemetry;
        p_want_strategy = want_strategy;
        p_spill_on = spill_on;
        p_ub = ub;
        p_t0 = t0;
        p_deadline =
          (match budget.Solver.Budget.max_millis with
          | Some ms -> t0 +. (float_of_int ms /. 1000.)
          | None -> infinity);
        p_jobs = jobs;
        p_width = w;
        tbl;
        doms;
        bar = Par.Barrier.create jobs;
        stop_r = Atomic.make (-1);
        goal_gid = Atomic.make max_int;
        parents = Array.init nshards (fun _ -> Par.Ibuf.create ());
        pmoves = Array.init nshards (fun _ -> Par.Ibuf.create ());
        pub_exp = Array.make jobs 0;
        pub_pruned = Array.make jobs 0;
        pub_ins = Array.make jobs 0;
        pub_len = Array.make jobs 0;
        pub_words = Array.make jobs 0;
        pub_queue = Array.make jobs 0;
        pub_inbox = Array.make jobs 0;
        pub_next = Array.make jobs 0;
        pub_spillw = Array.make jobs 0;
      }
    in
    Array.iter
      (fun pd ->
        pd.prune_on <- ub < max_int;
        if pd.id = 0 then begin
          pd.next_prune <- 1;
          pd.next_emit <-
            (match telemetry with Some s -> s.Solver.Telemetry.every | None -> max_int)
        end)
      doms;
    (match telemetry with
    | Some sink ->
        sink.emit
          (Solver.Telemetry.Start
             { width = w; max_states = budget.Solver.Budget.max_states })
    | None -> ());
    (* seed the initial state into its owner shard, pre-spawn *)
    let buf = Array.make w 0 in
    G.write_init inst buf;
    let s0 = Sh.owner tbl buf in
    let j0 = T.add (Sh.shard tbl s0) buf 0 in
    if want_strategy then begin
      Par.Ibuf.push sh.parents.(s0) (-1);
      Par.Ibuf.push sh.pmoves.(s0) 0
    end;
    Par.Ibuf.push doms.(s0 mod jobs).pend (Sh.handle tbl ~shard:s0 j0);
    let workers =
      Array.init (jobs - 1) (fun i ->
          Domain.spawn (fun () -> domain_loop sh doms.(i + 1)))
    in
    let dec0 = domain_loop sh doms.(0) in
    Array.iter (fun d -> ignore (Domain.join d)) workers;
    Array.iter
      (fun pd -> match pd.dead with Some e -> raise e | None -> ())
      doms;
    let count f = Array.fold_left (fun acc pd -> acc + f pd) 0 doms in
    let frontier =
      count (fun pd ->
          Par.Ibuf.length pd.inbox
          + Par.Ibuf.length pd.next
          + max 0 (Par.Ibuf.length pd.pend - Atomic.get pd.cursor))
    in
    let mem_words =
      let lanes = ref 0 in
      Array.iter
        (fun pd ->
          lanes :=
            !lanes + Par.Ibuf.words pd.pend + Par.Ibuf.words pd.inbox
            + Par.Ibuf.words pd.next;
          for k = 0 to jobs - 1 do
            lanes := !lanes + Par.Ibuf.words pd.out0.(k) + Par.Ibuf.words pd.out1.(k)
          done)
        doms;
      Array.iter (fun p -> lanes := !lanes + Par.Ibuf.words p) sh.parents;
      Sh.words tbl + !lanes
    in
    let stats =
      {
        (* distinct insertions including the seed — the live shard
           sizes would under-count after spill eviction *)
        Solver.explored = 1 + count (fun pd -> pd.inserted);
        pruned = count (fun pd -> pd.pruned);
        expansions = count (fun pd -> pd.expansions);
        frontier;
        elapsed_s = Clock.elapsed_s t0;
        mem_words;
        prune_disabled = doms.(0).prune_disabled;
        spilled = count (fun pd -> pd.spilled);
      }
    in
    let ending =
      match dec0 with
      | Finish_goal gid ->
          let strategy =
            if not want_strategy then None
            else begin
              let acc = ref [] in
              let g = ref gid in
              let continue = ref true in
              while !continue do
                let s = Sh.shard_of_handle tbl !g in
                let j = Sh.index_of_handle tbl !g in
                let pg = Par.Ibuf.get sh.parents.(s) j in
                if pg < 0 then continue := false
                else begin
                  acc := G.decode inst (Par.Ibuf.get sh.pmoves.(s) j) :: !acc;
                  g := pg
                end
              done;
              Some !acc
            end
          in
          Goal (doms.(0).level, strategy)
      | Finish_exhausted -> Exhausted
      | Finish_stop stopped -> Stopped (stopped, par_lower sh buf)
      | Subround | Next_level | Spill -> assert false
    in
    let resizes = ref 0 in
    for s = 0 to nshards - 1 do
      resizes := !resizes + T.resizes (Sh.shard tbl s)
    done;
    finish ~telemetry ~want_strategy ~incumbent ~t0
      ~progress:(fun () -> par_progress sh)
      ~stats ~resizes:!resizes ~peak_frontier:doms.(0).peak_frontier
      ~domains:(Array.map (fun pd -> (pd.expansions, pd.pruned, pd.spilled)) doms)
      ending

  (* Every solve runs inside a "solve.<game>" span (a no-op branch
     when tracing is off); [finish] annotates it with the outcome and
     search counters.  The incumbent is computed before the span and
     the solve's clock start, as a separate step of the request.
     [jobs <= 1] without a spill tier keeps the sequential engine — its
     pop order (depth-first along 0-cost chains) is the low-overhead
     default; [jobs >= 2], or a spill request, routes to the
     level-synchronized parallel path. *)
  let solve ?(budget = Solver.Budget.default) ?telemetry
      ?(want_strategy = false) ?(prune = true) ?(jobs = 1) inst =
    let jobs = max 1 jobs in
    let spill_requested =
      budget.Solver.Budget.spill_words <> None && not want_strategy
    in
    let incumbent = if prune then G.incumbent inst else None in
    let go () =
      if jobs <= 1 && not spill_requested then
        solve_raw ~budget ~telemetry ~want_strategy ~incumbent inst
      else solve_par ~budget ~telemetry ~want_strategy ~incumbent ~jobs inst
    in
    if not (Span.enabled ()) then go ()
    else
      Span.with_ ~name:("solve." ^ G.name)
        ~attrs:[ ("game", G.name); ("width", string_of_int (G.width inst)) ]
        go
end
