module Dag = Prbp_dag.Dag
module Bitset = Prbp_dag.Bitset
module Topo = Prbp_dag.Topo
module RM = Prbp_pebble.Move.R
module PM = Prbp_pebble.Move.P
module Rbp = Prbp_pebble.Rbp
module Prbp = Prbp_pebble.Prbp

let infinity_pos = max_int

type policy = Belady | Lru | Fifo

(* Per-policy victim score: larger = evicted first.  [stamp] carries
   the recency (LRU) or insertion (FIFO) clock. *)
let policy_score policy ~next_use ~stamp =
  match policy with
  | Belady -> next_use
  | Lru -> -stamp
  | Fifo -> -stamp

(* Next-use oracle: node u is "used" at the topological position of
   each of its successors.  [next_use u ~time] is the first use at or
   after [time]; pointers advance monotonically, so a full pebbling
   pass costs O(m) amortized. *)
type uses = { positions : int array array; ptr : int array }

let build_uses g order =
  let n = Dag.n_nodes g in
  let pos = Array.make n 0 in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  let lists = Array.make n [] in
  Dag.iter_edges (fun _ u v -> lists.(u) <- pos.(v) :: lists.(u)) g;
  {
    positions =
      Array.map (fun l -> Array.of_list (List.sort compare l)) lists;
    ptr = Array.make n 0;
  }

let next_use uses u ~time =
  let a = uses.positions.(u) in
  let i = ref uses.ptr.(u) in
  while !i < Array.length a && a.(!i) < time do
    incr i
  done;
  uses.ptr.(u) <- !i;
  if !i < Array.length a then a.(!i) else infinity_pos

(* Pick the eviction victim among the red, unpinned nodes: farthest
   next use first; among equals, prefer one whose eviction is free.
   Every key ends in [-v], so remaining ties break deterministically
   toward the lowest node id, independent of iteration order. *)
let pick_victim ~iter_red ~pinned ~key =
  let best = ref None in
  iter_red (fun v ->
      if not (Bitset.mem pinned v) then
        let k = key v in
        match !best with
        | Some (_, bk) when compare k bk <= 0 -> ()
        | _ -> best := Some (v, k));
  match !best with
  | Some (v, _) -> v
  | None -> failwith "Heuristic: no evictable pebble (r too small?)"

let resolve_order g = function
  | None -> Topo.sort g
  | Some o ->
      if Topo.is_order g o then o
      else invalid_arg "Heuristic: ~order is not a topological order"

let rbp ?(policy = Belady) ?order ~r g =
  if r < Dag.max_in_degree g + 1 then
    invalid_arg "Heuristic.rbp: requires r >= max in-degree + 1";
  let order = resolve_order g order in
  let uses = build_uses g order in
  let stamp = Array.make (Dag.n_nodes g) 0 in
  let clock = ref 0 in
  let touch ~insert v =
    incr clock;
    if policy = Lru || (policy = Fifo && insert) then stamp.(v) <- !clock
  in
  let eng = Rbp.start (Rbp.config ~r ()) g in
  let moves = ref [] in
  let emit m =
    (match Rbp.apply eng m with
    | Ok () -> ()
    | Error e -> failwith ("Heuristic.rbp: internal: " ^ e));
    moves := m :: !moves
  in
  let red = Bitset.create (Dag.n_nodes g) in
  let time = ref 0 in
  let evict pinned =
    let key v =
      let nu = next_use uses v ~time:!time in
      (* primary score per policy; prefer free evictions (already blue
         or never used again) on ties; then lowest node id *)
      ( policy_score policy ~next_use:nu ~stamp:stamp.(v),
        (if Rbp.has_blue eng v || nu = infinity_pos then 1 else 0),
        -v )
    in
    let w = pick_victim ~iter_red:(fun f -> Bitset.iter f red) ~pinned ~key in
    if
      (not (Rbp.has_blue eng w))
      && next_use uses w ~time:!time <> infinity_pos
    then emit (RM.Save w);
    emit (RM.Delete w);
    Bitset.remove red w
  in
  let ensure_space pinned =
    while Rbp.red_count eng >= r do
      evict pinned
    done
  in
  Array.iter
    (fun v ->
      if not (Dag.is_source g v) then begin
        let pinned = Bitset.create (Dag.n_nodes g) in
        Dag.iter_pred (fun u -> Bitset.add pinned u) g v;
        Bitset.add pinned v;
        Dag.iter_pred
          (fun u ->
            if not (Bitset.mem red u) then begin
              ensure_space pinned;
              emit (RM.Load u);
              Bitset.add red u;
              touch ~insert:true u
            end
            else touch ~insert:false u)
          g v;
        ensure_space pinned;
        emit (RM.Compute v);
        Bitset.add red v;
        touch ~insert:true v;
        if Dag.is_sink g v then emit (RM.Save v)
      end;
      incr time)
    order;
  List.rev !moves

let prbp ?(policy = Belady) ?order ?(defer_saves = false) ~r g =
  if r < 2 then invalid_arg "Heuristic.prbp: requires r >= 2";
  let order = resolve_order g order in
  let uses = build_uses g order in
  let stamp = Array.make (Dag.n_nodes g) 0 in
  let clock = ref 0 in
  let touch ~insert v =
    incr clock;
    if policy = Lru || (policy = Fifo && insert) then stamp.(v) <- !clock
  in
  let eng = Prbp.start (Prbp.config ~r ()) g in
  let moves = ref [] in
  let emit m =
    (match Prbp.apply eng m with
    | Ok () -> ()
    | Error e -> failwith ("Heuristic.prbp: internal: " ^ e));
    moves := m :: !moves
  in
  let red = Bitset.create (Dag.n_nodes g) in
  let time = ref 0 in
  let evict pinned =
    let key v =
      let nu = next_use uses v ~time:!time in
      let free =
        match Prbp.pebble eng v with
        | Prbp.Pebble.Blue_light -> true
        | Prbp.Pebble.Dark -> nu = infinity_pos
        | Prbp.Pebble.Blue | Prbp.Pebble.None_ -> true
      in
      let free_flag = if free then 1 else 0 in
      let score = policy_score policy ~next_use:nu ~stamp:stamp.(v) in
      (* [defer_saves] flips the priority: evict whatever is free to
         evict before paying a save for a partially-aggregated dark
         value, even at a nearer next use — the save-vs-keep-partial
         axis the upper-bound portfolio explores.  Ties end at the
         lowest node id either way. *)
      if defer_saves then (free_flag, score, -v) else (score, free_flag, -v)
    in
    let w = pick_victim ~iter_red:(fun f -> Bitset.iter f red) ~pinned ~key in
    (* a dark value not yet fully consumed must be saved before the
       light red can be deleted; a fully-consumed one goes for free *)
    (match Prbp.pebble eng w with
    | Prbp.Pebble.Dark ->
        let fully_used =
          Dag.fold_succ
            (fun s acc ->
              acc
              && Prbp.is_marked eng (Dag.edge_id g w s))
            g w true
        in
        if not fully_used then emit (PM.Save w)
    | Prbp.Pebble.Blue_light | Prbp.Pebble.Blue | Prbp.Pebble.None_ -> ());
    emit (PM.Delete w);
    Bitset.remove red w
  in
  let ensure_space pinned =
    while Prbp.red_count eng >= r do
      evict pinned
    done
  in
  Array.iter
    (fun v ->
      if not (Dag.is_source g v) then begin
        let first = ref true in
        Dag.iter_pred
          (fun u ->
            let pinned = Bitset.create (Dag.n_nodes g) in
            Bitset.add pinned u;
            Bitset.add pinned v;
            if not (Bitset.mem red u) then begin
              ensure_space pinned;
              emit (PM.Load u);
              Bitset.add red u;
              touch ~insert:true u
            end
            else touch ~insert:false u;
            if !first then begin
              (* v's dark pebble occupies a fresh slot *)
              ensure_space pinned;
              first := false
            end;
            emit (PM.Compute (u, v));
            if not (Bitset.mem red v) then touch ~insert:true v
            else touch ~insert:false v;
            Bitset.add red v)
          g v;
        if Dag.is_sink g v then emit (PM.Save v)
      end;
      incr time)
    order;
  List.rev !moves

let rbp_cost ?policy ~r g =
  match Rbp.check (Rbp.config ~r ()) g (rbp ?policy ~r g) with
  | Ok c -> c
  | Error e -> failwith ("Heuristic.rbp_cost: " ^ e)

let prbp_cost ?policy ~r g =
  match Prbp.check (Prbp.config ~r ()) g (prbp ?policy ~r g) with
  | Ok c -> c
  | Error e -> failwith ("Heuristic.prbp_cost: " ^ e)

(* ------------------------------------------------------------------ *)
(* Greedy edge scheduler: exploits the partial-computation freedom by
   always marking the cheapest currently-markable edge.               *)

let prbp_greedy ~r g =
  if r < 2 then invalid_arg "Heuristic.prbp_greedy: requires r >= 2";
  let n = Dag.n_nodes g and m = Dag.n_edges g in
  let eng = Prbp.start (Prbp.config ~r ()) g in
  let moves = ref [] in
  let emit mv =
    (match Prbp.apply eng mv with
    | Ok () -> ()
    | Error e -> failwith ("Heuristic.prbp_greedy: internal: " ^ e));
    moves := mv :: !moves
  in
  let un_out = Array.init n (Dag.out_degree g) in
  (* remaining interactions of a value: unmarked out-edges, plus
     unmarked in-edges for values still being accumulated *)
  let remaining v = un_out.(v) + Prbp.unmarked_in eng v in
  let is_red v = Prbp.Pebble.is_red (Prbp.pebble eng v) in
  let evict ~pinned =
    let best = ref None in
    for v = 0 to n - 1 do
      if is_red v && not (List.mem v pinned) then begin
        let free =
          match Prbp.pebble eng v with
          | Prbp.Pebble.Blue_light -> true
          | Prbp.Pebble.Dark -> remaining v = 0
          | Prbp.Pebble.Blue | Prbp.Pebble.None_ -> true
        in
        (* evict free, no-longer-needed values first; then the value
           with the fewest... largest remaining counts are the ones to
           keep resident, so evict the smallest-remaining loser among
           costly ones, preferring free among equals *)
        (* free, never-needed-again values go first; then free cached
           copies; costly (dark) values last; among equals evict the
           value with the fewest remaining interactions *)
        let key =
          ( (if free && remaining v = 0 then 2 else if free then 1 else 0),
            -(remaining v),
            -v )
        in
        match !best with
        | Some (_, bk) when compare key bk <= 0 -> ()
        | _ -> best := Some (v, key)
      end
    done;
    match !best with
    | None -> failwith "Heuristic.prbp_greedy: nothing evictable"
    | Some (v, _) ->
        (match Prbp.pebble eng v with
        | Prbp.Pebble.Dark when remaining v > 0 -> emit (PM.Save v)
        | _ -> ());
        emit (PM.Delete v)
  in
  let ensure_space ~pinned =
    while Prbp.red_count eng >= r do
      evict ~pinned
    done
  in
  let make_red ~pinned v =
    match Prbp.pebble eng v with
    | Prbp.Pebble.Blue ->
        ensure_space ~pinned;
        emit (PM.Load v)
    | Prbp.Pebble.Blue_light | Prbp.Pebble.Dark -> ()
    | Prbp.Pebble.None_ -> failwith "Heuristic.prbp_greedy: value lost"
  in
  let marked_total = ref 0 in
  while !marked_total < m do
    (* choose the cheapest markable edge *)
    let best = ref None in
    Dag.iter_edges
      (fun e u v ->
        if (not (Prbp.is_marked eng e)) && Prbp.fully_computed eng u then begin
          let cost_u = if is_red u then 0 else 1 in
          let cost_v =
            match Prbp.pebble eng v with
            | Prbp.Pebble.Blue -> 1
            | _ -> 0
          in
          (* prefer cheap edges; among those, consume into already-red
             targets before opening a fresh cache slot (so completed
             values cascade out before new partials pile up); then
             targets closest to completion *)
          let slot =
            match Prbp.pebble eng v with Prbp.Pebble.None_ -> 1 | _ -> 0
          in
          let key = (cost_u + cost_v, slot, Prbp.unmarked_in eng v, v) in
          match !best with
          | Some (_, _, _, bk) when compare bk key <= 0 -> ()
          | _ -> best := Some (e, u, v, key)
        end)
      g;
    match !best with
    | None -> failwith "Heuristic.prbp_greedy: no markable edge"
    | Some (_e, u, v, _) ->
        make_red ~pinned:[ u; v ] u;
        (match Prbp.pebble eng v with
        | Prbp.Pebble.Blue ->
            ensure_space ~pinned:[ u; v ];
            emit (PM.Load v)
        | Prbp.Pebble.None_ -> ensure_space ~pinned:[ u; v ]
        | Prbp.Pebble.Blue_light | Prbp.Pebble.Dark -> ());
        emit (PM.Compute (u, v));
        incr marked_total;
        un_out.(u) <- un_out.(u) - 1;
        (* save completed sinks immediately; free fully-used values *)
        if Prbp.unmarked_in eng v = 0 && Dag.is_sink g v then begin
          emit (PM.Save v);
          emit (PM.Delete v)
        end;
        if remaining u = 0 && is_red u then emit (PM.Delete u)
  done;
  List.rev !moves

let prbp_greedy_cost ~r g =
  match Prbp.check (Prbp.config ~r ()) g (prbp_greedy ~r g) with
  | Ok c -> c
  | Error e -> failwith ("Heuristic.prbp_greedy_cost: " ^ e)

let prbp_best ~r g =
  let a = prbp ~r g and b = prbp_greedy ~r g in
  let cost mv =
    match Prbp.check (Prbp.config ~r ()) g mv with
    | Ok c -> c
    | Error e -> failwith ("Heuristic.prbp_best: " ^ e)
  in
  if cost a <= cost b then a else b

let prbp_best_cost ~r g =
  match Prbp.check (Prbp.config ~r ()) g (prbp_best ~r g) with
  | Ok c -> c
  | Error e -> failwith ("Heuristic.prbp_best_cost: " ^ e)

(* ------------------------------------------------------------------ *)
(* Branch-and-bound incumbents for the exact engine: a strategy and its
   I/O count, or [None] where the pebbler cannot run (e.g. r < Δin + 1
   for RBP, r < 2 for PRBP). *)

let incumbent is_io pebbler =
  match pebbler () with
  | moves -> Some (List.length (List.filter is_io moves), moves)
  | exception _ -> None

let rbp_incumbent ~r g = incumbent RM.is_io (fun () -> rbp ~r g)

let prbp_incumbent ~r g =
  match
    ( incumbent PM.is_io (fun () -> prbp ~r g),
      incumbent PM.is_io (fun () -> prbp_greedy ~r g) )
  with
  | None, s | s, None -> s
  | (Some (ca, _) as a), (Some (cb, _) as b) -> if ca <= cb then a else b
