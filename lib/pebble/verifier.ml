module Dag = Prbp_dag.Dag

(* Node and edge-id sets.  Persistent, so [step] returns a new state and
   leaves its argument valid: a caller can probe every candidate move
   from one state without copying it. *)
module S = Set.Make (Int)

(* A red pebble belongs to one processor: processor [q]'s pebble on node
   [v] is the key [q·n + v].  The red pebbles of the one-processor game
   are therefore the nodes themselves, and processor [q]'s pebbles are
   the keys in [q·n, (q+1)·n). *)
let key ~n q v = (q * n) + v

(* How many of the keys in [s] are processor [q]'s pebbles.  When every
   pebble sits on processor 0 (always in the one-processor game, and in
   a lifted strategy) this is one [S.cardinal]. *)
let count_on ~n q s =
  if S.is_empty s || S.max_elt s < n then if q = 0 then S.cardinal s else 0
  else
    S.to_seq_from (q * n) s
    |> Seq.take_while (fun k -> k < (q + 1) * n)
    |> Seq.length

module R = struct
  type state = {
    red : S.t;
    blue : S.t;
    computed : S.t;
    io : int;
  }

  let initial g =
    { red = S.empty; blue = S.of_list (Dag.sources g); computed = S.empty; io = 0 }

  let step ~r ?(p = 1) ?(q = 0) g st (m : Move.R.t) =
    let n = Dag.n_nodes g in
    match m with
    | Move.R.(Load v | Save v | Compute v | Delete v) when not (Dag.is_node g v)
      ->
        Error "no such node"
    | _ when q < 0 || q >= p -> Error "no such processor"
    | Move.R.Load v ->
        (* "place a red pebble on any node v that has a blue pebble" —
           in processor q's fast memory *)
        if not (S.mem v st.blue) then Error "load: no blue pebble"
        else if S.mem (key ~n q v) st.red then
          (* legal but a pure waste: state unchanged, cost paid *)
          Ok { st with io = st.io + 1 }
        else if count_on ~n q st.red >= r then Error "load: capacity"
        else Ok { st with red = S.add (key ~n q v) st.red; io = st.io + 1 }
    | Move.R.Save v ->
        (* "place a blue pebble on any node v that has a red pebble";
           slow memory is shared *)
        if not (S.mem (key ~n q v) st.red) then Error "save: no red pebble"
        else Ok { st with blue = S.add v st.blue; io = st.io + 1 }
    | Move.R.Compute v ->
        (* "if all the inputs of a non-source node v have a red pebble,
           then also place a red pebble on v" — all on processor q, and
           once per node over all processors *)
        if Dag.is_source g v then Error "compute: source"
        else if S.mem v st.computed then Error "compute: one-shot"
        else if
          not (List.for_all (fun u -> S.mem (key ~n q u) st.red) (Dag.preds g v))
        then Error "compute: inputs not red"
        else if S.mem (key ~n q v) st.red then
          Ok { st with computed = S.add v st.computed }
        else if count_on ~n q st.red >= r then Error "compute: capacity"
        else
          Ok
            {
              st with
              red = S.add (key ~n q v) st.red;
              computed = S.add v st.computed;
            }
    | Move.R.Delete v ->
        (* "remove a red pebble from any node" *)
        if not (S.mem (key ~n q v) st.red) then Error "delete: no red pebble"
        else Ok { st with red = S.remove (key ~n q v) st.red }
    | Move.R.Slide _ -> Error "slide: not part of the base game"

  let is_terminal g st = List.for_all (fun v -> S.mem v st.blue) (Dag.sinks g)

  let run ~r g moves =
    List.fold_left
      (fun acc m -> Result.bind acc (fun st -> step ~r g st m))
      (Ok (initial g))
      moves

  let check ~r g moves =
    match run ~r g moves with
    | Error e -> Error e
    | Ok st ->
        if is_terminal g st then Ok st.io
        else Error "incomplete pebbling: some sink has no blue pebble"
end

module P = struct
  (* Node [v] as processor [q] sees it.  [Dark_elsewhere]: another
     processor holds v's partial value, which only a multiprocessor
     game can show. *)
  type pebble =
    | No_pebble
    | Blue_only
    | Blue_and_light
    | Dark_only
    | Dark_elsewhere

  type state = {
    blue : S.t;
    light : S.t;
    dark : S.t;
    marked : S.t;
    io : int;
  }

  (* A light red pebble only ever sits beside a blue one; a dark red
     one never does, and at most one processor holds a node's dark
     pebble.  So the three sets spell out one of these states per node
     as each processor sees it. *)
  let rec dark_from ~p ~n st v q =
    q < p && (S.mem (key ~n q v) st.dark || dark_from ~p ~n st v (q + 1))

  let pebble_of ~p ~n st q v =
    if S.mem (key ~n q v) st.dark then Dark_only
    else if S.mem (key ~n q v) st.light then Blue_and_light
    else if S.mem v st.blue then Blue_only
    else if dark_from ~p ~n st v 0 then Dark_elsewhere
    else No_pebble

  let put b k s = if b then S.add k s else S.remove k s

  (* [s] without the keys of node [v] on processors [q..p-1], but
     [keep]'s *)
  let rec drop_copies ~p ~n ~keep v q s =
    if q >= p then s
    else
      drop_copies ~p ~n ~keep v (q + 1)
        (if q = keep then s else S.remove (key ~n q v) s)

  (* Give node [v] the pebble state [pb] on processor [q].  A new dark
     pebble is a new partial value: every other processor's light copy
     of [v] is stale and goes too. *)
  let set ~p ~n st q v pb =
    let light = put (pb = Blue_and_light) (key ~n q v) st.light in
    {
      st with
      blue = put (pb = Blue_only || pb = Blue_and_light) v st.blue;
      light =
        (if pb = Dark_only then drop_copies ~p ~n ~keep:q v 0 light else light);
      dark = put (pb = Dark_only) (key ~n q v) st.dark;
    }

  let red_count ~n st q = count_on ~n q st.light + count_on ~n q st.dark

  let initial g =
    {
      blue = S.of_list (Dag.sources g);
      light = S.empty;
      dark = S.empty;
      marked = S.empty;
      io = 0;
    }

  let is_marked g st u v = S.mem (Dag.edge_id g u v) st.marked

  let fully_computed g st u =
    List.for_all (fun p -> is_marked g st p u) (Dag.preds g u)

  let all_out_marked g st v =
    List.for_all (fun w -> is_marked g st v w) (Dag.succs g v)

  let step ~r ?(p = 1) ?(q = 0) g st (m : Move.P.t) =
    let n = Dag.n_nodes g in
    match m with
    | Move.P.(Load v | Save v | Delete v) when not (Dag.is_node g v) ->
        Error "no such node"
    | Move.P.Compute (u, v) when not (Dag.is_node g u && Dag.is_node g v) ->
        Error "compute: no such edge"
    | _ when q < 0 || q >= p -> Error "no such processor"
    | Move.P.Load v -> (
        (* "place a light red pebble on any node v that has a blue
           pebble" — in processor q's fast memory *)
        match pebble_of ~p ~n st q v with
        | Blue_only ->
            if red_count ~n st q >= r then Error "load: capacity"
            else Ok { (set ~p ~n st q v Blue_and_light) with io = st.io + 1 }
        | Blue_and_light -> Ok { st with io = st.io + 1 }
        | No_pebble | Dark_only | Dark_elsewhere -> Error "load: no blue pebble")
    | Move.P.Save v -> (
        (* "replace a dark red pebble ... by a blue and a light red" *)
        match pebble_of ~p ~n st q v with
        | Dark_only ->
            Ok { (set ~p ~n st q v Blue_and_light) with io = st.io + 1 }
        | _ -> Error "save: no dark red pebble")
    | Move.P.Compute (u, v) -> (
        (* conditions (i)-(iii) of the partial compute rule, plus the
           one-shot restriction on edges; a partial value lives on one
           processor, so another processor's dark pebble blocks [v] *)
        match Dag.edge_id g u v with
        | exception Not_found -> Error "compute: no such edge"
        | e ->
            if S.mem e st.marked then Error "compute: edge marked"
            else if not (fully_computed g st u) then
              Error "compute: input not fully computed"
            else if
              not
                (match pebble_of ~p ~n st q u with
                | Blue_and_light | Dark_only -> true
                | _ -> false)
            then Error "compute: input not red"
            else begin
              match pebble_of ~p ~n st q v with
              | Blue_only -> Error "compute: target has only a blue pebble"
              | Dark_elsewhere ->
                  Error "compute: target is dark red on another processor"
              | No_pebble when red_count ~n st q >= r ->
                  Error "compute: capacity"
              | No_pebble | Blue_and_light | Dark_only ->
                  Ok
                    {
                      (set ~p ~n st q v Dark_only) with
                      marked = S.add e st.marked;
                    }
            end)
    | Move.P.Delete v -> (
        (* light red always removable; dark red only once every output
           edge is marked *)
        match pebble_of ~p ~n st q v with
        | Blue_and_light -> Ok (set ~p ~n st q v Blue_only)
        | Dark_only ->
            if all_out_marked g st v then Ok (set ~p ~n st q v No_pebble)
            else Error "delete: dark red with unmarked out-edges"
        | _ -> Error "delete: no red pebble")
    | Move.P.Clear _ -> Error "clear: not part of the base game"

  let is_terminal g st =
    S.cardinal st.marked = Dag.n_edges g
    && List.for_all (fun v -> S.mem v st.blue) (Dag.sinks g)

  let run ~r g moves =
    List.fold_left
      (fun acc m -> Result.bind acc (fun st -> step ~r g st m))
      (Ok (initial g))
      moves

  let check ~r g moves =
    match run ~r g moves with
    | Error e -> Error e
    | Ok st ->
        if is_terminal g st then Ok st.io
        else Error "incomplete pebbling: unmarked edges or an unsaved sink"
end

let errf fmt = Format.kasprintf (fun s -> Error s) fmt

let agree_rbp ~r g moves =
  let eng = Rbp.start (Rbp.config ~r ()) g in
  let same bits set = Prbp_dag.Bitset.to_list bits = S.elements set in
  let rec go i st = function
    | [] ->
        if Rbp.io_cost eng <> st.R.io then errf "cost mismatch at end"
        else if not (same (Rbp.red_set eng) st.R.red) then
          errf "red set mismatch"
        else if not (same (Rbp.blue_set eng) st.R.blue) then
          errf "blue set mismatch"
        else if not (same (Rbp.computed_set eng) st.R.computed) then
          errf "computed set mismatch"
        else if Rbp.is_terminal eng <> R.is_terminal g st then
          errf "terminality mismatch"
        else Ok ()
    | m :: rest -> (
        match (Rbp.apply eng m, R.step ~r g st m) with
        | Ok (), Ok st' -> go (i + 1) st' rest
        | Error _, Error _ -> Ok () (* both reject at the same index *)
        | Ok (), Error e -> errf "move #%d: engine accepts, verifier: %s" i e
        | Error e, Ok _ -> errf "move #%d: verifier accepts, engine: %s" i e)
  in
  go 0 (R.initial g) moves

let agree_prbp ~r g moves =
  let eng = Prbp.start (Prbp.config ~r ()) g in
  let pebble_eq (p : Prbp.Pebble.t) (q : P.pebble) =
    match (p, q) with
    | Prbp.Pebble.None_, P.No_pebble
    | Prbp.Pebble.Blue, P.Blue_only
    | Prbp.Pebble.Blue_light, P.Blue_and_light
    | Prbp.Pebble.Dark, P.Dark_only ->
        true
    | _ -> false
  in
  let rec go i st = function
    | [] ->
        if Prbp.io_cost eng <> st.P.io then errf "cost mismatch"
        else if
          not
            (List.for_all
               (fun v ->
                 pebble_eq (Prbp.pebble eng v)
                   (P.pebble_of ~p:1 ~n:(Dag.n_nodes g) st 0 v))
               (List.init (Dag.n_nodes g) Fun.id))
        then errf "pebble state mismatch"
        else if
          Prbp_dag.Bitset.to_list (Prbp.marked_set eng) <> S.elements st.P.marked
        then errf "marked set mismatch"
        else if Prbp.is_terminal eng <> P.is_terminal g st then
          errf "terminality mismatch"
        else Ok ()
    | m :: rest -> (
        match (Prbp.apply eng m, P.step ~r g st m) with
        | Ok (), Ok st' -> go (i + 1) st' rest
        | Error _, Error _ -> Ok ()
        | Ok (), Error e -> errf "move #%d: engine accepts, verifier: %s" i e
        | Error e, Ok _ -> errf "move #%d: verifier accepts, engine: %s" i e)
  in
  go 0 (P.initial g) moves
