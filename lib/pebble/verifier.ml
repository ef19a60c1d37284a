module Dag = Prbp_dag.Dag

(* Node and edge-id sets.  Persistent, so [step] returns a new state and
   leaves its argument valid: a caller can probe every candidate move
   from one state without copying it. *)
module S = Set.Make (Int)

module R = struct
  type state = {
    red : S.t;
    blue : S.t;
    computed : S.t;
    io : int;
  }

  let initial g =
    { red = S.empty; blue = S.of_list (Dag.sources g); computed = S.empty; io = 0 }

  let step ~r g st (m : Move.R.t) =
    match m with
    | Move.R.(Load v | Save v | Compute v | Delete v) when not (Dag.is_node g v)
      ->
        Error "no such node"
    | Move.R.Load v ->
        (* "place a red pebble on any node v that has a blue pebble" *)
        if not (S.mem v st.blue) then Error "load: no blue pebble"
        else if S.mem v st.red then
          (* legal but a pure waste: state unchanged, cost paid *)
          Ok { st with io = st.io + 1 }
        else if S.cardinal st.red >= r then Error "load: capacity"
        else Ok { st with red = S.add v st.red; io = st.io + 1 }
    | Move.R.Save v ->
        (* "place a blue pebble on any node v that has a red pebble" *)
        if not (S.mem v st.red) then Error "save: no red pebble"
        else Ok { st with blue = S.add v st.blue; io = st.io + 1 }
    | Move.R.Compute v ->
        (* "if all the inputs of a non-source node v have a red pebble,
           then also place a red pebble on v" — once per node *)
        if Dag.is_source g v then Error "compute: source"
        else if S.mem v st.computed then Error "compute: one-shot"
        else if not (List.for_all (fun u -> S.mem u st.red) (Dag.preds g v))
        then Error "compute: inputs not red"
        else if S.mem v st.red then
          Ok { st with computed = S.add v st.computed }
        else if S.cardinal st.red >= r then Error "compute: capacity"
        else
          Ok
            {
              st with
              red = S.add v st.red;
              computed = S.add v st.computed;
            }
    | Move.R.Delete v ->
        (* "remove a red pebble from any node" *)
        if not (S.mem v st.red) then Error "delete: no red pebble"
        else Ok { st with red = S.remove v st.red }
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
  type pebble = No_pebble | Blue_only | Blue_and_light | Dark_only

  type state = {
    blue : S.t;
    light : S.t;
    dark : S.t;
    marked : S.t;
    io : int;
  }

  (* A light red pebble only ever sits beside a blue one, and a dark
     red one never does, so the three sets spell out one of the four
     pebble states per node. *)
  let pebble_of st v =
    if S.mem v st.dark then Dark_only
    else if S.mem v st.light then Blue_and_light
    else if S.mem v st.blue then Blue_only
    else No_pebble

  let set st v p =
    let put b s = if b then S.add v s else S.remove v s in
    {
      st with
      blue = put (p = Blue_only || p = Blue_and_light) st.blue;
      light = put (p = Blue_and_light) st.light;
      dark = put (p = Dark_only) st.dark;
    }

  let red_count st = S.cardinal st.light + S.cardinal st.dark

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

  let step ~r g st (m : Move.P.t) =
    match m with
    | Move.P.(Load v | Save v | Delete v) when not (Dag.is_node g v) ->
        Error "no such node"
    | Move.P.Compute (u, v) when not (Dag.is_node g u && Dag.is_node g v) ->
        Error "compute: no such edge"
    | Move.P.Load v -> (
        (* "place a light red pebble on any node v that has a blue
           pebble" *)
        match pebble_of st v with
        | Blue_only ->
            if red_count st >= r then Error "load: capacity"
            else Ok { (set st v Blue_and_light) with io = st.io + 1 }
        | Blue_and_light -> Ok { st with io = st.io + 1 }
        | No_pebble | Dark_only -> Error "load: no blue pebble")
    | Move.P.Save v -> (
        (* "replace a dark red pebble ... by a blue and a light red" *)
        match pebble_of st v with
        | Dark_only -> Ok { (set st v Blue_and_light) with io = st.io + 1 }
        | _ -> Error "save: no dark red pebble")
    | Move.P.Compute (u, v) -> (
        (* conditions (i)-(iii) of the partial compute rule, plus the
           one-shot restriction on edges *)
        match Dag.edge_id g u v with
        | exception Not_found -> Error "compute: no such edge"
        | e ->
            if S.mem e st.marked then Error "compute: edge marked"
            else if not (fully_computed g st u) then
              Error "compute: input not fully computed"
            else if
              not
                (match pebble_of st u with
                | Blue_and_light | Dark_only -> true
                | _ -> false)
            then Error "compute: input not red"
            else begin
              match pebble_of st v with
              | Blue_only -> Error "compute: target has only a blue pebble"
              | No_pebble when red_count st >= r -> Error "compute: capacity"
              | No_pebble | Blue_and_light | Dark_only ->
                  Ok { (set st v Dark_only) with marked = S.add e st.marked }
            end)
    | Move.P.Delete v -> (
        (* light red always removable; dark red only once every output
           edge is marked *)
        match pebble_of st v with
        | Blue_and_light -> Ok (set st v Blue_only)
        | Dark_only ->
            if all_out_marked g st v then Ok (set st v No_pebble)
            else Error "delete: dark red with unmarked out-edges"
        | _ -> Error "delete: no red pebble")
    | Move.P.Clear _ -> Error "clear: not part of the base game"

  let is_terminal g st =
    S.cardinal st.marked = Dag.n_edges g
    && List.for_all
         (fun v ->
           match pebble_of st v with
           | Blue_only | Blue_and_light -> true
           | _ -> false)
         (Dag.sinks g)

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
               (fun v -> pebble_eq (Prbp.pebble eng v) (P.pebble_of st v))
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
