module Dag = Prbp_dag.Dag
module Bitset = Prbp_dag.Bitset
module Single = Move

type config = { p : int; r : int; one_shot : bool }

let config ?(one_shot = true) ~p ~r () =
  if p < 1 then invalid_arg "Multi.config: p >= 1";
  if r < 1 then invalid_arg "Multi.config: r >= 1";
  { p; r; one_shot }

module Move = struct
  type rbp =
    | Load of int * int
    | Save of int * int
    | Compute of int * int
    | Delete of int * int

  type prbp =
    | Load of int * int
    | Save of int * int
    | Compute of int * (int * int)
    | Delete of int * int

  let pp_rbp ppf (m : rbp) =
    match m with
    | Load (q, v) -> Format.fprintf ppf "p%d: load %d" q v
    | Save (q, v) -> Format.fprintf ppf "p%d: save %d" q v
    | Compute (q, v) -> Format.fprintf ppf "p%d: compute %d" q v
    | Delete (q, v) -> Format.fprintf ppf "p%d: delete %d" q v

  let pp_prbp ppf (m : prbp) =
    match m with
    | Load (q, v) -> Format.fprintf ppf "p%d: load %d" q v
    | Save (q, v) -> Format.fprintf ppf "p%d: save %d" q v
    | Compute (q, (u, v)) -> Format.fprintf ppf "p%d: compute (%d,%d)" q u v
    | Delete (q, v) -> Format.fprintf ppf "p%d: delete %d" q v
end

let errf fmt = Format.kasprintf (fun s -> Error s) fmt

let check_proc cfg q = q >= 0 && q < cfg.p

module R = struct
  type t = {
    cfg : config;
    g : Dag.t;
    red : Bitset.t array;  (* per processor *)
    n_red : int array;
    blue : Bitset.t;
    computed : Bitset.t;
    mutable io : int;
  }

  let start cfg g =
    let n = Dag.n_nodes g in
    let blue = Bitset.create n in
    List.iter (Bitset.add blue) (Dag.sources g);
    {
      cfg;
      g;
      red = Array.init cfg.p (fun _ -> Bitset.create n);
      n_red = Array.make cfg.p 0;
      blue;
      computed = Bitset.create n;
      io = 0;
    }

  let io_cost t = t.io

  let red_count t q = t.n_red.(q)

  let is_terminal t =
    List.for_all (fun v -> Bitset.mem t.blue v) (Dag.sinks t.g)

  let apply t (m : Move.rbp) =
    match m with
    | Move.(Load (_, v) | Save (_, v) | Compute (_, v) | Delete (_, v))
      when not (Dag.is_node t.g v) ->
        errf "%a: no such node" Move.pp_rbp m
    | Move.Load (q, v) ->
        if not (check_proc t.cfg q) then errf "load: bad processor %d" q
        else if not (Bitset.mem t.blue v) then errf "load %d: no blue" v
        else if Bitset.mem t.red.(q) v then begin
          t.io <- t.io + 1;
          Ok ()
        end
        else if t.n_red.(q) >= t.cfg.r then
          errf "load %d: processor %d full" v q
        else begin
          Bitset.add t.red.(q) v;
          t.n_red.(q) <- t.n_red.(q) + 1;
          t.io <- t.io + 1;
          Ok ()
        end
    | Move.Save (q, v) ->
        if not (check_proc t.cfg q) then errf "save: bad processor %d" q
        else if not (Bitset.mem t.red.(q) v) then
          errf "save %d: not red on processor %d" v q
        else begin
          Bitset.add t.blue v;
          t.io <- t.io + 1;
          Ok ()
        end
    | Move.Compute (q, v) ->
        if not (check_proc t.cfg q) then errf "compute: bad processor %d" q
        else if Dag.is_source t.g v then errf "compute %d: source" v
        else if t.cfg.one_shot && Bitset.mem t.computed v then
          errf "compute %d: one-shot" v
        else if
          not
            (Dag.fold_pred (fun u acc -> acc && Bitset.mem t.red.(q) u) t.g v
               true)
        then errf "compute %d: inputs not all red on processor %d" v q
        else if Bitset.mem t.red.(q) v then begin
          Bitset.add t.computed v;
          Ok ()
        end
        else if t.n_red.(q) >= t.cfg.r then
          errf "compute %d: processor %d full" v q
        else begin
          Bitset.add t.red.(q) v;
          t.n_red.(q) <- t.n_red.(q) + 1;
          Bitset.add t.computed v;
          Ok ()
        end
    | Move.Delete (q, v) ->
        if not (check_proc t.cfg q) then errf "delete: bad processor %d" q
        else if not (Bitset.mem t.red.(q) v) then
          errf "delete %d: not red on processor %d" v q
        else begin
          Bitset.remove t.red.(q) v;
          t.n_red.(q) <- t.n_red.(q) - 1;
          Ok ()
        end

  let check cfg g moves =
    let t = start cfg g in
    let rec go i = function
      | [] ->
          if is_terminal t then Ok t.io
          else Error "incomplete pebbling: some sink has no blue pebble"
      | m :: rest -> (
          match apply t m with
          | Ok () -> go (i + 1) rest
          | Error e -> errf "move #%d (%a): %s" i Move.pp_rbp m e)
    in
    go 0 moves
end

module P = struct
  (* per node: optional exclusive dark owner, set of light-copy
     holders, and a blue flag.  A light copy implies blue (same
     invariant as the single-processor game). *)
  type t = {
    cfg : config;
    g : Dag.t;
    dark : int array;  (* node -> owning processor, or -1 *)
    light : Bitset.t array;  (* per processor: nodes held light *)
    blue : Bitset.t;
    n_red : int array;
    marked : Bitset.t;  (* edges *)
    ever_marked : Bitset.t;
    unmarked_in : int array;
    unmarked_out : int array;
    mutable io : int;
  }

  let start cfg g =
    let n = Dag.n_nodes g in
    let blue = Bitset.create n in
    List.iter (Bitset.add blue) (Dag.sources g);
    {
      cfg;
      g;
      dark = Array.make n (-1);
      light = Array.init cfg.p (fun _ -> Bitset.create n);
      blue;
      n_red = Array.make cfg.p 0;
      marked = Bitset.create (Dag.n_edges g);
      ever_marked = Bitset.create (Dag.n_edges g);
      unmarked_in = Array.init n (Dag.in_degree g);
      unmarked_out = Array.init n (Dag.out_degree g);
      io = 0;
    }

    let io_cost t = t.io

  let red_count t q = t.n_red.(q)

  let has_red_on t q v = t.dark.(v) = q || Bitset.mem t.light.(q) v

  let stored_nowhere t v =
    t.dark.(v) = -1
    && (not (Bitset.mem t.blue v))
    && Array.for_all (fun l -> not (Bitset.mem l v)) t.light

  let is_terminal t =
    Bitset.cardinal t.marked = Dag.n_edges t.g
    && List.for_all (fun v -> Bitset.mem t.blue v) (Dag.sinks t.g)

  let drop_all_copies t v =
    (* the value of v is being overwritten: blue and every light copy
       become stale and disappear *)
    Bitset.remove t.blue v;
    Array.iteri
      (fun q l ->
        if Bitset.mem l v then begin
          Bitset.remove l v;
          t.n_red.(q) <- t.n_red.(q) - 1
        end)
      t.light;
    if t.dark.(v) >= 0 then begin
      t.n_red.(t.dark.(v)) <- t.n_red.(t.dark.(v)) - 1;
      t.dark.(v) <- -1
    end

  let apply t (m : Move.prbp) =
    match m with
    | Move.(Load (_, v) | Save (_, v) | Delete (_, v))
      when not (Dag.is_node t.g v) ->
        errf "%a: no such node" Move.pp_prbp m
    | Move.Compute (_, (u, v)) when not (Dag.is_node t.g u && Dag.is_node t.g v)
      ->
        errf "%a: no such node" Move.pp_prbp m
    | Move.Load (q, v) ->
        if not (check_proc t.cfg q) then errf "load: bad processor %d" q
        else if not (Bitset.mem t.blue v) then errf "load %d: no blue" v
        else if Bitset.mem t.light.(q) v then begin
          t.io <- t.io + 1;
          Ok ()
        end
        else if t.n_red.(q) >= t.cfg.r then
          errf "load %d: processor %d full" v q
        else begin
          Bitset.add t.light.(q) v;
          t.n_red.(q) <- t.n_red.(q) + 1;
          t.io <- t.io + 1;
          Ok ()
        end
    | Move.Save (q, v) ->
        if not (check_proc t.cfg q) then errf "save: bad processor %d" q
        else if t.dark.(v) <> q then
          errf "save %d: no dark pebble on processor %d" v q
        else begin
          t.dark.(v) <- -1;
          Bitset.add t.blue v;
          Bitset.add t.light.(q) v;
          (* dark -> blue+light on the same processor: occupancy
             unchanged *)
          t.io <- t.io + 1;
          Ok ()
        end
    | Move.Compute (q, (u, v)) -> (
        if not (check_proc t.cfg q) then errf "compute: bad processor %d" q
        else
          match Dag.edge_id t.g u v with
          | exception Not_found -> errf "compute (%d,%d): no such edge" u v
          | e ->
              if Bitset.mem t.marked e then
                errf "compute (%d,%d): edge marked" u v
              else if t.cfg.one_shot && Bitset.mem t.ever_marked e then
                errf "compute (%d,%d): one-shot" u v
              else if t.unmarked_in.(u) > 0 then
                errf "compute (%d,%d): input not fully computed" u v
              else if not (has_red_on t q u) then
                errf "compute (%d,%d): input not red on processor %d" u v q
              else if
                not
                  (t.dark.(v) = q
                  || Bitset.mem t.light.(q) v
                  || stored_nowhere t v)
              then
                errf
                  "compute (%d,%d): target value lives elsewhere (dark on \
                   another processor, or blue without a local copy)"
                  u v
              else begin
                let was_resident = t.dark.(v) = q || Bitset.mem t.light.(q) v in
                if (not was_resident) && t.n_red.(q) >= t.cfg.r then
                  errf "compute (%d,%d): processor %d full" u v q
                else begin
                  drop_all_copies t v;
                  t.dark.(v) <- q;
                  t.n_red.(q) <- t.n_red.(q) + 1;
                  Bitset.add t.marked e;
                  Bitset.add t.ever_marked e;
                  t.unmarked_in.(v) <- t.unmarked_in.(v) - 1;
                  t.unmarked_out.(u) <- t.unmarked_out.(u) - 1;
                  Ok ()
                end
              end)
    | Move.Delete (q, v) ->
        if not (check_proc t.cfg q) then errf "delete: bad processor %d" q
        else if Bitset.mem t.light.(q) v then begin
          Bitset.remove t.light.(q) v;
          t.n_red.(q) <- t.n_red.(q) - 1;
          Ok ()
        end
        else if t.dark.(v) = q then
          if t.unmarked_out.(v) > 0 then
            errf "delete %d: dark with unmarked out-edges" v
          else begin
            t.dark.(v) <- -1;
            t.n_red.(q) <- t.n_red.(q) - 1;
            Ok ()
          end
        else errf "delete %d: no red pebble on processor %d" v q

  let check cfg g moves =
    let t = start cfg g in
    let rec go i = function
      | [] ->
          if is_terminal t then Ok t.io
          else Error "incomplete pebbling"
      | m :: rest -> (
          match apply t m with
          | Ok () -> go (i + 1) rest
          | Error e -> errf "move #%d (%a): %s" i Move.pp_prbp m e)
    in
    go 0 moves
end

let lift_rbp moves =
  List.map
    (fun (m : Single.R.t) : Move.rbp ->
      match m with
      | Single.R.Load v -> Move.Load (0, v)
      | Single.R.Save v -> Move.Save (0, v)
      | Single.R.Compute v -> Move.Compute (0, v)
      | Single.R.Delete v -> Move.Delete (0, v)
      | Single.R.Slide _ -> invalid_arg "Multi.lift_rbp: slide")
    moves

let lift_prbp moves =
  List.map
    (fun (m : Single.P.t) : Move.prbp ->
      match m with
      | Single.P.Load v -> Move.Load (0, v)
      | Single.P.Save v -> Move.Save (0, v)
      | Single.P.Compute (u, v) -> Move.Compute (0, (u, v))
      | Single.P.Delete v -> Move.Delete (0, v)
      | Single.P.Clear _ -> invalid_arg "Multi.lift_prbp: clear")
    moves
