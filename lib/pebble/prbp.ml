module Bitset = Prbp_dag.Bitset
module Dag = Prbp_dag.Dag

module Pebble = struct
  type t = None_ | Blue | Blue_light | Dark

  let is_red = function Blue_light | Dark -> true | None_ | Blue -> false

  let has_blue = function Blue | Blue_light -> true | None_ | Dark -> false

  let pp ppf = function
    | None_ -> Format.pp_print_string ppf "·"
    | Blue -> Format.pp_print_string ppf "B"
    | Blue_light -> Format.pp_print_string ppf "B+lr"
    | Dark -> Format.pp_print_string ppf "dr"
end

type config = {
  r : int;
  one_shot : bool;
  recompute : bool;
  no_delete : bool;
  compute_cost : float;
  normalized_cost : bool;
}

let config ?(one_shot = true) ?(recompute = false) ?(no_delete = false)
    ?(compute_cost = 0.) ?(normalized_cost = false) ~r () =
  if r < 1 then invalid_arg "Prbp.config: r must be >= 1";
  if compute_cost < 0. then invalid_arg "Prbp.config: negative compute cost";
  if one_shot && recompute then
    invalid_arg "Prbp.config: recompute contradicts one_shot";
  { r; one_shot; recompute; no_delete; compute_cost; normalized_cost }

type t = {
  cfg : config;
  g : Dag.t;
  state : Pebble.t array;
  marked : Bitset.t;  (* currently marked edges *)
  ever_marked : Bitset.t;  (* for the one-shot rule under Clear *)
  unmarked_in : int array;  (* per node: in-edges not currently marked *)
  unmarked_out : int array;  (* per node: out-edges not currently marked *)
  mutable n_red : int;
  mutable n_loads : int;
  mutable n_saves : int;
  mutable n_computes : int;
  mutable max_red : int;
  mutable weighted_compute : float;
}

let start cfg g =
  let n = Dag.n_nodes g in
  let state = Array.make n Pebble.None_ in
  List.iter (fun s -> state.(s) <- Pebble.Blue) (Dag.sources g);
  {
    cfg;
    g;
    state;
    marked = Bitset.create (Dag.n_edges g);
    ever_marked = Bitset.create (Dag.n_edges g);
    unmarked_in = Array.init n (Dag.in_degree g);
    unmarked_out = Array.init n (Dag.out_degree g);
    n_red = 0;
    n_loads = 0;
    n_saves = 0;
    n_computes = 0;
    max_red = 0;
    weighted_compute = 0.;
  }

let dag t = t.g

let capacity t = t.cfg.r

let pebble t v = t.state.(v)

let is_marked t e = Bitset.mem t.marked e

let marked_set t = Bitset.copy t.marked

let red_count t = t.n_red

let red_set t =
  let s = Bitset.create (Dag.n_nodes t.g) in
  Array.iteri (fun v p -> if Pebble.is_red p then Bitset.add s v) t.state;
  s

let unmarked_in t v = t.unmarked_in.(v)

let fully_computed t v = t.unmarked_in.(v) = 0

let io_cost t = t.n_loads + t.n_saves

let loads t = t.n_loads

let saves t = t.n_saves

let computes t = t.n_computes

let total_cost t =
  float_of_int (io_cost t)
  +.
  if t.cfg.normalized_cost then t.cfg.compute_cost *. t.weighted_compute
  else t.cfg.compute_cost *. float_of_int t.n_computes

let max_red_seen t = t.max_red

let is_terminal t =
  Bitset.cardinal t.marked = Dag.n_edges t.g
  && List.for_all (fun v -> Pebble.has_blue t.state.(v)) (Dag.sinks t.g)

let errf fmt = Format.kasprintf (fun s -> Error s) fmt

let set_state t v p =
  let was_red = Pebble.is_red t.state.(v) in
  let now_red = Pebble.is_red p in
  t.state.(v) <- p;
  if now_red && not was_red then begin
    t.n_red <- t.n_red + 1;
    if t.n_red > t.max_red then t.max_red <- t.n_red
  end
  else if was_red && not now_red then t.n_red <- t.n_red - 1

let apply t (m : Move.P.t) =
  match m with
  | Move.P.(Load v | Save v | Delete v | Clear v)
    when not (Dag.is_node t.g v) ->
      errf "%a: no such node" Move.P.pp m
  | Move.P.Compute (u, v) when not (Dag.is_node t.g u && Dag.is_node t.g v) ->
      errf "%a: no such node" Move.P.pp m
  | Move.P.Load v -> (
      match t.state.(v) with
      | Pebble.Blue ->
          if t.n_red >= t.cfg.r then
            errf "load %d: fast memory full (r=%d)" v t.cfg.r
          else begin
            set_state t v Pebble.Blue_light;
            t.n_loads <- t.n_loads + 1;
            Ok ()
          end
      | Pebble.Blue_light ->
          (* value already cached: legal waste of one I/O *)
          t.n_loads <- t.n_loads + 1;
          Ok ()
      | Pebble.None_ | Pebble.Dark -> errf "load %d: no blue pebble" v)
  | Move.P.Save v -> (
      match t.state.(v) with
      | Pebble.Dark ->
          set_state t v Pebble.Blue_light;
          t.n_saves <- t.n_saves + 1;
          Ok ()
      | p -> errf "save %d: needs a dark red pebble (state %a)" v Pebble.pp p)
  | Move.P.Compute (u, v) -> (
      match Dag.edge_id t.g u v with
      | exception Not_found -> errf "compute (%d,%d): no such edge" u v
      | e ->
          if Bitset.mem t.marked e then
            errf "compute (%d,%d): edge already marked" u v
          else if t.cfg.one_shot && Bitset.mem t.ever_marked e then
            errf "compute (%d,%d): edge was marked before (one-shot)" u v
          else if t.unmarked_in.(u) > 0 then
            errf "compute (%d,%d): input %d not fully computed (%d in-edges unmarked)"
              u v u t.unmarked_in.(u)
          else if not (Pebble.is_red t.state.(u)) then
            errf "compute (%d,%d): input %d has no red pebble" u v u
          else begin
            match t.state.(v) with
            | Pebble.Blue ->
                errf
                  "compute (%d,%d): target holds only a blue pebble; load it first"
                  u v
            | Pebble.None_ when t.n_red >= t.cfg.r ->
                errf "compute (%d,%d): fast memory full (r=%d)" u v t.cfg.r
            | Pebble.None_ | Pebble.Blue_light | Pebble.Dark ->
                set_state t v Pebble.Dark;
                Bitset.add t.marked e;
                Bitset.add t.ever_marked e;
                t.unmarked_in.(v) <- t.unmarked_in.(v) - 1;
                t.unmarked_out.(u) <- t.unmarked_out.(u) - 1;
                t.n_computes <- t.n_computes + 1;
                t.weighted_compute <-
                  t.weighted_compute +. (1. /. float_of_int (Dag.in_degree t.g v));
                Ok ()
          end)
  | Move.P.Delete v -> (
      match t.state.(v) with
      | Pebble.Blue_light ->
          set_state t v Pebble.Blue;
          Ok ()
      | Pebble.Dark ->
          if t.cfg.no_delete then
            errf "delete %d: dark red only removable by save in this variant" v
          else if t.unmarked_out.(v) > 0 then
            errf "delete %d: dark red with %d unmarked out-edges" v
              t.unmarked_out.(v)
          else begin
            set_state t v Pebble.None_;
            Ok ()
          end
      | p -> errf "delete %d: no red pebble (state %a)" v Pebble.pp p)
  | Move.P.Clear v ->
      if not t.cfg.recompute then errf "clear %d: re-computation not enabled" v
      else if Dag.is_source t.g v then errf "clear %d: node is a source" v
      else if Dag.is_sink t.g v then errf "clear %d: node is a sink" v
      else begin
        set_state t v Pebble.None_;
        Dag.iter_pred_e
          (fun e u ->
            if Bitset.mem t.marked e then begin
              Bitset.remove t.marked e;
              t.unmarked_in.(v) <- t.unmarked_in.(v) + 1;
              t.unmarked_out.(u) <- t.unmarked_out.(u) + 1
            end)
          t.g v;
        Ok ()
      end

let run cfg g moves =
  let t = start cfg g in
  let rec go i = function
    | [] -> Ok t
    | m :: rest -> (
        match apply t m with
        | Ok () -> go (i + 1) rest
        | Error e -> errf "move #%d (%a): %s" i Move.P.pp m e)
  in
  go 0 moves

let run_exn cfg g moves =
  match run cfg g moves with Ok t -> t | Error e -> failwith e

let check cfg g moves =
  match run cfg g moves with
  | Error _ as e -> e
  | Ok t ->
      if is_terminal t then Ok (io_cost t)
      else
        errf "pebbling incomplete: %d/%d edges marked, sinks blue: %b"
          (Bitset.cardinal t.marked) (Dag.n_edges t.g)
        (List.for_all (fun v -> Pebble.has_blue t.state.(v)) (Dag.sinks t.g))

let pp_state ppf t =
  let cells =
    List.filter_map
      (fun v ->
        match t.state.(v) with
        | Pebble.None_ -> None
        | p -> Some (Format.asprintf "%s:%a" (Dag.name t.g v) Pebble.pp p))
      (List.init (Dag.n_nodes t.g) (fun v -> v))
  in
  Format.fprintf ppf "{%s} marked %d/%d io=%d"
    (String.concat " " cells)
    (Bitset.cardinal t.marked) (Dag.n_edges t.g) (io_cost t)
