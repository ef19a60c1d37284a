module Bitset = Prbp_dag.Bitset
module Dag = Prbp_dag.Dag

type config = {
  r : int;
  one_shot : bool;
  sliding : bool;
  no_delete : bool;
  compute_cost : float;
}

let config ?(one_shot = true) ?(sliding = false) ?(no_delete = false)
    ?(compute_cost = 0.) ~r () =
  if r < 1 then invalid_arg "Rbp.config: r must be >= 1";
  if compute_cost < 0. then invalid_arg "Rbp.config: negative compute cost";
  { r; one_shot; sliding; no_delete; compute_cost }

type t = {
  cfg : config;
  g : Dag.t;
  red : Bitset.t;
  blue : Bitset.t;
  computed : Bitset.t;
  mutable n_red : int;
  mutable n_loads : int;
  mutable n_saves : int;
  mutable n_computes : int;
  mutable max_red : int;
}

let start cfg g =
  let n = Dag.n_nodes g in
  let blue = Bitset.create n in
  List.iter (Bitset.add blue) (Dag.sources g);
  {
    cfg;
    g;
    red = Bitset.create n;
    blue;
    computed = Bitset.create n;
    n_red = 0;
    n_loads = 0;
    n_saves = 0;
    n_computes = 0;
    max_red = 0;
  }

let dag t = t.g

let capacity t = t.cfg.r

let has_red t v = Bitset.mem t.red v

let has_blue t v = Bitset.mem t.blue v

let is_computed t v = Bitset.mem t.computed v

let red_count t = t.n_red

let red_set t = Bitset.copy t.red

let blue_set t = Bitset.copy t.blue

let computed_set t = Bitset.copy t.computed

let io_cost t = t.n_loads + t.n_saves

let loads t = t.n_loads

let saves t = t.n_saves

let computes t = t.n_computes

let total_cost t =
  float_of_int (io_cost t) +. (t.cfg.compute_cost *. float_of_int t.n_computes)

let max_red_seen t = t.max_red

let is_terminal t =
  List.for_all (fun v -> Bitset.mem t.blue v) (Dag.sinks t.g)

let errf fmt = Format.kasprintf (fun s -> Error s) fmt

let add_red t v =
  Bitset.add t.red v;
  t.n_red <- t.n_red + 1;
  if t.n_red > t.max_red then t.max_red <- t.n_red

let remove_red t v =
  Bitset.remove t.red v;
  t.n_red <- t.n_red - 1

let preds_all_red t v =
  Dag.fold_pred (fun u acc -> acc && Bitset.mem t.red u) t.g v true

(* Legality of a compute-like step on v: non-source, inputs red,
   one-shot discipline respected. *)
let computable t v =
  if Dag.is_source t.g v then errf "compute %d: node is a source" v
  else if t.cfg.one_shot && Bitset.mem t.computed v then
    errf "compute %d: already computed (one-shot)" v
  else if not (preds_all_red t v) then
    errf "compute %d: some in-neighbor lacks a red pebble" v
  else Ok ()

let apply t (m : Move.R.t) =
  match m with
  | Move.R.(Load v | Save v | Compute v | Delete v)
    when not (Dag.is_node t.g v) ->
      errf "%a: no such node" Move.R.pp m
  | Move.R.Slide (u, v) when not (Dag.is_node t.g u && Dag.is_node t.g v) ->
      errf "%a: no such node" Move.R.pp m
  | Move.R.Load v ->
      if not (Bitset.mem t.blue v) then errf "load %d: no blue pebble" v
      else if Bitset.mem t.red v then begin
        (* legal per the rules, a pure waste of one I/O *)
        t.n_loads <- t.n_loads + 1;
        Ok ()
      end
      else if t.n_red >= t.cfg.r then
        errf "load %d: fast memory full (r=%d)" v t.cfg.r
      else begin
        add_red t v;
        t.n_loads <- t.n_loads + 1;
        Ok ()
      end
  | Move.R.Save v ->
      if not (Bitset.mem t.red v) then errf "save %d: no red pebble" v
      else begin
        Bitset.add t.blue v;
        if t.cfg.no_delete then remove_red t v;
        t.n_saves <- t.n_saves + 1;
        Ok ()
      end
  | Move.R.Compute v -> (
      match computable t v with
      | Error _ as e -> e
      | Ok () ->
          if Bitset.mem t.red v then begin
            (* re-computation onto an already-red node: no new pebble *)
            Bitset.add t.computed v;
            t.n_computes <- t.n_computes + 1;
            Ok ()
          end
          else if t.n_red >= t.cfg.r then
            errf "compute %d: fast memory full (r=%d)" v t.cfg.r
          else begin
            add_red t v;
            Bitset.add t.computed v;
            t.n_computes <- t.n_computes + 1;
            Ok ()
          end)
  | Move.R.Delete v ->
      if t.cfg.no_delete then errf "delete %d: forbidden in this variant" v
      else if not (Bitset.mem t.red v) then errf "delete %d: no red pebble" v
      else begin
        remove_red t v;
        Ok ()
      end
  | Move.R.Slide (u, v) -> (
      if not t.cfg.sliding then
        errf "slide %d->%d: sliding not enabled" u v
      else if not (Dag.has_edge t.g u v) then
        errf "slide %d->%d: no such edge" u v
      else
        match computable t v with
        | Error _ as e -> e
        | Ok () ->
            if Bitset.mem t.red v then
              errf "slide %d->%d: target already red" u v
            else begin
              remove_red t u;
              add_red t v;
              Bitset.add t.computed v;
              t.n_computes <- t.n_computes + 1;
              Ok ()
            end)

let run cfg g moves =
  let t = start cfg g in
  let rec go i = function
    | [] -> Ok t
    | m :: rest -> (
        match apply t m with
        | Ok () -> go (i + 1) rest
        | Error e -> errf "move #%d (%a): %s" i Move.R.pp m e)
  in
  go 0 moves

let run_exn cfg g moves =
  match run cfg g moves with Ok t -> t | Error e -> failwith e

let check cfg g moves =
  match run cfg g moves with
  | Error _ as e -> e
  | Ok t ->
      if is_terminal t then Ok (io_cost t)
      else Error "pebbling incomplete: some sink has no blue pebble"

let normalize cfg g moves =
  let t = start cfg g in
  let keep = ref [] in
  List.iter
    (fun (m : Move.R.t) ->
      let redundant =
        match m with
        | (Move.R.Load v | Move.R.Save v) when not (Dag.is_node g v) ->
            (* not redundant but illegal: [apply] rejects it *)
            false
        | Move.R.Load v -> Bitset.mem t.red v
        | Move.R.Save v ->
            (* in the no-delete variant a save also removes the red
               pebble, so it is never a pure no-op *)
            (not cfg.no_delete) && Bitset.mem t.blue v
        | _ -> false
      in
      if not redundant then begin
        match apply t m with
        | Ok () -> keep := m :: !keep
        | Error e ->
            failwith (Printf.sprintf "Rbp.normalize: illegal strategy: %s" e)
      end)
    moves;
  List.rev !keep

let pp_state ppf t =
  let names b =
    String.concat " " (List.map (Dag.name t.g) (Bitset.to_list b))
  in
  Format.fprintf ppf "red {%s} blue {%s} computed {%s} io=%d" (names t.red)
    (names t.blue) (names t.computed) (io_cost t)
