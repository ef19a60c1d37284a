module Dag = Prbp_dag.Dag

(* The black pebble game as an all-zero-cost instance of the generic
   engine: a state is the (pebbled-node mask, visited-sink mask) pair,
   every transition is free (only the peak pebble count matters, and
   that is capped by construction), so feasibility at capacity s is
   plain reachability — [solve] settles [Optimal] (at cost 0) iff a
   complete pebbling exists.  Branch-and-bound never fires (all
   distances are 0); the engine is used purely as the shared table +
   queue + budget machinery. *)

type move = Place of int | Slide of int * int | Remove of int

(* Move codes: the low 2 bits are the kind (0 place, 1 remove,
   2 slide), bits 2-7 the node, and for a slide bits 8-13 the node
   whose pebble moves. *)
let k_place = 0
and k_remove = 1
and k_slide = 2

let[@inline] code k v = k lor (v lsl 2)

(* Store a successor and hand it to the engine; top-level, so
   [expand] builds no closure.  Every black move is free. *)
let[@inline] put scratch emit m v code =
  Array.unsafe_set scratch 0 m;
  Array.unsafe_set scratch 1 v;
  emit code 0

module G = struct
  type inst = {
    n : int;
    s : int;
    sliding : bool;
    pred_mask : int array;
    sinks : int;
  }

  type nonrec move = move

  let name = "black"

  let width _ = 2

  let write_init _ buf =
    buf.(0) <- 0;
    buf.(1) <- 0

  let is_goal inst buf = buf.(1) = inst.sinks

  let residual_lb _ _ = 0

  let incumbent _ = None

  let expand inst cur ~scratch ~emit =
    let mask = cur.(0) and visited = cur.(1) in
    for v = 0 to inst.n - 1 do
      let b = 1 lsl v in
      if mask land b = 0 && inst.pred_mask.(v) land lnot mask = 0 then begin
        (* PLACE (needs a free pebble) *)
        if Bits.popcount mask < inst.s then
          put scratch emit (mask lor b)
            (visited lor (b land inst.sinks))
            (code k_place v);
        (* SLIDE from one of the (pebbled) in-neighbors *)
        if inst.sliding then begin
          let preds = ref inst.pred_mask.(v) in
          while !preds <> 0 do
            let u = Bits.lowest_set_index !preds in
            preds := !preds land (!preds - 1);
            put scratch emit
              (mask lxor (1 lsl u) lor b)
              (visited lor (b land inst.sinks))
              (code k_slide v lor (u lsl 8))
          done
        end
      end;
      (* REMOVE *)
      if mask land b <> 0 then
        put scratch emit (mask lxor b) visited (code k_remove v)
    done

  let decode _ c =
    let v = (c lsr 2) land 63 in
    match c land 3 with
    | 0 -> Place v
    | 1 -> Remove v
    | _ -> Slide (c lsr 8, v)
end

module E = Engine.Make (G)

let inst ?(sliding = false) ~s g =
  let n = Dag.n_nodes g in
  if n > 31 then invalid_arg "Black.feasible: at most 31 nodes";
  if s < 0 then invalid_arg "Black.feasible: negative capacity";
  {
    G.n;
    s;
    sliding;
    pred_mask =
      Array.init n (fun v ->
          Dag.fold_pred (fun u acc -> acc lor (1 lsl u)) g v 0);
    sinks = List.fold_left (fun a v -> a lor (1 lsl v)) 0 (Dag.sinks g);
  }

let solve ?budget ?telemetry ?want_strategy ?sliding ?jobs ~s g =
  E.solve ?budget ?telemetry ?want_strategy ~prune:false ?jobs
    (inst ?sliding ~s g)

(* The historical default budget for the black game (its states are a
   third the width of the red-blue ones, but `number` runs a whole
   upward scan of solves). *)
let default_states = 2_000_000

let budget_of_max_states max_states =
  Solver.Budget.states (Option.value max_states ~default:default_states)

let feasible ?sliding ?max_states ~s g =
  match solve ~budget:(budget_of_max_states max_states) ?sliding ~s g with
  | Solver.Optimal _ -> Some true
  | Solver.Unsolvable _ -> Some false
  | Solver.Bounded _ -> None

let number ?sliding ?max_states g =
  let n = Dag.n_nodes g in
  let rec go s =
    if s > n then
      failwith "Black.number: internal: no feasible capacity up to n"
    else
      match feasible ?sliding ?max_states ~s g with
      | Some true -> Some s
      | Some false -> go (s + 1)
      | None -> None
  in
  if n = 0 then Some 0 else go 1
