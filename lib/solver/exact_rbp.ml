module Dag = Prbp_dag.Dag
module Rbp = Prbp_pebble.Rbp
module RM = Prbp_pebble.Move.R


(* The classic-RBP instance of the generic engine: a state is the
   (red, blue, comp) bitmask triple, packed as 3 ints.  All search
   machinery (state table, 0-1 deque, settled encoding, B&B) lives in
   {!Engine.Make}; this module only knows the game rules.

   Move codes: the low 3 bits are the kind (0 load, 1 save, 2 compute,
   3 delete, 4 slide), bits 3-8 the node, and for a slide bits 9-14
   the node whose red pebble moves (node ids are below 62). *)
let k_load = 0
and k_save = 1
and k_compute = 2
and k_delete = 3
and k_slide = 4

let[@inline] code k v = k lor (v lsl 3)

(* Store a successor and hand it to the engine: a top-level function
   rather than a closure in [expand], so the hot loop allocates
   nothing. *)
let[@inline] put scratch emit r b c code cost01 =
  (* scratch is engine-allocated at exactly [width inst] *)
  Array.unsafe_set scratch 0 r;
  Array.unsafe_set scratch 1 b;
  Array.unsafe_set scratch 2 c;
  emit code cost01

module G = struct
  type inst = {
    cfg : Rbp.config;
    eager_deletes : bool;
    n : int;
    pred_mask : int array;
    succ_mask : int array;
    sinks : int;
    sources : int;
    srcs : int array;  (* source nodes, for the residual lower bound *)
    dag : Dag.t;
  }

  type move = RM.t

  let name = "rbp"

  let width _ = 3

  let write_init inst buf =
    buf.(0) <- 0;
    buf.(1) <- inst.sources;
    buf.(2) <- 0

  let is_goal inst buf = buf.(1) land inst.sinks = inst.sinks

  (* Admissible residual bound: every not-yet-blue sink still costs
     one SAVE, and (one-shot only) every source that is not red but
     still feeds an uncomputed successor costs one LOAD.  All these
     I/Os are distinct moves on distinct nodes, so the sum is a lower
     bound on the cost-to-go. *)
  let residual_lb inst buf =
    let red = buf.(0) and blue = buf.(1) and comp = buf.(2) in
    let lb = ref (Bits.popcount (inst.sinks land lnot blue)) in
    if inst.cfg.Rbp.one_shot then
      for i = 0 to Array.length inst.srcs - 1 do
        let s = Array.unsafe_get inst.srcs i in
        if red land (1 lsl s) = 0 && inst.succ_mask.(s) land lnot comp <> 0
        then incr lb
      done;
    !lb

  (* The Belady pebbler plays the standard one-shot game, whose move
     set is legal in every variant except no-delete (sliding and
     re-computation only relax the rules), so its cost bounds OPT from
     above there; the no-delete variant has no incumbent. *)
  let incumbent inst =
    if inst.cfg.Rbp.no_delete then None
    else Heuristic.rbp_incumbent ~r:inst.cfg.Rbp.r inst.dag

  (* A value may be deleted (or need not be saved) once it can never
     be used again: all successors computed and, for sinks, already
     blue.  Only sound in the one-shot game. *)
  let obsolete inst blue comp v =
    inst.cfg.Rbp.one_shot
    && inst.succ_mask.(v) land lnot comp = 0
    && (inst.sinks land (1 lsl v) = 0 || blue land (1 lsl v) <> 0)

  let expand inst cur ~scratch ~emit =
    let red = cur.(0) and blue = cur.(1) and comp = cur.(2) in
    (* hot loop: hoist the loop-invariant loads *)
    let r = inst.cfg.Rbp.r in
    let n_red = Bits.popcount red in
    for v = 0 to inst.n - 1 do
      let b = 1 lsl v in
      (* LOAD *)
      if
        blue land b <> 0
        && red land b = 0
        && n_red < r
        && not (obsolete inst blue comp v)
      then put scratch emit (red lor b) blue comp (code k_load v) 1;
      (* SAVE; in the no-delete variant saving an already-blue node is
         meaningful (it is the only way to release the red pebble) *)
      if red land b <> 0 && (blue land b = 0 || inst.cfg.Rbp.no_delete)
      then begin
        let red' = if inst.cfg.Rbp.no_delete then red lxor b else red in
        if inst.cfg.Rbp.no_delete || not (obsolete inst blue comp v) then
          put scratch emit red' (blue lor b) comp (code k_save v) 1
      end;
      (* COMPUTE *)
      if
        inst.sources land b = 0
        && red land b = 0
        && (not (inst.cfg.Rbp.one_shot && comp land b <> 0))
        && red land inst.pred_mask.(v) = inst.pred_mask.(v)
      then begin
        let comp' = if inst.cfg.Rbp.one_shot then comp lor b else comp in
        if n_red < r then
          put scratch emit (red lor b) blue comp' (code k_compute v) 0;
        (* SLIDE *)
        if inst.cfg.Rbp.sliding then begin
          let preds = ref inst.pred_mask.(v) in
          while !preds <> 0 do
            let u = Bits.lowest_set_index !preds in
            preds := !preds land (!preds - 1);
            put scratch emit
              (red lxor (1 lsl u) lor b)
              blue comp'
              (code k_slide v lor (u lsl 9))
              0
          done
        end
      end;
      (* DELETE.  Deleting an unsaved, still-needed value is a dead
         end in the one-shot game (pruned); deleting a recoverable
         value (blue-backed or re-computable) is postponed until the
         cache is actually full — extra cached copies only ever
         consume capacity, so this normalization preserves optimality.
         Obsolete values are cleaned up eagerly for free.
         [eager_deletes] disables the capacity normalization (for
         ablation measurements only). *)
      if
        (not inst.cfg.Rbp.no_delete)
        && red land b <> 0
        && (obsolete inst blue comp v
           || ((inst.eager_deletes || n_red = r)
              && ((not inst.cfg.Rbp.one_shot) || blue land b <> 0)))
      then put scratch emit (red lxor b) blue comp (code k_delete v) 0
    done

  let decode _ c =
    let v = (c lsr 3) land 63 in
    match c land 7 with
    | 0 -> RM.Load v
    | 1 -> RM.Save v
    | 2 -> RM.Compute v
    | 3 -> RM.Delete v
    | _ -> RM.Slide (c lsr 9, v)
end

module E = Engine.Make (G)

let inst ~eager_deletes cfg g =
  let n = Dag.n_nodes g in
  if n > 62 then invalid_arg "Exact_rbp: at most 62 nodes";
  let mask_of fold v = fold (fun u acc -> acc lor (1 lsl u)) g v 0 in
  {
    G.cfg;
    eager_deletes;
    n;
    pred_mask = Array.init n (mask_of Dag.fold_pred);
    succ_mask = Array.init n (mask_of Dag.fold_succ);
    sinks = List.fold_left (fun acc v -> acc lor (1 lsl v)) 0 (Dag.sinks g);
    sources =
      List.fold_left (fun acc v -> acc lor (1 lsl v)) 0 (Dag.sources g);
    srcs = Array.of_list (Dag.sources g);
    dag = g;
  }

let solve ?budget ?telemetry ?want_strategy ?prune ?(eager_deletes = false)
    ?jobs cfg g =
  E.solve ?budget ?telemetry ?want_strategy ?prune ?jobs
    (inst ~eager_deletes cfg g)
