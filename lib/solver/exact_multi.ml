module Dag = Prbp_dag.Dag
module Multi = Prbp_pebble.Multi

(* The multiprocessor games as engine instances.  Both pack one search
   state as a short int array of per-processor pebble masks plus the
   shared blue/progress masks:

     RBP-MC   [| red_0; …; red_{p-1}; blue; computed |]      (p + 2)
     PRBP-MC  [| light_0; …; light_{p-1};
                 dark_0; …; dark_{p-1}; blue; marked |]      (2p + 2)

   Processors are interchangeable (same capacity r), so states that
   differ only by a permutation of the per-processor masks are
   equivalent; when no strategy is requested the successor masks are
   sorted into a canonical order before insertion, shrinking the
   reachable space by up to p!.  With strategy reconstruction the
   sorting is disabled — moves name concrete processors, and a
   permuted parent chain would not replay through {!Multi.R.check} /
   {!Multi.P.check}. *)

let sort2 (a : int array) lo len =
  (* insertion sort of a[lo .. lo+len-1]; p is tiny *)
  for i = lo + 1 to lo + len - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let check_cfg ~what (cfg : Multi.config) =
  if cfg.Multi.p > 8 then invalid_arg (what ^ ": at most 8 processors")

(* Move codes of both games: the low 2 bits are the kind, bits 2-7 the
   node (for a PRBP-MC compute, the id of the edge it marks), bits 8
   and up the processor. *)
let[@inline] code k q x = k lor (x lsl 2) lor (q lsl 8)

(* The successor starts as a copy of the current state: a scalar loop,
   not one [Array.blit] C call per successor. *)
let[@inline] copy_state cur scratch w =
  for i = 0 to w - 1 do
    Array.unsafe_set scratch i (Array.unsafe_get cur i)
  done

(* {1 RBP-MC} *)

module GR = struct
  type inst = {
    cfg : Multi.config;
    canon : bool;
    n : int;
    pred_mask : int array;
    succ_mask : int array;
    sinks : int;
    sources : int;
    srcs : int array;
    dag : Dag.t;
  }

  type move = Multi.Move.rbp

  let name = "multi-rbp"

  let k_load = 0
  and k_save = 1
  and k_compute = 2
  and k_delete = 3

  let width inst = inst.cfg.Multi.p + 2

  let write_init inst buf =
    let p = inst.cfg.Multi.p in
    Array.fill buf 0 p 0;
    buf.(p) <- inst.sources;
    buf.(p + 1) <- 0

  let is_goal inst buf =
    buf.(inst.cfg.Multi.p) land inst.sinks = inst.sinks

  (* Admissible: every not-yet-blue sink still costs a SAVE (on some
     processor), and every source that is red nowhere but still feeds
     an uncomputed node costs a LOAD (sources cannot be computed).
     Distinct moves on distinct nodes, so the sum bounds cost-to-go. *)
  let residual_lb inst buf =
    let p = inst.cfg.Multi.p in
    let blue = buf.(p) and comp = buf.(p + 1) in
    let all_red = ref 0 in
    for q = 0 to p - 1 do
      all_red := !all_red lor buf.(q)
    done;
    let all_red = !all_red in
    let lb = ref (Bits.popcount (inst.sinks land lnot blue)) in
    for i = 0 to Array.length inst.srcs - 1 do
      let s = Array.unsafe_get inst.srcs i in
      if all_red land (1 lsl s) = 0 && inst.succ_mask.(s) land lnot comp <> 0
      then incr lb
    done;
    !lb

  (* Any single-processor strategy is a p-processor strategy played
     entirely on processor 0 ({!Multi.lift_rbp}), so OPT_p ≤ OPT_1 ≤
     the single-processor heuristic's cost. *)
  let incumbent inst =
    Option.map
      (fun (c, moves) -> (c, Multi.lift_rbp moves))
      (Heuristic.rbp_incumbent ~r:inst.cfg.Multi.r inst.dag)

  let obsolete inst blue comp v =
    inst.succ_mask.(v) land lnot comp = 0
    && (inst.sinks land (1 lsl v) = 0 || blue land (1 lsl v) <> 0)

  (* hand the successor in [scratch] to the engine, processor masks
     sorted first when canonicalizing *)
  let[@inline] fin inst scratch emit code cost01 =
    if inst.canon then sort2 scratch 0 inst.cfg.Multi.p;
    emit code cost01

  let expand inst cur ~scratch ~emit =
    let p = inst.cfg.Multi.p and r = inst.cfg.Multi.r in
    let w = p + 2 in
    let blue = cur.(p) and comp = cur.(p + 1) in
    for q = 0 to p - 1 do
      let red = cur.(q) in
      let n_red = Bits.popcount red in
      for v = 0 to inst.n - 1 do
        let b = 1 lsl v in
        (* LOAD onto processor q *)
        if
          blue land b <> 0
          && red land b = 0
          && n_red < r
          && not (obsolete inst blue comp v)
        then begin
          copy_state cur scratch w;
          scratch.(q) <- red lor b;
          fin inst scratch emit (code k_load q v) 1
        end;
        (* SAVE from processor q *)
        if red land b <> 0 && blue land b = 0 && not (obsolete inst blue comp v)
        then begin
          copy_state cur scratch w;
          scratch.(p) <- blue lor b;
          fin inst scratch emit (code k_save q v) 1
        end;
        (* COMPUTE on processor q: all inputs red locally *)
        if
          inst.sources land b = 0
          && red land b = 0
          && comp land b = 0
          && red land inst.pred_mask.(v) = inst.pred_mask.(v)
          && n_red < r
        then begin
          copy_state cur scratch w;
          scratch.(q) <- red lor b;
          scratch.(p + 1) <- comp lor b;
          fin inst scratch emit (code k_compute q v) 0
        end;
        (* DELETE from processor q: recoverable copies only once the
           local cache is full; obsolete copies cleaned up for free
           (same normalization as the single-processor instance) *)
        if
          red land b <> 0
          && (obsolete inst blue comp v
             || (n_red = r && blue land b <> 0))
        then begin
          copy_state cur scratch w;
          scratch.(q) <- red lxor b;
          fin inst scratch emit (code k_delete q v) 0
        end
      done
    done

  let decode _ c : move =
    let q = c lsr 8 and v = (c lsr 2) land 63 in
    match c land 3 with
    | 0 -> Multi.Move.Load (q, v)
    | 1 -> Multi.Move.Save (q, v)
    | 2 -> Multi.Move.Compute (q, v)
    | _ -> Multi.Move.Delete (q, v)
end

module ER = Engine.Make (GR)

let rbp_inst ~canon (cfg : Multi.config) g =
  check_cfg ~what:"Exact_multi (rbp)" cfg;
  let n = Dag.n_nodes g in
  if n > 62 then invalid_arg "Exact_multi (rbp): at most 62 nodes";
  let mask_of fold v = fold (fun u acc -> acc lor (1 lsl u)) g v 0 in
  {
    GR.cfg;
    canon;
    n;
    pred_mask = Array.init n (mask_of Dag.fold_pred);
    succ_mask = Array.init n (mask_of Dag.fold_succ);
    sinks = List.fold_left (fun acc v -> acc lor (1 lsl v)) 0 (Dag.sinks g);
    sources =
      List.fold_left (fun acc v -> acc lor (1 lsl v)) 0 (Dag.sources g);
    srcs = Array.of_list (Dag.sources g);
    dag = g;
  }

(* A replayable strategy names concrete processors, so it switches the
   processor canonicalization off. *)
let rbp_solve ?budget ?telemetry ?(want_strategy = false) ?prune ?jobs cfg g =
  ER.solve ?budget ?telemetry ~want_strategy ?prune ?jobs
    (rbp_inst ~canon:(not want_strategy) cfg g)

(* {1 PRBP-MC} *)

module GP = struct
  type inst = {
    cfg : Multi.config;
    canon : bool;
    n : int;
    esrc : int array;
    edst : int array;
    in_mask : int array;  (* per node: mask of in-edge ids *)
    out_mask : int array;
    sink_mask : int;
    source_mask : int;
    full_edges : int;
    dag : Dag.t;
  }

  type move = Multi.Move.prbp

  let name = "multi-prbp"

  let k_load = 0
  and k_save = 1
  and k_delete = 2
  and k_compute = 3

  let width inst = (2 * inst.cfg.Multi.p) + 2

  let write_init inst buf =
    let p = inst.cfg.Multi.p in
    Array.fill buf 0 (2 * p) 0;
    buf.(2 * p) <- inst.source_mask;
    buf.(2 * p + 1) <- 0

  let is_goal inst buf =
    let p = inst.cfg.Multi.p in
    buf.(2 * p + 1) = inst.full_edges
    && buf.(2 * p) land inst.sink_mask = inst.sink_mask

  (* Admissible: sinks without blue still cost a SAVE; sources red
     nowhere with an unmarked out-edge still cost a LOAD (a source is
     never a compute target — it has no in-edges). *)
  let residual_lb inst buf =
    let p = inst.cfg.Multi.p in
    let blue = buf.(2 * p) and marked = buf.(2 * p + 1) in
    let all_red = ref 0 in
    for q = 0 to (2 * p) - 1 do
      all_red := !all_red lor buf.(q)
    done;
    let all_red = !all_red in
    let lb = ref (Bits.popcount (inst.sink_mask land lnot blue)) in
    let m = ref inst.source_mask in
    while !m <> 0 do
      let v = Bits.lowest_set_index !m in
      m := !m land (!m - 1);
      if all_red land (1 lsl v) = 0 && inst.out_mask.(v) land lnot marked <> 0
      then incr lb
    done;
    !lb

  (* the single-processor heuristics lifted onto processor 0, as for
     RBP-MC *)
  let incumbent inst =
    Option.map
      (fun (c, moves) -> (c, Multi.lift_prbp moves))
      (Heuristic.prbp_incumbent ~r:inst.cfg.Multi.r inst.dag)

  let canonicalize inst scratch =
    (* sort the (light_q, dark_q) pairs lexicographically *)
    let p = inst.cfg.Multi.p in
    for i = 1 to p - 1 do
      let l = scratch.(i) and d = scratch.(p + i) in
      let j = ref (i - 1) in
      while
        !j >= 0
        && (scratch.(!j) > l || (scratch.(!j) = l && scratch.(p + !j) > d))
      do
        scratch.(!j + 1) <- scratch.(!j);
        scratch.(p + !j + 1) <- scratch.(p + !j);
        decr j
      done;
      scratch.(!j + 1) <- l;
      scratch.(p + !j + 1) <- d
    done

  (* hand the successor in [scratch] to the engine, processor pairs
     sorted first when canonicalizing *)
  let[@inline] fin inst scratch emit code cost01 =
    if inst.canon then canonicalize inst scratch;
    emit code cost01

  let[@inline] fully_used inst marked v =
    inst.out_mask.(v) land lnot marked = 0

  let expand inst cur ~scratch ~emit =
    let p = inst.cfg.Multi.p and r = inst.cfg.Multi.r in
    let w = (2 * p) + 2 in
    let blue = cur.(2 * p) and marked = cur.(2 * p + 1) in
    let all_dark = ref 0 and all_light = ref 0 in
    for q = 0 to p - 1 do
      all_light := !all_light lor cur.(q);
      all_dark := !all_dark lor cur.(p + q)
    done;
    let all_dark = !all_dark and all_light = !all_light in
    for q = 0 to p - 1 do
      let light = cur.(q) and dark = cur.(p + q) in
      let n_red = Bits.popcount (light lor dark) in
      for v = 0 to inst.n - 1 do
        let b = 1 lsl v in
        (* LOAD: a light copy of a blue value; useless once every
           out-edge is marked (sinks are then already blue) *)
        if blue land b <> 0 && light land b = 0 && n_red < r
           && not (fully_used inst marked v)
        then begin
          copy_state cur scratch w;
          scratch.(q) <- light lor b;
          fin inst scratch emit (code k_load q v) 1
        end;
        (* SAVE: dark -> blue + light on the same processor; useful
           only for sinks or while some out-edge is unmarked *)
        if
          dark land b <> 0
          && ((not (fully_used inst marked v)) || inst.sink_mask land b <> 0)
        then begin
          copy_state cur scratch w;
          scratch.(q) <- light lor b;
          scratch.(p + q) <- dark lxor b;
          scratch.(2 * p) <- blue lor b;
          fin inst scratch emit (code k_save q v) 1
        end;
        (* DELETE a light copy: blue-backed, so recoverable — deferred
           until the local cache is full; fully-used copies are cleaned
           up eagerly for free *)
        if light land b <> 0 && (n_red = r || fully_used inst marked v)
        then begin
          copy_state cur scratch w;
          scratch.(q) <- light lxor b;
          fin inst scratch emit (code k_delete q v) 0
        end;
        (* DELETE a dark pebble: only once fully used (the rule
           engine's requirement); deleting a dark sink loses its value
           for good — a dead end we prune *)
        if
          dark land b <> 0
          && fully_used inst marked v
          && inst.sink_mask land b = 0
        then begin
          copy_state cur scratch w;
          scratch.(p + q) <- dark lxor b;
          fin inst scratch emit (code k_delete q v) 0
        end
      done;
      (* PARTIAL COMPUTE on processor q along each unmarked edge *)
      let rest = ref (inst.full_edges land lnot marked) in
      while !rest <> 0 do
        let e = Bits.lowest_set_index !rest in
        rest := !rest land (!rest - 1);
        let u = inst.esrc.(e) and v = inst.edst.(e) in
        let bu = 1 lsl u and bv = 1 lsl v in
        if
          (light lor dark) land bu <> 0 (* u red on q *)
          && inst.in_mask.(u) land lnot marked = 0 (* u fully computed *)
        then begin
          let resident = (light lor dark) land bv <> 0 in
          (* target: dark/light on q, or stored nowhere.  A dark copy
             on another processor leaves v neither resident nor
             storeless (dark excludes blue and light), so both
             disjuncts already reject it. *)
          if
            resident
            || ((all_dark lor all_light lor blue) land bv = 0
               && n_red < r)
          then begin
            copy_state cur scratch w;
            (* every other copy of v is now stale *)
            for q' = 0 to p - 1 do
              scratch.(q') <- scratch.(q') land lnot bv;
              scratch.(p + q') <- scratch.(p + q') land lnot bv
            done;
            scratch.(p + q) <- scratch.(p + q) lor bv;
            scratch.(2 * p) <- scratch.(2 * p) land lnot bv;
            scratch.(2 * p + 1) <- marked lor (1 lsl e);
            fin inst scratch emit (code k_compute q e) 0
          end
        end
      done
    done

  let decode inst c : move =
    let q = c lsr 8 and x = (c lsr 2) land 63 in
    match c land 3 with
    | 0 -> Multi.Move.Load (q, x)
    | 1 -> Multi.Move.Save (q, x)
    | 2 -> Multi.Move.Delete (q, x)
    | _ -> Multi.Move.Compute (q, (inst.esrc.(x), inst.edst.(x)))
end

module EP = Engine.Make (GP)

let prbp_inst ~canon (cfg : Multi.config) g =
  check_cfg ~what:"Exact_multi (prbp)" cfg;
  let n = Dag.n_nodes g and m = Dag.n_edges g in
  if n > 62 then invalid_arg "Exact_multi (prbp): at most 62 nodes";
  if m > 62 then invalid_arg "Exact_multi (prbp): at most 62 edges";
  let in_mask = Array.make n 0 and out_mask = Array.make n 0 in
  let esrc = Array.make m 0 and edst = Array.make m 0 in
  Dag.iter_edges
    (fun e u v ->
      esrc.(e) <- u;
      edst.(e) <- v;
      out_mask.(u) <- out_mask.(u) lor (1 lsl e);
      in_mask.(v) <- in_mask.(v) lor (1 lsl e))
    g;
  {
    GP.cfg;
    canon;
    n;
    esrc;
    edst;
    in_mask;
    out_mask;
    sink_mask =
      List.fold_left (fun acc v -> acc lor (1 lsl v)) 0 (Dag.sinks g);
    source_mask =
      List.fold_left (fun acc v -> acc lor (1 lsl v)) 0 (Dag.sources g);
    full_edges = (if m = 0 then 0 else (1 lsl m) - 1);
    dag = g;
  }

let prbp_solve ?budget ?telemetry ?(want_strategy = false) ?prune ?jobs cfg g =
  EP.solve ?budget ?telemetry ~want_strategy ?prune ?jobs
    (prbp_inst ~canon:(not want_strategy) cfg g)
