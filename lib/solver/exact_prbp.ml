module Dag = Prbp_dag.Dag
module Prbp = Prbp_pebble.Prbp
module PM = Prbp_pebble.Move.P


(* The PRBP instance of the generic engine.  Pebble states are packed
   2 bits per node:
     00 = no pebble, 01 = blue, 11 = blue + light red, 10 = dark red.
   Bit 0 of the pair = "has blue", bit 1 = "has red": both game
   predicates become single-mask tests.  A search state is the
   (pack, marked) pair, packed as 2 ints. *)
let st_none = 0
and st_blue = 1
and st_dark = 2
and st_bl = 3

(* Move codes: the low 3 bits are the kind (0 load, 1 save, 2 delete,
   3 clear, 4 compute), the rest the node — for a compute, the id of
   the edge it marks, from which [decode] reads (u, v). *)
let k_load = 0
and k_save = 1
and k_delete = 2
and k_clear = 3
and k_compute = 4

let[@inline] code k x = k lor (x lsl 3)

(* Store a successor and hand it to the engine: a top-level function
   rather than a closure in [expand], so the hot loop allocates
   nothing. *)
let[@inline] put scratch emit p m code cost01 =
  (* scratch is engine-allocated at exactly [width inst] *)
  Array.unsafe_set scratch 0 p;
  Array.unsafe_set scratch 1 m;
  emit code cost01

module G = struct
  type inst = {
    cfg : Prbp.config;
    eager_deletes : bool;
    n : int;
    esrc : int array;
    edst : int array;
    in_mask : int array;  (* per node: mask of in-edge ids *)
    out_mask : int array;
    red_bits : int;  (* bit 2v+1 for every node v *)
    sink_mask : int;  (* node mask *)
    source_mask : int;
    full_edges : int;
    init_pack : int;
    dag : Dag.t;
  }

  type move = PM.t

  let name = "prbp"

  let width _ = 2

  let write_init inst buf =
    buf.(0) <- inst.init_pack;
    buf.(1) <- 0

  let node_state pack v = (pack lsr (2 * v)) land 3

  let set_node_state pack v s =
    pack land lnot (3 lsl (2 * v)) lor (s lsl (2 * v))

  let is_goal inst buf =
    let pack = buf.(0) and marked = buf.(1) in
    marked = inst.full_edges
    &&
    let ok = ref true in
    for v = 0 to inst.n - 1 do
      if inst.sink_mask land (1 lsl v) <> 0 && node_state pack v land 1 = 0
      then ok := false
    done;
    !ok

  (* Admissible residual bound: every sink without a blue pebble still
     costs one SAVE, and every source that is not red but still has an
     unmarked out-edge costs one LOAD (sources can only become red by
     loading).  Distinct moves on distinct nodes, so the sum lower
     bounds the cost-to-go — also under re-computation, where it only
     counts currently-unmarked edges. *)
  let residual_lb inst buf =
    let pack = buf.(0) and marked = buf.(1) in
    let lb = ref 0 in
    let m = ref inst.sink_mask in
    while !m <> 0 do
      let v = Bits.lowest_set_index !m in
      m := !m land (!m - 1);
      if (pack lsr (2 * v)) land 1 = 0 then incr lb
    done;
    let m = ref inst.source_mask in
    while !m <> 0 do
      let v = Bits.lowest_set_index !m in
      m := !m land (!m - 1);
      if
        (pack lsr (2 * v)) land 2 = 0
        && Array.unsafe_get inst.out_mask v land lnot marked <> 0
      then incr lb
    done;
    !lb

  (* Both heuristic pebblers play the standard one-shot game, legal in
     every variant except no-delete (re-computation only adds moves),
     so their cost bounds OPT from above there; the no-delete variant
     has no incumbent. *)
  let incumbent inst =
    if inst.cfg.Prbp.no_delete then None
    else Heuristic.prbp_incumbent ~r:inst.cfg.Prbp.r inst.dag

  let expand inst cur ~scratch ~emit =
    let pack = cur.(0) and marked = cur.(1) in
    (* hot loop: hoist the loop-invariant loads; the per-node/per-edge
       arrays are sized n/m at construction, every index is a node or
       edge id *)
    let r = inst.cfg.Prbp.r in
    let out_mask = inst.out_mask in
    let n_red = Bits.popcount (pack land inst.red_bits) in
    for v = 0 to inst.n - 1 do
      let s = node_state pack v in
      let fully_used = Array.unsafe_get out_mask v land lnot marked = 0 in
      (* LOAD: blue only -> blue+light; useless once all out-edges are
         marked (covers sinks: they are already blue) *)
      if s = st_blue && n_red < r && not fully_used then
        put scratch emit (set_node_state pack v st_bl) marked (code k_load v) 1;
      (* SAVE: dark -> blue+light; useful only for sinks or while some
         out-edge is still unmarked *)
      if
        s = st_dark
        && ((not fully_used) || inst.sink_mask land (1 lsl v) <> 0)
      then
        put scratch emit (set_node_state pack v st_bl) marked (code k_save v) 1;
      (* DELETE light red: a cached copy of a value that is also in
         slow memory only ever consumes capacity, so deleting it is
         postponed until the cache is full (a normalization that
         preserves optimality and shrinks the search space);
         fully-used copies are cleaned up eagerly for free *)
      if
        s = st_bl
        && (inst.eager_deletes || n_red = r || fully_used)
      then
        put scratch emit
          (set_node_state pack v st_blue)
          marked (code k_delete v) 0;
      (* DELETE dark red: only when fully used; deleting a dark sink
         loses its final value for good — a dead end we prune *)
      if
        s = st_dark
        && (not inst.cfg.Prbp.no_delete)
        && fully_used
        && inst.sink_mask land (1 lsl v) = 0
      then
        put scratch emit
          (set_node_state pack v st_none)
          marked (code k_delete v) 0;
      (* CLEAR (re-computation variant): drop all pebbles from an
         internal node and unmark its in-edges, allowing the value to
         be rebuilt from scratch later.  Skipped when a no-op. *)
      if
        inst.cfg.Prbp.recompute
        && inst.source_mask land (1 lsl v) = 0
        && inst.sink_mask land (1 lsl v) = 0
        && (s <> st_none || inst.in_mask.(v) land marked <> 0)
      then
        put scratch emit
          (set_node_state pack v st_none)
          (marked land lnot inst.in_mask.(v))
          (code k_clear v) 0
    done;
    (* PARTIAL COMPUTE on each unmarked edge *)
    let esrc = inst.esrc and edst = inst.edst and in_mask = inst.in_mask in
    let rest = ref (inst.full_edges land lnot marked) in
    while !rest <> 0 do
      let e = Bits.lowest_set_index !rest in
      rest := !rest land (!rest - 1);
      let u = Array.unsafe_get esrc e and v = Array.unsafe_get edst e in
      let su = node_state pack u in
      if
        su land 2 <> 0 (* u has red *)
        && Array.unsafe_get in_mask u land lnot marked = 0
        (* u fully computed *)
      then begin
        let sv = node_state pack v in
        if sv <> st_blue && (sv <> st_none || n_red < r) then
          put scratch emit
            (set_node_state pack v st_dark)
            (marked lor (1 lsl e))
            (code k_compute e) 0
      end
    done

  let decode inst c =
    let x = c lsr 3 in
    match c land 7 with
    | 0 -> PM.Load x
    | 1 -> PM.Save x
    | 2 -> PM.Delete x
    | 3 -> PM.Clear x
    | _ -> PM.Compute (inst.esrc.(x), inst.edst.(x))
end

module E = Engine.Make (G)

let inst ~eager_deletes cfg g =
  let n = Dag.n_nodes g and m = Dag.n_edges g in
  if n > 31 then invalid_arg "Exact_prbp: at most 31 nodes";
  if m > 62 then invalid_arg "Exact_prbp: at most 62 edges";
  let in_mask = Array.make n 0 and out_mask = Array.make n 0 in
  let esrc = Array.make m 0 and edst = Array.make m 0 in
  Dag.iter_edges
    (fun e u v ->
      esrc.(e) <- u;
      edst.(e) <- v;
      out_mask.(u) <- out_mask.(u) lor (1 lsl e);
      in_mask.(v) <- in_mask.(v) lor (1 lsl e))
    g;
  let red_bits = ref 0 and sink_mask = ref 0 and init_pack = ref 0 in
  let source_mask = ref 0 in
  for v = 0 to n - 1 do
    red_bits := !red_bits lor (1 lsl ((2 * v) + 1));
    if Dag.is_sink g v then sink_mask := !sink_mask lor (1 lsl v);
    if Dag.is_source g v then begin
      source_mask := !source_mask lor (1 lsl v);
      init_pack := !init_pack lor (st_blue lsl (2 * v))
    end
  done;
  {
    G.cfg;
    eager_deletes;
    n;
    esrc;
    edst;
    in_mask;
    out_mask;
    red_bits = !red_bits;
    sink_mask = !sink_mask;
    source_mask = !source_mask;
    full_edges = (if m = 0 then 0 else (1 lsl m) - 1);
    init_pack = !init_pack;
    dag = g;
  }

let solve ?budget ?telemetry ?want_strategy ?prune ?(eager_deletes = false)
    ?jobs cfg g =
  E.solve ?budget ?telemetry ?want_strategy ?prune ?jobs
    (inst ~eager_deletes cfg g)
