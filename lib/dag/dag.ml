type node = int

type edge_id = int

type t = {
  n : int;
  succ_off : int array;  (* length n+1; out-edges of u are ids succ_off.(u) .. succ_off.(u+1)-1 *)
  succ_tgt : int array;  (* edge id -> destination node *)
  esrc : int array;      (* edge id -> source node *)
  pred_off : int array;
  pred_src : int array;  (* pred slot -> predecessor node *)
  pred_eid : int array;  (* pred slot -> edge id *)
  names : string array option;
  family : string option;
}

exception Cycle of node list

let n_nodes g = g.n

let family g = g.family

let with_family g family = { g with family }

let n_edges g = Array.length g.succ_tgt

let is_node g v = v >= 0 && v < g.n

let name g v =
  match g.names with
  | Some a when a.(v) <> "" -> a.(v)
  | _ -> "v" ^ string_of_int v

let edge_src g e = g.esrc.(e)

let edge_dst g e = g.succ_tgt.(e)

let in_degree g v = g.pred_off.(v + 1) - g.pred_off.(v)

let out_degree g v = g.succ_off.(v + 1) - g.succ_off.(v)

(* Out-edge targets within a node's CSR segment are sorted, so edge lookup
   is a binary search. *)
let edge_id g u v =
  let lo = ref g.succ_off.(u) and hi = ref (g.succ_off.(u + 1) - 1) in
  let found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = g.succ_tgt.(mid) in
    if w = v then begin
      found := mid;
      lo := !hi + 1
    end
    else if w < v then lo := mid + 1
    else hi := mid - 1
  done;
  if !found < 0 then raise Not_found else !found

let has_edge g u v =
  match edge_id g u v with _ -> true | exception Not_found -> false

let iter_edges f g =
  for e = 0 to n_edges g - 1 do
    f e g.esrc.(e) g.succ_tgt.(e)
  done

let edges g =
  let acc = ref [] in
  iter_edges (fun _ u v -> acc := (u, v) :: !acc) g;
  List.rev !acc

let iter_succ f g u =
  for i = g.succ_off.(u) to g.succ_off.(u + 1) - 1 do
    f g.succ_tgt.(i)
  done

let iter_succ_e f g u =
  for i = g.succ_off.(u) to g.succ_off.(u + 1) - 1 do
    f i g.succ_tgt.(i)
  done

let iter_pred f g v =
  for i = g.pred_off.(v) to g.pred_off.(v + 1) - 1 do
    f g.pred_src.(i)
  done

let iter_pred_e f g v =
  for i = g.pred_off.(v) to g.pred_off.(v + 1) - 1 do
    f g.pred_eid.(i) g.pred_src.(i)
  done

let fold_succ f g u init =
  let acc = ref init in
  iter_succ (fun v -> acc := f v !acc) g u;
  !acc

let fold_pred f g v init =
  let acc = ref init in
  iter_pred (fun u -> acc := f u !acc) g v;
  !acc

let succs g u = List.rev (fold_succ (fun v acc -> v :: acc) g u [])

let preds g v = List.rev (fold_pred (fun u acc -> u :: acc) g v [])

let is_source g v = in_degree g v = 0

let is_sink g v = out_degree g v = 0

let nodes_where p g =
  let acc = ref [] in
  for v = g.n - 1 downto 0 do
    if p g v then acc := v :: !acc
  done;
  !acc

let sources g = nodes_where is_source g

let sinks g = nodes_where is_sink g

let count_where p g =
  let c = ref 0 in
  for v = 0 to g.n - 1 do
    if p g v then incr c
  done;
  !c

let n_sources g = count_where is_source g

let n_sinks g = count_where is_sink g

let trivial_cost g = n_sources g + n_sinks g

let has_isolated_nodes g =
  let rec go v =
    v < g.n && ((in_degree g v = 0 && out_degree g v = 0) || go (v + 1))
  in
  go 0

let max_in_degree g =
  let m = ref 0 in
  for v = 0 to g.n - 1 do
    if in_degree g v > !m then m := in_degree g v
  done;
  !m

let max_out_degree g =
  let m = ref 0 in
  for v = 0 to g.n - 1 do
    if out_degree g v > !m then m := out_degree g v
  done;
  !m

(* Cycle detection by iterative DFS with colors; returns one cycle. *)
let find_cycle n succ_of =
  let color = Array.make n 0 in
  (* 0 white, 1 gray, 2 black *)
  let parent = Array.make n (-1) in
  let cycle = ref None in
  let rec dfs v =
    color.(v) <- 1;
    List.iter
      (fun w ->
        if !cycle = None then
          if color.(w) = 0 then begin
            parent.(w) <- v;
            dfs w
          end
          else if color.(w) = 1 then begin
            (* found a back edge v -> w: walk parents from v back to w *)
            let rec collect u acc =
              if u = w then w :: acc else collect parent.(u) (u :: acc)
            in
            cycle := Some (collect v [])
          end)
      (succ_of v);
    color.(v) <- 2
  in
  let v = ref 0 in
  while !cycle = None && !v < n do
    if color.(!v) = 0 then dfs !v;
    incr v
  done;
  !cycle

let make ?names ?family ~n edge_list =
  if n < 0 then invalid_arg "Dag.make: negative node count";
  (match names with
  | Some a when Array.length a <> n ->
      invalid_arg "Dag.make: names array length mismatch"
  | _ -> ());
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg
          (Printf.sprintf "Dag.make: edge (%d,%d) out of range [0,%d)" u v n);
      if u = v then
        invalid_arg (Printf.sprintf "Dag.make: self-loop on node %d" u))
    edge_list;
  let seen = Hashtbl.create (List.length edge_list) in
  List.iter
    (fun (u, v) ->
      if Hashtbl.mem seen (u, v) then
        invalid_arg (Printf.sprintf "Dag.make: duplicate edge (%d,%d)" u v);
      Hashtbl.add seen (u, v) ())
    edge_list;
  let m = List.length edge_list in
  let out_deg = Array.make n 0 and in_deg = Array.make n 0 in
  List.iter
    (fun (u, v) ->
      out_deg.(u) <- out_deg.(u) + 1;
      in_deg.(v) <- in_deg.(v) + 1)
    edge_list;
  let succ_off = Array.make (n + 1) 0 and pred_off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    succ_off.(v + 1) <- succ_off.(v) + out_deg.(v);
    pred_off.(v + 1) <- pred_off.(v) + in_deg.(v)
  done;
  let succ_tgt = Array.make m 0 and esrc = Array.make m 0 in
  let fill = Array.copy succ_off in
  (* sort edges by (src, dst) so each CSR segment is sorted for lookup *)
  let sorted = List.sort compare edge_list in
  List.iter
    (fun (u, v) ->
      succ_tgt.(fill.(u)) <- v;
      esrc.(fill.(u)) <- u;
      fill.(u) <- fill.(u) + 1)
    sorted;
  let pred_src = Array.make m 0 and pred_eid = Array.make m 0 in
  let pfill = Array.copy pred_off in
  for e = 0 to m - 1 do
    let u = esrc.(e) and v = succ_tgt.(e) in
    pred_src.(pfill.(v)) <- u;
    pred_eid.(pfill.(v)) <- e;
    pfill.(v) <- pfill.(v) + 1
  done;
  let g =
    { n; succ_off; succ_tgt; esrc; pred_off; pred_src; pred_eid; names; family }
  in
  (match find_cycle n (fun v -> succs g v) with
  | Some c -> raise (Cycle c)
  | None -> ());
  g

let reverse g =
  make ~n:g.n ?names:g.names
    (List.rev_map (fun (u, v) -> (v, u)) (edges g))

let induced g keep =
  if Bitset.capacity keep <> g.n then
    invalid_arg "Dag.induced: bitset capacity mismatch";
  let old_of_new = Array.of_list (Bitset.to_list keep) in
  let n' = Array.length old_of_new in
  let new_of_old = Array.make g.n (-1) in
  Array.iteri (fun i v -> new_of_old.(v) <- i) old_of_new;
  let es = ref [] in
  iter_edges
    (fun _ u v ->
      if new_of_old.(u) >= 0 && new_of_old.(v) >= 0 then
        es := (new_of_old.(u), new_of_old.(v)) :: !es)
    g;
  let names =
    Option.map (fun a -> Array.map (fun v -> a.(v)) old_of_new) g.names
  in
  (make ?names ~n:n' !es, old_of_new)

(* ------------------------------------------------------------------ *)
(* Canonical order and content hash.

   Weisfeiler–Leman color refinement with individualize-and-refine:
   node colors start uniform and are repeatedly replaced by the dense
   rank of (old color, sorted predecessor colors, sorted successor
   colors) until the partition stops splitting.  Signatures depend only
   on the isomorphism class, so the refined ranks are invariant under
   relabeling.  When the stable partition is not discrete (the DAG has
   nontrivial candidate automorphisms), one node of the first ambiguous
   class is individualized and refinement recurses, keeping the
   lexicographically smallest resulting encoding — the classic
   canonical-labeling search.  The branch budget [canon_fuel] bounds
   that search: highly symmetric DAGs (e.g. matmul cubes) fall back to
   breaking the remaining ties by node id, which is still deterministic
   and byte-stable, just no longer invariant under relabeling.  *)

let canon_fuel = 64

(* One refinement round: permutation-invariant dense re-ranking. *)
let refine g rank =
  let n = g.n in
  let sig_of v =
    let ps =
      List.sort compare (fold_pred (fun u acc -> rank.(u) :: acc) g v [])
    in
    let ss =
      List.sort compare (fold_succ (fun u acc -> rank.(u) :: acc) g v [])
    in
    (rank.(v), ps, ss)
  in
  let sigs = Array.init n sig_of in
  let sorted = Array.copy sigs in
  Array.sort compare sorted;
  let tbl = Hashtbl.create (2 * n) in
  let c = ref (-1) in
  Array.iter
    (fun s ->
      if not (Hashtbl.mem tbl s) then begin
        incr c;
        Hashtbl.add tbl s !c
      end)
    sorted;
  (Array.map (fun s -> Hashtbl.find tbl s) sigs, !c + 1)

let rec refine_fixpoint g rank classes =
  let rank', classes' = refine g rank in
  if classes' = classes then (rank', classes')
  else refine_fixpoint g rank' classes'

(* Compact byte encoding of the graph under the node order [id_of]:
   node count then the sorted relabeled edge list.  This is what both
   the hash and the lexicographic branch comparison consume. *)
let encode_under g id_of =
  let m = n_edges g in
  let es = Array.make m (0, 0) in
  iter_edges (fun e u v -> es.(e) <- (id_of.(u), id_of.(v))) g;
  Array.sort compare es;
  let b = Buffer.create (16 + (m * 8)) in
  Buffer.add_string b (string_of_int g.n);
  Array.iter
    (fun (u, v) ->
      Buffer.add_char b ';';
      Buffer.add_string b (string_of_int u);
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int v))
    es;
  Buffer.contents b

(* Ties left by an exhausted search break by node id: stable sort of
   nodes under (rank, id) yields the final ids. *)
let ids_by_rank_tiebreak g rank =
  let order = Array.init g.n (fun v -> (rank.(v), v)) in
  Array.sort compare order;
  let id_of = Array.make g.n 0 in
  Array.iteri (fun i (_, v) -> id_of.(v) <- i) order;
  id_of

(* Smallest ambiguous color class, by color value; [None] if the
   partition is discrete. *)
let first_ambiguous rank classes =
  let count = Array.make classes 0 in
  Array.iter (fun r -> count.(r) <- count.(r) + 1) rank;
  let rec go c = if c >= classes then None else if count.(c) > 1 then Some c else go (c + 1) in
  go 0

let rec canon_search g rank classes fuel =
  let rank, classes = refine_fixpoint g rank classes in
  match first_ambiguous rank classes with
  | None ->
      (* discrete: rank is the canonical id assignment *)
      (encode_under g rank, rank)
  | Some target ->
      let members = ref [] in
      for v = g.n - 1 downto 0 do
        if rank.(v) = target then members := v :: !members
      done;
      let best = ref None in
      List.iter
        (fun v ->
          if !fuel > 0 then begin
            decr fuel;
            (* [-1] is the same fresh color whichever member we pick,
               so the branches stay comparable across relabelings *)
            let rank' = Array.copy rank in
            rank'.(v) <- -1;
            let enc = canon_search g rank' classes fuel in
            match !best with
            | Some (e, _) when compare e (fst enc) <= 0 -> ()
            | _ -> best := Some enc
          end)
        !members;
      (match !best with
      | Some enc -> enc
      | None ->
          (* out of fuel before exploring any branch *)
          let id_of = ids_by_rank_tiebreak g rank in
          (encode_under g id_of, id_of))

let canonical_parts g =
  if g.n = 0 then ("0", [||])
  else canon_search g (Array.make g.n 0) 1 (ref canon_fuel)

let canonical_order g = snd (canonical_parts g)

let hash g = Digest.to_hex (Digest.string (fst (canonical_parts g)))

let pp ppf g =
  Format.fprintf ppf "dag(n=%d, m=%d, sources=%d, sinks=%d, Δin=%d, Δout=%d)"
    (n_nodes g) (n_edges g) (n_sources g) (n_sinks g) (max_in_degree g)
    (max_out_degree g)

let pp_full ppf g =
  pp ppf g;
  for v = 0 to g.n - 1 do
    Format.fprintf ppf "@\n  %s ->" (name g v);
    iter_succ (fun w -> Format.fprintf ppf " %s" (name g w)) g v
  done
