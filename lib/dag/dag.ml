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
   node colors start uniform and, round by round, every node is
   re-colored by (its color, its sorted predecessor colors, its sorted
   successor colors), until a round splits no color class.  Signatures
   depend only on the isomorphism class, so the refined colors are
   invariant under relabeling.  When the stable partition is not
   discrete (the DAG has nontrivial candidate automorphisms), each node
   of the first ambiguous class in turn is individualized (given a
   color below every other) and refinement recurses, keeping the
   lexicographically smallest resulting encoding — the classic
   canonical-labeling search.  The branch budget [canon_fuel] bounds
   that search: highly symmetric DAGs (e.g. matmul cubes) fall back to
   breaking the remaining ties by node id, which is still deterministic
   and byte-stable, just no longer invariant under relabeling.

   The partition is an ordered node array cut into cells (McKay–Piperno
   style): a node's color is the position where its cell starts, so
   colors order the cells exactly as dense ranks of the same classes
   would, and a discrete partition's colors are the ids 0..n-1.  A
   round re-sorts only the cells that can split: a node's signature can
   only change if a neighbor's color did, and a round changes the color
   of just the members of the parts a cell split into after its first
   (the first keeps the cell's start), so only cells holding a neighbor
   of those are re-sorted, each in place, sub-cells ordered by
   signature.  An individualized node moves in front of every other
   cell; the other colors move monotonically, so only the node's
   neighbors' cells can split in the next round.  Every comparison —
   signatures, the first ambiguous cell, branch order, the fuel and the
   (color, id) fallback — therefore comes out as it does under a
   re-sort of every node by dense rank each round, and the bytes are
   the same.  All scratch belongs to one call: worker domains hash
   concurrently. *)

let canon_fuel = 64

(* An ordered partition: [order] lists the nodes cell by cell,
   [color.(v)] is the start of [v]'s cell in [order], and [cend.(s)]
   is the end (exclusive) of the cell starting at [s] (meaningless
   elsewhere). *)
type partition = { order : int array; color : int array; cend : int array }

(* The scratch of one call: the signatures of the cell being sorted
   (its members' sorted predecessor then successor colors, member i's
   from [sigs.(off.(i))]), and [mark.(s) = stamp] for the cells queued
   in the current round. *)
type scratch = {
  sigs : int array;
  off : int array;
  mark : int array;
  mutable stamp : int;
}

(* Sort [a.(lo) .. a.(hi-1)] ascending; neighbor lists are short. *)
let sort_range a lo hi =
  if hi - lo > 16 then begin
    let s = Array.sub a lo (hi - lo) in
    Array.sort Int.compare s;
    Array.blit s 0 a lo (hi - lo)
  end
  else
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

(* OCaml's order on int lists, on two runs of [a]: elementwise, a
   proper prefix first. *)
let compare_runs a i ilen j jlen =
  let rec go k =
    if k = ilen then if k = jlen then 0 else -1
    else if k = jlen then 1
    else
      let c = Int.compare a.(i + k) a.(j + k) in
      if c <> 0 then c else go (k + 1)
  in
  go 0

(* Re-sort the cell [s, e) of [p] by signature under the current
   colors, cut it where signatures differ, and return the starts of
   the new parts after the first.  Colors are left alone, so every cell
   of a round sees the colors of the last one. *)
let split_cell g { sigs; off; _ } p s e =
  let k = e - s in
  let members = Array.sub p.order s k in
  let pos = ref 0 in
  Array.iteri
    (fun i v ->
      off.(i) <- !pos;
      for slot = g.pred_off.(v) to g.pred_off.(v + 1) - 1 do
        sigs.(!pos) <- p.color.(g.pred_src.(slot));
        incr pos
      done;
      sort_range sigs off.(i) !pos;
      let mid = !pos in
      for slot = g.succ_off.(v) to g.succ_off.(v + 1) - 1 do
        sigs.(!pos) <- p.color.(g.succ_tgt.(slot));
        incr pos
      done;
      sort_range sigs mid !pos)
    members;
  let cmp i j =
    let u = members.(i) and v = members.(j) in
    let du = in_degree g u and dv = in_degree g v in
    let c = compare_runs sigs off.(i) du off.(j) dv in
    if c <> 0 then c
    else
      compare_runs sigs (off.(i) + du) (out_degree g u) (off.(j) + dv)
        (out_degree g v)
  in
  let idx = Array.init k Fun.id in
  Array.stable_sort cmp idx;
  let parts = ref [] and last = ref s in
  for q = 0 to k - 1 do
    p.order.(s + q) <- members.(idx.(q));
    if q > 0 && cmp idx.(q - 1) idx.(q) <> 0 then begin
      p.cend.(!last) <- s + q;
      last := s + q;
      parts := (s + q) :: !parts
    end
  done;
  p.cend.(!last) <- e;
  !parts

(* The non-singleton cells holding a neighbor of a member of the cells
   starting at [starts]. *)
let cells_around g sc p starts =
  sc.stamp <- sc.stamp + 1;
  let queued = ref [] in
  let visit w =
    let c = p.color.(w) in
    if p.cend.(c) > c + 1 && sc.mark.(c) <> sc.stamp then begin
      sc.mark.(c) <- sc.stamp;
      queued := c :: !queued
    end
  in
  List.iter
    (fun s ->
      for i = s to p.cend.(s) - 1 do
        let x = p.order.(i) in
        iter_pred visit g x;
        iter_succ visit g x
      done)
    starts;
  !queued

(* Refine [p] in place, one round per call, until a round splits
   nothing.  The members of the cells starting at [changed] have just
   changed color, so only the cells around them can split. *)
let rec refine g sc p changed =
  let parts =
    List.concat_map
      (fun s -> split_cell g sc p s p.cend.(s))
      (cells_around g sc p changed)
  in
  if parts <> [] then begin
    List.iter
      (fun s ->
        for i = s to p.cend.(s) - 1 do
          p.color.(p.order.(i)) <- s
        done)
      parts;
    refine g sc p parts
  end

(* [p] with [v], a member of the cell [s, e), moved in front of every
   other cell; cells before [s] shift up by one. *)
let individualize p v s e =
  let order = Array.copy p.order
  and color = Array.copy p.color
  and cend = Array.copy p.cend in
  order.(0) <- v;
  Array.blit p.order 0 order 1 s;
  for i = 0 to s - 1 do
    color.(p.order.(i)) <- p.color.(p.order.(i)) + 1
  done;
  let c = ref 0 in
  while !c < s do
    cend.(!c + 1) <- p.cend.(!c) + 1;
    c := p.cend.(!c)
  done;
  let j = ref (s + 1) in
  for i = s to e - 1 do
    let u = p.order.(i) in
    if u <> v then begin
      order.(!j) <- u;
      color.(u) <- s + 1;
      incr j
    end
  done;
  color.(v) <- 0;
  cend.(0) <- 1;
  cend.(s + 1) <- e;
  { order; color; cend }

(* Compact byte encoding of the graph under the node order [id_of]:
   node count then the sorted relabeled edge list.  This is what both
   the hash and the lexicographic branch comparison consume.  An edge
   (u, v) sorts as the key u·n + v. *)
let encode_under g id_of =
  let n = g.n in
  let keys =
    Array.init (n_edges g) (fun e -> (id_of.(g.esrc.(e)) * n) + id_of.(g.succ_tgt.(e)))
  in
  Array.sort Int.compare keys;
  let b = Buffer.create (16 + (Array.length keys * 8)) in
  Buffer.add_string b (string_of_int n);
  Array.iter
    (fun k ->
      Buffer.add_char b ';';
      Buffer.add_string b (string_of_int (k / n));
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int (k mod n)))
    keys;
  Buffer.contents b

(* Ties left by an exhausted search break by node id: each cell's
   members take its positions in increasing id order. *)
let ids_by_color_tiebreak p =
  let n = Array.length p.order in
  let order = Array.copy p.order in
  let s = ref 0 in
  while !s < n do
    sort_range order !s p.cend.(!s);
    s := p.cend.(!s)
  done;
  let id_of = Array.make n 0 in
  Array.iteri (fun i v -> id_of.(v) <- i) order;
  id_of

let rec canon_search g sc p fuel =
  let n = g.n in
  let s = ref 0 in
  while !s < n && p.cend.(!s) = !s + 1 do
    incr s
  done;
  if !s = n then
    (* discrete: the colors are the canonical ids *)
    (encode_under g p.color, p.color)
  else begin
    let s = !s in
    let e = p.cend.(s) in
    let members = Array.sub p.order s (e - s) in
    Array.sort Int.compare members;
    let best = ref None in
    Array.iter
      (fun v ->
        if !fuel > 0 then begin
          decr fuel;
          let p' = individualize p v s e in
          refine g sc p' [ 0 ];
          let enc = canon_search g sc p' fuel in
          match !best with
          | Some (b, _) when String.compare b (fst enc) <= 0 -> ()
          | _ -> best := Some enc
        end)
      members;
    match !best with
    | Some enc -> enc
    | None ->
        (* out of fuel before exploring any branch *)
        let id_of = ids_by_color_tiebreak p in
        (encode_under g id_of, id_of)
  end

let canonical g =
  let enc, order =
    if g.n = 0 then ("0", [||])
    else begin
      let n = g.n in
      let p =
        { order = Array.init n Fun.id; color = Array.make n 0; cend = Array.make n n }
      in
      let sc =
        {
          sigs = Array.make (2 * n_edges g) 0;
          off = Array.make n 0;
          mark = Array.make n 0;
          stamp = 0;
        }
      in
      (* every node just took color 0 *)
      refine g sc p [ 0 ];
      canon_search g sc p (ref canon_fuel)
    end
  in
  (Digest.to_hex (Digest.string enc), order)

let canonical_order g = snd (canonical g)

let hash g = fst (canonical g)

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
