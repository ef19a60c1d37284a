module Dag = Prbp_dag.Dag
module Bitset = Prbp_dag.Bitset
module Solver = Prbp_solver.Solver
module Minpart = Prbp_partition.Minpart
module Closed_form = Prbp_graphs.Closed_form
module Span = Prbp_obs.Span

type game = Rbp | Prbp

let game_label = function Rbp -> "rbp" | Prbp -> "prbp"

let game_variant = function Rbp -> `Rbp | Prbp -> `Prbp

type result = {
  label : string;
  bound : int;
  witness : Segment.t option;
  truncated : bool;
}

module type RULE = sig
  val name : string

  val games : game list

  val share : int

  val applies :
    budget:Solver.Budget.t -> game:game -> r:int -> Prbp_dag.Dag.t -> bool

  val compute :
    budget:Solver.Budget.t ->
    game:game ->
    r:int ->
    Prbp_dag.Dag.t ->
    result list
end

(* ------------------------------------------------------------------ *)
(* Registry and scheduler.                                             *)

let registry : (module RULE) list ref = ref []

let register (module R : RULE) =
  if List.exists (fun (module R0 : RULE) -> R0.name = R.name) !registry then
    invalid_arg (Printf.sprintf "Lower.register: duplicate rule %S" R.name);
  registry := !registry @ [ (module R) ]

let names () = List.map (fun (module R : RULE) -> R.name) !registry

let check_name n =
  let known = names () in
  if List.mem n known then Ok n
  else
    Error
      (Printf.sprintf "unknown lower rule %S (registered: %s)" n
         (String.concat ", " known))

type t = {
  game : game;
  r : int;
  bound : int;
  rule : string;
  witness : Segment.t option;
  evaluated : (string * int) list;
  truncated : bool;
}

(* A rule's wall-clock slice: its share of the deadline, proportional
   among the applicable budget-consuming rules.  Zero-share rules are
   negligible and run under the unsliced budget. *)
let slice (budget : Solver.Budget.t) ~share ~total =
  if share = 0 || total = 0 then budget
  else
    {
      budget with
      Solver.Budget.max_millis =
        Option.map
          (fun ms -> max 1 (ms * share / total))
          budget.Solver.Budget.max_millis;
    }

(* An isolated node starts blue, is a sink that is already blue, and
   needs no move in either game, so removing it leaves every optimum
   unchanged.  The paper's theorems assume no isolated node, and the
   partition rules would count one as a class of its own, so the rules
   run on the DAG without them; the family tag stays. *)
let without_isolated g =
  if not (Dag.has_isolated_nodes g) then g
  else begin
    let keep = Bitset.create (Dag.n_nodes g) in
    for v = 0 to Dag.n_nodes g - 1 do
      if Dag.in_degree g v > 0 || Dag.out_degree g v > 0 then Bitset.add keep v
    done;
    Dag.with_family (fst (Dag.induced g keep)) (Dag.family g)
  end

let compute ?(budget = Solver.Budget.default) ?rules ~game ~r g0 =
  if r < 1 then invalid_arg "Lower.compute: r must be >= 1";
  let g = without_isolated g0 in
  let body () =
    let applicable =
      List.filter
        (fun (module R : RULE) ->
          List.mem game R.games
          && (match rules with
             | None -> true
             | Some names -> List.mem R.name names)
          && R.applies ~budget ~game ~r g)
        !registry
    in
    let total =
      List.fold_left (fun acc (module R : RULE) -> acc + R.share) 0 applicable
    in
    let results =
      List.concat_map
        (fun (module R : RULE) ->
          let budget = slice budget ~share:R.share ~total in
          let run () =
            match R.compute ~budget ~game ~r g with
            | rs -> List.filter (fun (res : result) -> res.bound >= 0) rs
            | exception (Invalid_argument _ | Failure _) -> []
          in
          if Span.enabled () then
            Span.with_ ~name:"lower.rule" ~attrs:[ ("rule", R.name) ] run
          else run ())
        applicable
    in
    let evaluated =
      List.map (fun (res : result) -> (res.label, res.bound)) results
    in
    let truncated = List.exists (fun (res : result) -> res.truncated) results in
    let best =
      List.fold_left
        (fun acc (res : result) ->
          match acc with
          | Some (b : result) when b.bound >= res.bound -> acc
          | _ -> Some res)
        None results
    in
    match best with
    | Some res ->
        {
          game;
          r;
          bound = res.bound;
          rule = res.label;
          (* a witness partitions [g], not [g0], once nodes were removed *)
          witness = (if g == g0 then res.witness else None);
          evaluated;
          truncated;
        }
    | None ->
        {
          game;
          r;
          bound = 0;
          rule = "none";
          witness = None;
          evaluated = [];
          truncated = false;
        }
  in
  if not (Span.enabled ()) then body ()
  else
    Span.with_ ~name:"lower.compute"
      ~attrs:[ ("game", game_label game); ("r", string_of_int r) ]
      (fun () ->
        let t = body () in
        Span.add_attr "rule" t.rule;
        Span.add_attr "bound" (string_of_int t.bound);
        t)

(* ------------------------------------------------------------------ *)
(* Built-in rules, in registration (= tie-break priority) order.       *)

let always ~budget:_ ~game:_ ~r:_ _ = true

let cheap label bound =
  if bound > 0 then [ { label; bound; witness = None; truncated = false } ]
  else []

(* Every source is loaded and every sink saved at least once; the
   rules never see an isolated node, which would be both and need
   neither. *)
let () =
  register
    (module struct
      let name = "trivial"
      let games = [ Rbp; Prbp ]
      let share = 0
      let applies = always

      let compute ~budget:_ ~game:_ ~r:_ g =
        [
          {
            label = "trivial";
            bound = Dag.trivial_cost g;
            witness = None;
            truncated = false;
          };
        ]
    end)

(* Section 6.3 analytic bounds, auto-attached via the DAG's family tag
   and the {!Prbp_graphs.Closed_form} registry.  Floored conservatively:
   OPT ≥ v over the reals, so OPT ≥ ⌊v⌋ certainly — never ceil a float
   that may carry rounding error upward. *)
let () =
  register
    (module struct
      let name = "closed-form"
      let games = [ Rbp; Prbp ]
      let share = 0
      let applies ~budget:_ ~game:_ ~r:_ g = Dag.family g <> None

      let compute ~budget:_ ~game ~r g =
        match Dag.family g with
        | None -> []
        | Some family ->
            Closed_form.forms ~game:(game_variant game) ~r family
            |> List.concat_map (fun (name, v) ->
                   cheap ("closed-form:" ^ name) (int_of_float (floor v)))
    end)

(* Exact searches are worth attempting only where the lattice is
   representable (≤ 62) and either tiny or protected by a wall-clock
   deadline. *)
let exact_gate (budget : Solver.Budget.t) size =
  size <= 62 && (size <= 18 || budget.Solver.Budget.max_millis <> None)

(* Tighten the poll cadence so a deadline lands promptly even though
   every lattice step costs a max-flow; cap the mask count likewise. *)
let minpart_budget (budget : Solver.Budget.t) =
  {
    budget with
    Solver.Budget.max_states = min budget.Solver.Budget.max_states 2_000_000;
    check_every = min budget.Solver.Budget.check_every 64;
  }

(* The cheapest valid constructive partition on hand, to seed Minpart's
   early-certification floor (§ Minpart docs).  Its classes were already
   validated by Segment, and Minpart re-validates them independently. *)
let constructive_seed ~flavor g ~s =
  let candidates =
    Segment.greedy ~flavor g ~s
    ::
    (match flavor with
    | Segment.Edge -> []
    | Segment.Spartition | Segment.Dominator ->
        [ Segment.level_cut ~flavor g ~s ])
  in
  List.filter_map Result.to_option candidates
  |> List.sort (fun a b -> compare (Segment.n_classes a) (Segment.n_classes b))
  |> function
  | [] -> None
  | seg :: _ -> Some seg

(* The three Minpart-backed rules share their shape: seed a constructive
   witness, search under the sliced budget, and grade the verdict —
   exact-* for a finished search, constructive-* for an early
   certification (the constructive partition met the anytime floor),
   anytime-* for a truncated search's certified floor.  A Minimum's
   witness is believed only after {!Segment.of_minpart} independently
   re-validates it — a rejection would mean a Minpart bug, and then the
   count proves nothing. *)
let partition_rule ~name ~short ~flavor ~games ~size_of ~search : (module RULE)
    =
  (module struct
    let name = name
    let games = games
    let share = 1
    let applies ~budget ~game:_ ~r:_ g = exact_gate budget (size_of g)

    let compute ~budget ~game:_ ~r g =
      let s = 2 * r in
      let upper_witness =
        Option.map
          (fun seg -> seg.Segment.classes)
          (constructive_seed ~flavor g ~s)
      in
      match search ~budget:(minpart_budget budget) ?upper_witness g ~s with
      | Minpart.Minimum { classes; witness; exhaustive } -> (
          match Segment.of_minpart flavor g ~s witness with
          | Ok seg ->
              [
                {
                  label =
                    (if exhaustive then "exact-" else "constructive-") ^ short;
                  bound = max 0 (r * (classes - 1));
                  witness = Some seg;
                  truncated = false;
                };
              ]
          | Error _ -> [])
      | Minpart.Truncated { lower_so_far; _ } ->
          [
            {
              label = "anytime-" ^ short;
              bound = max 0 (r * (lower_so_far - 1));
              witness = None;
              truncated = true;
            };
          ]
      | Minpart.No_partition -> []
  end)

let () =
  (* Theorem 6.7: PRBP, hence also RBP. *)
  register
    (partition_rule ~name:"exact-dominator" ~short:"dominator"
       ~flavor:Segment.Dominator ~games:[ Rbp; Prbp ] ~size_of:Dag.n_nodes
       ~search:(fun ~budget ?upper_witness g ~s ->
         Minpart.dominator_partition ~budget ?upper_witness g ~s));
  (* Theorem 5.4 (Hong–Kung): RBP only. *)
  register
    (partition_rule ~name:"exact-spartition" ~short:"spartition"
       ~flavor:Segment.Spartition ~games:[ Rbp ] ~size_of:Dag.n_nodes
       ~search:(fun ~budget ?upper_witness g ~s ->
         Minpart.spartition ~budget ?upper_witness g ~s));
  (* Theorem 6.5: PRBP, hence also RBP. *)
  register
    (partition_rule ~name:"exact-edge" ~short:"edge" ~flavor:Segment.Edge
       ~games:[ Rbp; Prbp ] ~size_of:Dag.n_edges
       ~search:(fun ~budget ?upper_witness g ~s ->
         Minpart.edge_partition ~budget ?upper_witness g ~s))
