module Dag = Prbp_dag.Dag
module Json = Prbp_obs.Json
module Move = Prbp_pebble.Move
module Multi = Prbp_pebble.Multi
module Solver = Prbp_solver.Solver
module Convergence = Solver.Convergence
module Telemetry = Solver.Telemetry
module Bracket = Prbp_bounds.Bracket
module Lower = Prbp_bounds.Lower
module Upper = Prbp_bounds.Upper
module Segment = Prbp_bounds.Segment
module Multi_bounds = Prbp_bounds.Multi_bounds
module Frontier = Prbp_frontier.Frontier

let version = 1

(* the BENCH_solver.json schema this wire release pairs with; bumped
   whenever the file's members or the row format the width gate reads
   change *)
let bench_schema = "prbp-solver-bench/v11"

(* ------------------------------------------------------------------ *)
(* The codec.  Every record below is declared once, as an encoder and
   a decoder read off the same member list, so the two cannot drift
   apart.  Decoders are total: a failure is an [Error] naming the
   field that caused it, never an exception, because the daemon feeds
   them straight from the network. *)

type 'a codec = { enc : 'a -> Json.t; dec : Json.t -> ('a, string) result }

let ( let* ) = Result.bind

let scalar what enc to_ =
  let dec j =
    match to_ j with Some x -> Ok x | None -> Error ("expected " ^ what)
  in
  { enc; dec }

let int = scalar "an integer" (fun i -> Json.Int i) Json.to_int

let float = scalar "a number" (fun f -> Json.Float f) Json.to_float

let bool = scalar "a boolean" (fun b -> Json.Bool b) Json.to_bool

let string = scalar "a string" (fun s -> Json.String s) Json.to_str

let json = { enc = Fun.id; dec = Result.ok }

(* ['b] carried as ['a]: [enc] is total, [dec] may refuse *)
let conv ~enc ~dec c =
  { enc = (fun x -> c.enc (enc x)); dec = (fun j -> Result.bind (c.dec j) dec) }

let check ok what c =
  conv ~enc:Fun.id ~dec:(fun x -> if ok x then Ok x else Error what) c

let nonneg = check (fun i -> i >= 0) "negative" int

let enum what cases =
  conv string
    ~enc:(fun x -> fst (List.find (fun (_, y) -> y = x) cases))
    ~dec:(fun s ->
      match List.assoc_opt s cases with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "unknown %s %S" what s))

let rec decode_all c acc = function
  | [] -> Ok (List.rev acc)
  | j :: js ->
      let* x = c.dec j in
      decode_all c (x :: acc) js

let list c =
  {
    enc = (fun xs -> Json.List (List.map c.enc xs));
    dec =
      (function
      | Json.List l -> decode_all c [] l | _ -> Error "expected an array");
  }

let pair a b =
  {
    enc = (fun (x, y) -> Json.List [ a.enc x; b.enc y ]);
    dec =
      (function
      | Json.List [ x; y ] ->
          let* x = a.dec x in
          let* y = b.dec y in
          Ok (x, y)
      | _ -> Error "expected a [_, _] pair");
  }

let triple a b c =
  {
    enc = (fun (x, y, z) -> Json.List [ a.enc x; b.enc y; c.enc z ]);
    dec =
      (function
      | Json.List [ x; y; z ] ->
          let* x = a.dec x in
          let* y = b.dec y in
          let* z = c.dec z in
          Ok (x, y, z)
      | _ -> Error "expected a [_, _, _] triple");
  }

(* [null] is [None] *)
let nullable c =
  {
    enc = (function Some x -> c.enc x | None -> Json.Null);
    dec =
      (function
      | Json.Null -> Ok None | j -> Result.map Option.some (c.dec j));
  }

(* [null] decodes as [d] *)
let or_null d c = { c with dec = (function Json.Null -> Ok d | j -> c.dec j) }

(* An object under construction, members in wire order.  [put r tl]
   prepends the members declared so far to the members [tl] that
   follow them; [get] reads them back in the same order, feeding each
   to the constructor ['k]. *)
type ('o, 'k) obj = {
  put : 'o -> (string * Json.t) list -> (string * Json.t) list;
  get : (string * Json.t) list -> ('k, string) result;
}

let obj k = { put = (fun _ tl -> tl); get = (fun _ -> Ok k) }

let read ?default name c kvs =
  match (List.assoc_opt name kvs, default) with
  | None, Some d -> Ok d
  | None, None -> Error (Printf.sprintf "missing field %S" name)
  | Some j, _ -> (
      match c.dec j with
      | Ok _ as ok -> ok
      | Error e -> Error (Printf.sprintf "field %S: %s" name e))

(* [default] stands in for an absent member, [omit] leaves a value off
   the wire *)
let mem ?default ?omit name c ~enc o =
  {
    put =
      (fun r tl ->
        let x = enc r in
        o.put r
          (match omit with
          | Some skip when skip x -> tl
          | _ -> (name, c.enc x) :: tl));
    get =
      (fun kvs ->
        let* k = o.get kvs in
        let* x = read ?default name c kvs in
        Ok (k x));
  }

(* absent and [null] both read as [None]; [None] is not written *)
let opt name c ~enc o =
  mem ~default:None ~omit:Option.is_none name (nullable c) ~enc o

(* absent boolean flags read as false, so clients can omit them *)
let flag name ~enc o = mem ~default:false name bool ~enc o

(* written, never read: duplicated spellings and derived metrics *)
let emit name c ~enc o =
  { o with put = (fun r tl -> o.put r ((name, c.enc (enc r)) :: tl)) }

(* written as [x], and required to read back as [x] *)
let const name c x o =
  let j = c.enc x in
  {
    put = (fun r tl -> o.put r ((name, j) :: tl));
    get =
      (fun kvs ->
        let* k = o.get kvs in
        let* y = read name c kvs in
        if y = x then Ok k
        else
          Error
            (Printf.sprintf "field %S: expected %s, got %s" name
               (Json.to_string j) (Json.to_string (c.enc y))));
  }

(* the members of [f] inlined into this object *)
let splice f ~enc o =
  {
    put = (fun r tl -> o.put r (f.put (enc r) tl));
    get =
      (fun kvs ->
        let* k = o.get kvs in
        let* x = f.get kvs in
        Ok (k x));
  }

let finish o =
  {
    enc = (fun r -> Json.Obj (o.put r []));
    dec =
      (function
      | Json.Obj kvs -> o.get kvs | _ -> Error "expected an object");
  }

(* One case of a tagged union: its tag, its members, and the
   injection/projection between its payload and the union. *)
type 'a case =
  | Case : string * ('p, 'p) obj * ('p -> 'a) * ('a -> 'p option) -> 'a case

let case tag members ~inj ~proj = Case (tag, members, inj, proj)

(* members [tag] (naming the case) then the case's own *)
let union what tag cases =
  {
    put =
      (fun x tl ->
        let rec go = function
          | [] -> invalid_arg ("Wire: no case for this " ^ what)
          | Case (name, f, _, proj) :: rest -> (
              match proj x with
              | Some p -> (tag, Json.String name) :: f.put p tl
              | None -> go rest)
        in
        go cases);
    get =
      (fun kvs ->
        let* name = read tag string kvs in
        match List.find_opt (fun (Case (n, _, _, _)) -> n = name) cases with
        | Some (Case (_, f, inj, _)) -> Result.map inj (f.get kvs)
        | None -> Error (Printf.sprintf "unknown %s %S" what name));
  }

let encode c x = Json.to_string (c.enc x)

let decode c s =
  match Json.of_string s with
  | Ok j -> c.dec j
  | Error e -> Error ("invalid JSON: " ^ e)

(* ------------------------------------------------------------------ *)
(* Vocabulary *)

type game = Rbp | Prbp | Black | Multi_rbp of int | Multi_prbp of int

let game_label = function
  | Rbp -> "rbp"
  | Prbp -> "prbp"
  | Black -> "black"
  | Multi_rbp p -> Printf.sprintf "multi-rbp:%d" p
  | Multi_prbp p -> Printf.sprintf "multi-prbp:%d" p

let game_of_label s =
  let multi prefix mk =
    let pl = String.length prefix in
    if String.length s > pl && String.sub s 0 pl = prefix then
      match int_of_string_opt (String.sub s pl (String.length s - pl)) with
      | Some p when p >= 1 -> Some (Ok (mk p))
      | _ -> Some (Error (Printf.sprintf "bad processor count in %S" s))
    else None
  in
  match s with
  | "rbp" -> Ok Rbp
  | "prbp" -> Ok Prbp
  | "black" -> Ok Black
  | _ -> (
      match multi "multi-rbp:" (fun p -> Multi_rbp p) with
      | Some r -> r
      | None -> (
          match multi "multi-prbp:" (fun p -> Multi_prbp p) with
          | Some r -> r
          | None -> Error (Printf.sprintf "unknown game %S" s)))

let game_c = conv string ~enc:game_label ~dec:game_of_label

type variants = { sliding : bool; recompute : bool; no_delete : bool }

let no_variants = { sliding = false; recompute = false; no_delete = false }

let variants_c =
  obj (fun sliding recompute no_delete -> { sliding; recompute; no_delete })
  |> flag "sliding" ~enc:(fun v -> v.sliding)
  |> flag "recompute" ~enc:(fun v -> v.recompute)
  |> flag "no_delete" ~enc:(fun v -> v.no_delete)
  |> finish |> or_null no_variants

type budget = {
  max_states : int option;
  max_millis : int option;
  max_words : int option;
}

let no_budget = { max_states = None; max_millis = None; max_words = None }

let budget_c =
  obj (fun max_states max_millis max_words ->
      { max_states; max_millis; max_words })
  |> opt "max_states" int ~enc:(fun b -> b.max_states)
  |> opt "max_millis" int ~enc:(fun b -> b.max_millis)
  |> opt "max_words" int ~enc:(fun b -> b.max_words)
  |> finish |> or_null no_budget

let budget_class b =
  (* power-of-two bucket per cap: v and v' share a bucket iff the
     smallest power of two >= max(v,1) coincides *)
  let bucket tag = function
    | None -> tag ^ "_"
    | Some v ->
        let bits = ref 0 and x = ref 1 in
        while !x < v do
          incr bits;
          x := !x * 2
        done;
        Printf.sprintf "%s%d" tag !bits
  in
  String.concat ":"
    [
      bucket "s" b.max_states; bucket "m" b.max_millis; bucket "w" b.max_words;
    ]

(* ------------------------------------------------------------------ *)
(* DAG payload *)

let dag_c =
  let default_name i = "v" ^ string_of_int i in
  obj (fun n edges names family -> (n, edges, names, family))
  |> mem "nodes" nonneg ~enc:(fun (n, _, _, _) -> n)
  |> mem "edges" (list (pair int int)) ~enc:(fun (_, es, _, _) -> es)
  |> opt "names" (list string) ~enc:(fun (_, _, names, _) -> names)
  |> opt "family" string ~enc:(fun (_, _, _, f) -> f)
  |> finish
  |> conv
       ~enc:(fun g ->
         let n = Dag.n_nodes g in
         let names = List.init n (Dag.name g) in
         (* Dag only exposes resolved names; serialize them iff any
            differ from the positional default *)
         let custom =
           List.filteri (fun i s -> s <> default_name i) names <> []
         in
         (n, Dag.edges g, (if custom then Some names else None), Dag.family g))
       ~dec:(fun (n, edges, names, family) ->
         match names with
         | Some l when List.length l <> n ->
             Error "field \"names\": expected an array of length nodes"
         | _ -> (
             match
               Dag.make ?names:(Option.map Array.of_list names) ?family ~n edges
             with
             | g -> Ok g
             | exception Invalid_argument e -> Error ("invalid DAG: " ^ e)
             | exception Dag.Cycle _ -> Error "invalid DAG: contains a cycle"))

(* ------------------------------------------------------------------ *)
(* Requests *)

type kind = Solve | Bracket | Frontier

type request = {
  v : int;
  kind : kind;
  game : game;
  r : int;
  variants : variants;
  budget : budget;
  want_strategy : bool;
  stream : bool;
  rules : string list option;
  rs : int list option;
  dag : Dag.t;
}

let request ?(variants = no_variants) ?(budget = no_budget)
    ?(want_strategy = false) ?(stream = false) ?rules ?rs ~kind ~game ~r dag =
  { v = version; kind; game; r; variants; budget; want_strategy; stream;
    rules; rs; dag }

let request_c =
  obj (fun kind game r variants budget want_strategy stream rules rs dag ->
      { v = version; kind; game; r; variants; budget; want_strategy; stream;
        rules; rs; dag })
  |> const "v" int version
  |> mem "kind"
       (enum "request kind"
          [ ("solve", Solve); ("bracket", Bracket); ("frontier", Frontier) ])
       ~enc:(fun rq -> rq.kind)
  |> mem "game" game_c ~enc:(fun rq -> rq.game)
  |> mem "r" nonneg ~enc:(fun rq -> rq.r)
  |> mem "variants" variants_c ~default:no_variants ~enc:(fun rq -> rq.variants)
  |> mem "budget" budget_c ~default:no_budget ~enc:(fun rq -> rq.budget)
  |> flag "want_strategy" ~enc:(fun rq -> rq.want_strategy)
  |> flag "stream" ~enc:(fun rq -> rq.stream)
  |> opt "rules" (list string) ~enc:(fun rq -> rq.rules)
  |> opt "rs"
       (list (check (fun i -> i >= 1) "capacities must be >= 1" int))
       ~enc:(fun rq -> rq.rs)
  |> mem "dag" dag_c ~enc:(fun rq -> rq.dag)
  |> finish

let encode_request = encode request_c

let decode_request = decode request_c

(* ------------------------------------------------------------------ *)
(* Strategies.  All four move vocabularies share one flat wire shape,
   [{"op", "q"?, "u"?, "v"}]: [q] is the acting processor of a
   multiprocessor move, [u] the other endpoint of an edge move. *)

type strategy =
  | Rbp_strategy of Move.R.t list
  | Prbp_strategy of Move.P.t list
  | Multi_rbp_strategy of int * Multi.Move.rbp list
  | Multi_prbp_strategy of int * Multi.Move.prbp list

type flat = { op : string; q : int option; u : int option; v : int }

let flat_c =
  obj (fun op q u v -> { op; q; u; v })
  |> mem "op" string ~enc:(fun (m : flat) -> m.op)
  |> opt "q" int ~enc:(fun (m : flat) -> m.q)
  |> opt "u" int ~enc:(fun (m : flat) -> m.u)
  |> mem "v" int ~enc:(fun (m : flat) -> m.v)
  |> finish

let flat ?q ?u op v = { op; q; u; v }

let need name = function
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "missing field %S" name)

let bad_op vocab (m : flat) =
  Error (Printf.sprintf "unknown %s move op %S" vocab m.op)

let processor (m : flat) =
  let* q = need "q" m.q in
  if q < 0 then Error "field \"q\": negative" else Ok q

let rbp_move =
  conv flat_c
    ~enc:(function
      | Move.R.Load v -> flat "load" v
      | Save v -> flat "save" v
      | Compute v -> flat "compute" v
      | Delete v -> flat "delete" v
      | Slide (u, v) -> flat ~u "slide" v)
    ~dec:(fun m ->
      match m.op with
      | "load" -> Ok (Move.R.Load m.v)
      | "save" -> Ok (Move.R.Save m.v)
      | "compute" -> Ok (Move.R.Compute m.v)
      | "delete" -> Ok (Move.R.Delete m.v)
      | "slide" ->
          let* u = need "u" m.u in
          Ok (Move.R.Slide (u, m.v))
      | _ -> bad_op "rbp" m)

let prbp_move =
  conv flat_c
    ~enc:(function
      | Move.P.Load v -> flat "load" v
      | Save v -> flat "save" v
      | Compute (u, v) -> flat ~u "compute" v
      | Delete v -> flat "delete" v
      | Clear v -> flat "clear" v)
    ~dec:(fun m ->
      match m.op with
      | "load" -> Ok (Move.P.Load m.v)
      | "save" -> Ok (Move.P.Save m.v)
      | "compute" ->
          let* u = need "u" m.u in
          Ok (Move.P.Compute (u, m.v))
      | "delete" -> Ok (Move.P.Delete m.v)
      | "clear" -> Ok (Move.P.Clear m.v)
      | _ -> bad_op "prbp" m)

let multi_rbp_move =
  conv flat_c
    ~enc:(fun (mv : Multi.Move.rbp) ->
      match mv with
      | Load (q, v) -> flat ~q "load" v
      | Save (q, v) -> flat ~q "save" v
      | Compute (q, v) -> flat ~q "compute" v
      | Delete (q, v) -> flat ~q "delete" v)
    ~dec:(fun m ->
      let* q = processor m in
      (* annotated: rbp and prbp constructors share names, and the prbp
         ones (declared later) would otherwise win disambiguation *)
      let ok (mv : Multi.Move.rbp) = Ok mv in
      match m.op with
      | "load" -> ok (Load (q, m.v))
      | "save" -> ok (Save (q, m.v))
      | "compute" -> ok (Compute (q, m.v))
      | "delete" -> ok (Delete (q, m.v))
      | _ -> bad_op "multi-rbp" m)

let multi_prbp_move =
  conv flat_c
    ~enc:(fun (mv : Multi.Move.prbp) ->
      match mv with
      | Load (q, v) -> flat ~q "load" v
      | Save (q, v) -> flat ~q "save" v
      | Compute (q, (u, v)) -> flat ~q ~u "compute" v
      | Delete (q, v) -> flat ~q "delete" v)
    ~dec:(fun m ->
      let* q = processor m in
      match m.op with
      | "load" -> Ok (Multi.Move.Load (q, m.v))
      | "save" -> Ok (Multi.Move.Save (q, m.v))
      | "compute" ->
          let* u = need "u" m.u in
          Ok (Multi.Move.Compute (q, (u, m.v)))
      | "delete" -> Ok (Multi.Move.Delete (q, m.v))
      | _ -> bad_op "multi-prbp" m)

(* the game label tags the move vocabulary *)
let strategy_c =
  obj (fun game moves -> (game, moves))
  |> mem "game" game_c ~enc:fst
  |> mem "moves" (list json) ~enc:snd
  |> finish
  |> conv
       ~enc:(fun s ->
         let tagged game c ms = (game, List.map c.enc ms) in
         match s with
         | Rbp_strategy ms -> tagged Rbp rbp_move ms
         | Prbp_strategy ms -> tagged Prbp prbp_move ms
         | Multi_rbp_strategy (p, ms) -> tagged (Multi_rbp p) multi_rbp_move ms
         | Multi_prbp_strategy (p, ms) ->
             tagged (Multi_prbp p) multi_prbp_move ms)
       ~dec:(fun (game, moves) ->
         let decoded c wrap =
           match decode_all c [] moves with
           | Ok ms -> Ok (wrap ms)
           | Error e -> Error ("field \"moves\": " ^ e)
         in
         match game with
         | Rbp -> decoded rbp_move (fun ms -> Rbp_strategy ms)
         | Prbp -> decoded prbp_move (fun ms -> Prbp_strategy ms)
         | Multi_rbp p ->
             decoded multi_rbp_move (fun ms -> Multi_rbp_strategy (p, ms))
         | Multi_prbp p ->
             decoded multi_prbp_move (fun ms -> Multi_prbp_strategy (p, ms))
         | Black -> Error "black strategies have no wire form")

(* ------------------------------------------------------------------ *)
(* Outcomes *)

let stats_c =
  obj
    (fun explored pruned expansions frontier elapsed_s mem_words
         prune_disabled spilled ->
      { Solver.explored; pruned; expansions; frontier; elapsed_s; mem_words;
        prune_disabled; spilled })
  |> mem "explored" int ~enc:(fun s -> s.Solver.explored)
  |> mem "pruned" int ~enc:(fun s -> s.Solver.pruned)
  |> mem "expansions" int ~enc:(fun s -> s.Solver.expansions)
  |> mem "frontier" int ~enc:(fun s -> s.Solver.frontier)
  |> mem "elapsed_s" float ~enc:(fun s -> s.Solver.elapsed_s)
  |> mem "mem_words" int ~enc:(fun s -> s.Solver.mem_words)
  |> mem "prune_disabled" bool ~enc:(fun s -> s.Solver.prune_disabled)
  |> mem "spilled" int ~enc:(fun s -> s.Solver.spilled)
  |> finish

(* convergence curves ride as compact triples [t_s, lower, upper],
   with [null] for a missing upper bound; absent, null and empty
   curves are one value, left off the wire, so every v1 record from
   before the field existed still parses *)
let with_curve ~enc o =
  let point =
    conv
      (triple float int (nullable int))
      ~enc:(fun (pt : Convergence.point) -> (pt.t_s, pt.lower, pt.upper))
      ~dec:(fun (t_s, lower, upper) -> Ok { Convergence.t_s; lower; upper })
  in
  mem "curve" (or_null [] (list point)) ~default:[] ~omit:(( = ) []) ~enc o

type outcome = {
  v : int;
  game : game;
  r : int;
  variants : variants;
  dag_hash : string;
  n : int;
  m : int;
  status : [ `Optimal | `Bounded | `Unsolvable ];
  lower : int;
  upper : int option;
  stopped : string option;
  strategy : strategy option;
  stats : Solver.stats;
  curve : Convergence.curve;
}

let outcome_of ~game ~r ?(variants = no_variants) ?strategy ?(curve = [])
    ?dag_hash ~dag (oc : _ Solver.outcome) =
  let dag_hash = match dag_hash with Some h -> h | None -> Dag.hash dag in
  let n = Dag.n_nodes dag and m = Dag.n_edges dag in
  let base status lower upper stopped stats =
    { v = version; game; r; variants; dag_hash; n; m; status; lower; upper;
      stopped; strategy; stats; curve }
  in
  match oc with
  | Solver.Optimal { cost; stats; _ } ->
      base `Optimal cost (Some cost) None stats
  | Solver.Bounded { lower; upper; stats; stopped; _ } ->
      base `Bounded lower upper (Some (Solver.reason_label stopped)) stats
  | Solver.Unsolvable stats -> base `Unsolvable 0 None None stats

let outcome_c =
  obj
    (fun game r variants dag_hash n m status lower upper stopped strategy
         curve stats ->
      { v = version; game; r; variants; dag_hash; n; m; status; lower; upper;
        stopped; strategy; stats; curve })
  |> const "v" int version
  |> mem "game" game_c ~enc:(fun o -> o.game)
  |> mem "r" int ~enc:(fun o -> o.r)
  |> mem "variants" variants_c ~default:no_variants ~enc:(fun o -> o.variants)
  |> mem "dag_hash" string ~enc:(fun o -> o.dag_hash)
  |> mem "n" int ~enc:(fun o -> o.n)
  |> mem "m" int ~enc:(fun o -> o.m)
  |> mem "status"
       (enum "status"
          [ ("optimal", `Optimal); ("bounded", `Bounded);
            ("unsolvable", `Unsolvable) ])
       ~enc:(fun o -> o.status)
  |> mem "lower" int ~enc:(fun o -> o.lower)
  |> opt "upper" int ~enc:(fun o -> o.upper)
  |> opt "stopped" string ~enc:(fun o -> o.stopped)
  |> opt "strategy" strategy_c ~enc:(fun o -> o.strategy)
  |> with_curve ~enc:(fun o -> o.curve)
  |> mem "stats" stats_c ~enc:(fun o -> o.stats)
  |> finish

let encode_outcome = encode outcome_c

let decode_outcome = decode outcome_c

(* ------------------------------------------------------------------ *)
(* Bracket certificates *)

type bracket = {
  v : int;
  family : string option;
  game : game;
  r : int;
  n : int;
  m : int;
  lower : int;
  lower_rule : string;
  upper : int;
  upper_rule : string;
  verifier : string;
  tight : bool;
  width : int;
  rules : (string * int) list;
  profile_classes : int option;
  strategy : strategy option;
  curve : Convergence.curve;
  elapsed_s : float;
}

let bracket_of ?family ?(with_moves = false) (b : Bracket.t) =
  {
    v = version;
    family;
    game = (match b.game with Lower.Rbp -> Rbp | Lower.Prbp -> Prbp);
    r = b.r;
    n = b.n;
    m = b.m;
    lower = b.lower.Lower.bound;
    lower_rule = b.lower.Lower.rule;
    upper = b.upper;
    upper_rule = Upper.meth_label b.meth;
    verifier = "literal";
    tight = b.tight;
    width = b.width;
    rules = b.lower.Lower.evaluated;
    profile_classes = Option.map Segment.n_classes b.profile;
    strategy =
      (if with_moves then
         Some
           (match b.moves with
           | Bracket.Rbp_moves ms -> Rbp_strategy ms
           | Bracket.Prbp_moves ms -> Prbp_strategy ms)
       else None);
    curve = b.Bracket.curve;
    elapsed_s = b.elapsed_s;
  }

let rule_bound_c =
  obj (fun rule bound -> (rule, bound))
  |> mem "rule" string ~enc:fst
  |> mem "bound" int ~enc:snd
  |> finish

(* [rule]/[lower_rule] and [method]/[upper_rule] are intentionally
   duplicated pairs: the historical row format of BENCH_solver.json
   carried both spellings and downstream greps key off either *)
let bracket_c =
  obj
    (fun family game r n m lower lower_rule upper upper_rule verifier tight
         width rules profile_classes strategy curve elapsed_s ->
      { v = version; family; game; r; n; m; lower; lower_rule; upper;
        upper_rule; verifier; tight; width; rules; profile_classes; strategy;
        curve; elapsed_s })
  |> const "v" int version
  |> const "kind" string "bracket"
  |> opt "family" string ~enc:(fun b -> b.family)
  |> mem "game" game_c ~enc:(fun b -> b.game)
  |> mem "r" int ~enc:(fun b -> b.r)
  |> mem "n" int ~enc:(fun b -> b.n)
  |> mem "m" int ~enc:(fun b -> b.m)
  |> mem "lower" int ~enc:(fun b -> b.lower)
  |> emit "rule" string ~enc:(fun b -> b.lower_rule)
  |> mem "lower_rule" string ~enc:(fun b -> b.lower_rule)
  |> mem "upper" int ~enc:(fun b -> b.upper)
  |> emit "method" string ~enc:(fun b -> b.upper_rule)
  |> mem "upper_rule" string ~enc:(fun b -> b.upper_rule)
  |> mem "verifier" string ~enc:(fun b -> b.verifier)
  |> mem "tight" bool ~enc:(fun b -> b.tight)
  |> mem "interval_width" int ~enc:(fun b -> b.width)
  |> mem "rules" (list rule_bound_c) ~enc:(fun b -> b.rules)
  |> mem "profile_classes" (nullable int) ~default:None
       ~enc:(fun b -> b.profile_classes)
  |> opt "strategy" strategy_c ~enc:(fun b -> b.strategy)
  |> with_curve ~enc:(fun b -> b.curve)
  |> mem "elapsed_s" float ~enc:(fun b -> b.elapsed_s)
  |> finish

let encode_bracket = encode bracket_c

let decode_bracket = decode bracket_c

(* ------------------------------------------------------------------ *)
(* Frontier certificates *)

type frontier_point = {
  p : int;
  r : int;
  comm_lower : int;
  comm_upper : int option;
  time_lower : int;
  time_upper : int option;
  status : [ `Exact | `Bracketed ];
  source : string;
  verified : bool;
  settled : bool;
  dominated : bool;
  strategy : strategy option;
  curve : Convergence.curve;
}

let frontier_point_c =
  obj
    (fun p r comm_lower comm_upper time_lower time_upper status source
         verified settled dominated strategy curve ->
      { p; r; comm_lower; comm_upper; time_lower; time_upper; status; source;
        verified; settled; dominated; strategy; curve })
  |> mem "p" int ~enc:(fun pt -> pt.p)
  |> mem "r" int ~enc:(fun pt -> pt.r)
  |> mem "comm_lower" int ~enc:(fun pt -> pt.comm_lower)
  |> opt "comm_upper" int ~enc:(fun pt -> pt.comm_upper)
  |> mem "time_lower" int ~enc:(fun pt -> pt.time_lower)
  |> opt "time_upper" int ~enc:(fun pt -> pt.time_upper)
  |> mem "status"
       (enum "point status" [ ("exact", `Exact); ("bracketed", `Bracketed) ])
       ~enc:(fun pt -> pt.status)
  |> mem "source" string ~enc:(fun pt -> pt.source)
  |> mem "verified" bool ~enc:(fun pt -> pt.verified)
  |> mem "settled" bool ~enc:(fun pt -> pt.settled)
  |> mem "dominated" bool ~enc:(fun pt -> pt.dominated)
  |> opt "strategy" strategy_c ~enc:(fun pt -> pt.strategy)
  |> with_curve ~enc:(fun pt -> pt.curve)
  |> finish

type frontier = {
  v : int;
  family : string option;
  game : game;
  dag_hash : string;
  n : int;
  m : int;
  model : string;
  points : frontier_point list;
  infeasible_rs : int list;
  exhausted : bool;
  elapsed_s : float;
}

let frontier_of ?family ?(with_moves = false) ?dag_hash ~dag (f : Frontier.t) =
  let game =
    match f.Frontier.game with
    | Frontier.Rbp_mc -> Multi_rbp f.Frontier.p
    | Frontier.Prbp_mc -> Multi_prbp f.Frontier.p
  in
  let point (pt : Frontier.point) =
    {
      p = pt.Frontier.p;
      r = pt.Frontier.r;
      comm_lower = pt.Frontier.comm_lower;
      comm_upper = pt.Frontier.comm_upper;
      time_lower = pt.Frontier.time_lower;
      time_upper = pt.Frontier.time_upper;
      status = pt.Frontier.status;
      source = pt.Frontier.source;
      verified = pt.Frontier.verified;
      settled = pt.Frontier.settled;
      dominated = pt.Frontier.dominated;
      strategy =
        (if with_moves then
           Option.map
             (function
               | Multi_bounds.Rbp_mc_moves ms ->
                   Multi_rbp_strategy (pt.Frontier.p, ms)
               | Multi_bounds.Prbp_mc_moves ms ->
                   Multi_prbp_strategy (pt.Frontier.p, ms))
             pt.Frontier.witness
         else None);
      curve = pt.Frontier.curve;
    }
  in
  {
    v = version;
    family;
    game;
    dag_hash = (match dag_hash with Some h -> h | None -> Dag.hash dag);
    n = Dag.n_nodes dag;
    m = Dag.n_edges dag;
    model = f.Frontier.model;
    points = List.map point f.Frontier.points;
    infeasible_rs = f.Frontier.infeasible_rs;
    exhausted = f.Frontier.exhausted;
    elapsed_s = f.Frontier.elapsed_s;
  }

(* derived row metrics: the regression gate compares these without
   re-deriving them from the points *)
let count pred f = List.length (List.filter pred f.points)

let frontier_points_n f = List.length f.points

let frontier_front_n = count (fun pt -> not pt.dominated)

let frontier_open_n = count (fun pt -> not pt.settled)

let frontier_width f =
  List.fold_left
    (fun acc pt ->
      match pt.comm_upper with
      | Some u -> acc + (u - pt.comm_lower)
      | None -> acc)
    0 f.points

let frontier_c =
  obj
    (fun family game dag_hash n m model points infeasible_rs exhausted
         elapsed_s ->
      { v = version; family; game; dag_hash; n; m; model; points;
        infeasible_rs; exhausted; elapsed_s })
  |> const "v" int version
  |> const "kind" string "frontier"
  |> opt "family" string ~enc:(fun f -> f.family)
  |> mem "game" game_c ~enc:(fun f -> f.game)
  |> mem "dag_hash" string ~enc:(fun f -> f.dag_hash)
  |> mem "n" int ~enc:(fun f -> f.n)
  |> mem "m" int ~enc:(fun f -> f.m)
  |> mem "model" string ~enc:(fun f -> f.model)
  |> emit "points_n" int ~enc:frontier_points_n
  |> emit "front_n" int ~enc:frontier_front_n
  |> emit "open_n" int ~enc:frontier_open_n
  |> emit "front_width" int ~enc:frontier_width
  |> mem "points" (list frontier_point_c) ~enc:(fun f -> f.points)
  |> mem "infeasible_rs" (list int) ~enc:(fun f -> f.infeasible_rs)
  |> mem "exhausted" bool ~enc:(fun f -> f.exhausted)
  |> mem "elapsed_s" float ~enc:(fun f -> f.elapsed_s)
  |> finish

let encode_frontier = encode frontier_c

let decode_frontier = decode frontier_c

(* ------------------------------------------------------------------ *)
(* Telemetry *)

let progress_m =
  obj
    (fun expansions explored pruned frontier depth table_load elapsed_s lower
         upper ->
      { Telemetry.expansions; explored; pruned; frontier; depth; table_load;
        elapsed_s; lower; upper })
  |> mem "expansions" int ~enc:(fun p -> p.Telemetry.expansions)
  |> mem "explored" int ~enc:(fun p -> p.Telemetry.explored)
  |> mem "pruned" int ~enc:(fun p -> p.Telemetry.pruned)
  |> mem "frontier" int ~enc:(fun p -> p.Telemetry.frontier)
  |> mem "depth" int ~enc:(fun p -> p.Telemetry.depth)
  |> mem "table_load" float ~enc:(fun p -> p.Telemetry.table_load)
  |> mem "elapsed_s" float ~enc:(fun p -> p.Telemetry.elapsed_s)
  (* [lower]/[upper] arrived after v1 shipped; absent values decode to
     the weakest certified statement so old JSONL traces still parse *)
  |> mem "lower" (or_null 0 int) ~default:0 ~enc:(fun p -> p.Telemetry.lower)
  |> opt "upper" int ~enc:(fun p -> p.Telemetry.upper)

let event_c =
  obj Fun.id
  |> const "v" int version
  |> splice ~enc:Fun.id
       (union "telemetry event" "ev"
          [
            case "start"
              (obj (fun width max_states -> (width, max_states))
              |> mem "width" int ~enc:fst
              |> mem "max_states" int ~enc:snd)
              ~inj:(fun (width, max_states) ->
                Telemetry.Start { width; max_states })
              ~proj:(function
                | Telemetry.Start { width; max_states } ->
                    Some (width, max_states)
                | _ -> None);
            case "progress" progress_m
              ~inj:(fun p -> Telemetry.Progress p)
              ~proj:(function Telemetry.Progress p -> Some p | _ -> None);
            case "prune"
              (obj Fun.id |> mem "pruned" int ~enc:Fun.id)
              ~inj:(fun pruned -> Telemetry.Prune { pruned })
              ~proj:(function
                | Telemetry.Prune { pruned } -> Some pruned | _ -> None);
            case "stop"
              (obj (fun outcome progress -> (outcome, progress))
              |> mem "outcome" string ~enc:fst
              |> splice progress_m ~enc:snd)
              ~inj:(fun (outcome, progress) ->
                Telemetry.Stop { outcome; progress })
              ~proj:(function
                | Telemetry.Stop { outcome; progress } ->
                    Some (outcome, progress)
                | _ -> None);
          ])
  |> finish

let encode_event = encode event_c

let decode_event = decode event_c

let jsonl ?every oc =
  Telemetry.make ?every (fun ev ->
      output_string oc (encode_event ev);
      output_char oc '\n';
      (* each event reaches the reader as soon as it is emitted, and
         none is lost when the process exits non-zero *)
      flush oc)

(* ------------------------------------------------------------------ *)
(* Daemon status *)

type req = {
  trace_id : int;
  route : string;
  status : int;
  cache : string;
  dur_s : float;
  outcome : string;
}

let req_c =
  obj (fun trace_id route status cache dur_s outcome ->
      { trace_id; route; status; cache; dur_s; outcome })
  |> mem "trace_id" int ~enc:(fun q -> q.trace_id)
  |> mem "route" string ~enc:(fun q -> q.route)
  |> mem "status" int ~enc:(fun q -> q.status)
  |> mem "cache" string ~enc:(fun q -> q.cache)
  |> mem "dur_s" float ~enc:(fun q -> q.dur_s)
  |> mem "outcome" string ~enc:(fun q -> q.outcome)
  |> finish

type route_stat = {
  route : string;
  count : int;
  sum_s : float;
  buckets : (float * int) list;
}

let route_stat_c =
  obj (fun route count sum_s buckets -> { route; count; sum_s; buckets })
  |> mem "route" string ~enc:(fun rs -> rs.route)
  |> mem "count" int ~enc:(fun rs -> rs.count)
  |> mem "sum_s" float ~enc:(fun rs -> rs.sum_s)
  |> mem "buckets" (list (pair float int)) ~enc:(fun rs -> rs.buckets)
  |> finish

type status_report = {
  v : int;
  uptime_s : float;
  workers : int;
  in_flight : int;
  queued : int;
  requests_total : int;
  cache_hits : int;
  cache_misses : int;
  flight_seen : int;
  flight_capacity : int;
  routes : route_stat list;
  recent : req list;
  slowest : req list;
}

let status_report ~uptime_s ~workers ~in_flight ~queued ~requests_total
    ~cache_hits ~cache_misses ~flight_seen ~flight_capacity ~routes ~recent
    ~slowest () =
  { v = version; uptime_s; workers; in_flight; queued; requests_total;
    cache_hits; cache_misses; flight_seen; flight_capacity; routes; recent;
    slowest }

let status_c =
  obj
    (fun uptime_s workers in_flight queued requests_total cache_hits
         cache_misses flight_seen flight_capacity routes recent slowest ->
      status_report ~uptime_s ~workers ~in_flight ~queued ~requests_total
        ~cache_hits ~cache_misses ~flight_seen ~flight_capacity ~routes
        ~recent ~slowest ())
  |> const "v" int version
  |> const "kind" string "status"
  |> mem "uptime_s" float ~enc:(fun st -> st.uptime_s)
  |> mem "workers" int ~enc:(fun st -> st.workers)
  |> mem "in_flight" int ~enc:(fun st -> st.in_flight)
  |> mem "queued" int ~enc:(fun st -> st.queued)
  |> mem "requests_total" int ~enc:(fun st -> st.requests_total)
  |> mem "cache_hits" int ~enc:(fun st -> st.cache_hits)
  |> mem "cache_misses" int ~enc:(fun st -> st.cache_misses)
  |> mem "flight_seen" int ~enc:(fun st -> st.flight_seen)
  |> mem "flight_capacity" int ~enc:(fun st -> st.flight_capacity)
  |> mem "routes" (list route_stat_c) ~enc:(fun st -> st.routes)
  |> mem "recent" (list req_c) ~enc:(fun st -> st.recent)
  |> mem "slowest" (list req_c) ~enc:(fun st -> st.slowest)
  |> finish

let encode_status = encode status_c

let decode_status = decode status_c

(* ------------------------------------------------------------------ *)
(* Health *)

type healthz = { v : int; wire : int; bench : string; uptime_s : float }

let healthz ~uptime_s =
  { v = version; wire = version; bench = bench_schema; uptime_s }

let healthz_c =
  obj (fun wire bench uptime_s -> { v = version; wire; bench; uptime_s })
  |> const "v" int version
  |> const "kind" string "healthz"
  |> mem "wire" int ~enc:(fun h -> h.wire)
  |> mem "bench_schema" string ~enc:(fun h -> h.bench)
  |> mem "uptime_s" float ~enc:(fun h -> h.uptime_s)
  |> finish

let encode_healthz = encode healthz_c

let decode_healthz = decode healthz_c

(* ------------------------------------------------------------------ *)
(* Errors *)

let error_c =
  obj (fun error code -> (error, code))
  |> const "v" int version
  |> mem "error" string ~enc:fst
  |> opt "code" string ~enc:snd
  |> finish

let encode_error ?code msg = encode error_c (msg, code)

let decode_error s = Result.to_option (Result.map fst (decode error_c s))

let decode_error_code s =
  Option.join (Result.to_option (Result.map snd (decode error_c s)))
