(* [compare A1.json B1.json [A2.json B2.json ...]]: one verdict per
   (workload, end-to-end metric), judged against the bounds in
   BENCHMARK.json.

   Each A is a results file of the parent, each B of the change.  The
   two files of a pair are taken one right after the other, alternating
   which side runs first, so a drift of the host's speed between pairs
   cancels out of each pair's relative change.  For each (workload,
   metric), d is a pair's relative change of B against A, signed so
   that positive is worse; the verdict rests on the median d over the
   pairs and on its spread, the distance between the quartiles of the
   d's (with a single pair, the larger of the two files' own quartile
   spreads, as a share of their medians).

   - unresolved: the spread exceeds the bound, so the data cannot
     resolve a change of that size;
   - worse: the median d exceeds the bound;
   - better: the median d is below minus the bound, and B reads better
     in at least nine tenths of the pairs;
   - unchanged: otherwise.

   Results whose seed or settings differ are refused: they measure
   different inputs. *)

module J = Util.Json

let settings_of file =
  let p = Util.member_exn "provenance" file in
  List.map
    (fun k -> (k, Option.map J.to_string (J.member k p)))
    [ "seed"; "seconds"; "quick"; "trace" ]

let workloads file =
  match Util.member_exn "workloads" file with J.Obj ws -> ws | _ -> []

let refusal a b =
  if settings_of a <> settings_of b then
    Some "the results were taken with different seeds or settings"
  else
    List.find_map
      (fun (w, wa) ->
        match List.assoc_opt w (workloads b) with
        | Some wb
          when J.to_string (Util.member_exn "settings" wa)
               <> J.to_string (Util.member_exn "settings" wb) ->
            Some (Printf.sprintf "workload %s ran with different settings" w)
        | _ -> None)
      (workloads a)

type verdict = Better | Worse | Unchanged | Unresolved

let label = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

let get k m = Util.float_exn (Util.member_exn k m)

(* a file's own quartile spread of a metric, as a share of its median *)
let own_spread m =
  let v = get "value" m in
  if v = 0. then 0. else (get "p75" m -. get "p25" m) /. Float.abs v

(* [pairs]: the metric's entry in A and in B, per pair.  Returns the
   verdict, the median d and its spread. *)
let judge ~(metric : Spec.metric) pairs =
  let bound = Option.value ~default:0. metric.bound in
  let sign = if metric.better = "lower" then 1. else -1. in
  let d =
    List.map
      (fun (a, b) ->
        let va = get "value" a in
        if va = 0. then nan else sign *. (get "value" b -. va) /. Float.abs va)
      pairs
  in
  let med = Util.median d in
  let spread =
    match pairs with
    | [ (a, b) ] -> Float.max (own_spread a) (own_spread b)
    | _ -> Util.quantile d 0.75 -. Util.quantile d 0.25
  in
  let wins = List.length (List.filter (fun x -> x < 0.) d) in
  ( (if List.exists Float.is_nan d || spread > bound then Unresolved
     else if med > bound then Worse
     else if med < -.bound && 10 * wins >= 9 * List.length d then Better
     else Unchanged),
    med,
    spread )

let rec pairs_of = function a :: b :: rest -> (a, b) :: pairs_of rest | _ -> []

(* [f] of both sides of every pair, or [None] when it fails on any *)
let all_pairs f pairs =
  let l = List.map (fun (a, b) -> (f a, f b)) pairs in
  if List.for_all (fun (a, b) -> a <> None && b <> None) l then
    Some (List.map (fun (a, b) -> (Option.get a, Option.get b)) l)
  else None

let run ~spec paths =
  let files = List.map Util.read_json paths in
  match List.find_map (refusal (List.hd files)) (List.tl files) with
  | Some why ->
      Printf.eprintf "compare: refused: %s\n" why;
      2
  | None ->
      let pairs = pairs_of files in
      Printf.printf "%d pair(s); d = B against A, positive is worse\n" (List.length pairs);
      Printf.printf "%-11s %-16s %12s %12s %9s %8s %7s  %s\n" "workload" "metric" "median A"
        "median B" "median d" "spread" "bound" "verdict";
      let rows =
        List.concat_map
          (fun w ->
            match all_pairs (fun f -> List.assoc_opt w (workloads f)) pairs with
            | None -> []
            | Some entries ->
                List.filter_map
                  (fun (m : Spec.metric) ->
                    let find r = J.member m.name (Util.member_exn "metrics" r) in
                    Option.map
                      (fun found ->
                        let v, med, spread = judge ~metric:m found in
                        let side f = Util.median (List.map (fun p -> get "value" (f p)) found) in
                        Printf.printf "%-11s %-16s %12.6g %12.6g %+8.2f%% %7.2f%% %6.1f%%  %s\n"
                          w m.name (side fst) (side snd) (100. *. med) (100. *. spread)
                          (100. *. Option.value ~default:0. m.bound)
                          (label v);
                        v)
                      (all_pairs find entries))
                  spec.Spec.end_to_end)
          spec.Spec.workloads
      in
      if List.mem Worse rows then 1 else 0
