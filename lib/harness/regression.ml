(* Width-regression gate over the bracket and frontier rows of
   BENCH_solver.json.  The rows are wire records, decoded by the codec
   that wrote them; a row that no longer decodes fails the gate rather
   than dropping out of the baseline. *)

module Wire = Prbp_wire.Wire
module Json = Prbp_obs.Json
module Convergence = Prbp_solver.Solver.Convergence

let ( let* ) = Result.bind

type baseline = { brackets : Wire.bracket list; frontiers : Wire.frontier list }

(* an absent array is an empty one: v8 files carry no frontiers *)
let rows name decode doc =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | row :: rest -> (
        match decode (Json.to_string row) with
        | Ok r -> go (i + 1) (r :: acc) rest
        | Error e -> Error (Printf.sprintf "%s[%d]: %s" name i e))
  in
  match Json.member name doc with
  | None -> Ok []
  | Some (Json.List l) -> go 0 [] l
  | Some _ -> Error (Printf.sprintf "%S: expected an array" name)

let of_string s =
  let* doc = Result.map_error (( ^ ) "invalid JSON: ") (Json.of_string s) in
  let* brackets = rows "brackets" Wire.decode_bracket doc in
  let* frontiers = rows "frontiers" Wire.decode_frontier doc in
  Ok { brackets; frontiers }

let of_file path =
  of_string (In_channel.with_open_bin path In_channel.input_all)

let family fam = Option.value fam ~default:"-"

(* widths wobble a little run to run under wall-clock budgets: allow
   [slack_pct] percent of growth, and one absolute unit for tiny
   baselines, before declaring a regression *)
let limit ~slack_pct w = max (w + 1) (w * (100 + slack_pct) / 100)

let key (b : Wire.bracket) = (b.family, b.game, b.r)

type verdict =
  | Ok_width of { row : Wire.bracket; baseline : int }
  | Regressed of { row : Wire.bracket; baseline : int; limit : int }
  | New_case of Wire.bracket

let check ?(slack_pct = 10) ~baseline current =
  List.map
    (fun (row : Wire.bracket) ->
      match List.find_opt (fun b -> key b = key row) baseline with
      | None -> New_case row
      | Some (b : Wire.bracket) ->
          let limit = limit ~slack_pct b.width in
          if row.width > limit then
            Regressed { row; baseline = b.width; limit }
          else Ok_width { row; baseline = b.width })
    current

let pp_verdict ppf = function
  | Ok_width { row; baseline } ->
      Format.fprintf ppf "ok        %s %s r=%d: width %d (baseline %d)"
        (family row.family) (Wire.game_label row.game) row.r row.width
        baseline
  | Regressed { row; baseline; limit } ->
      Format.fprintf ppf
        "REGRESSED %s %s r=%d: width %d > limit %d (baseline %d, lower %s, \
         upper %s)"
        (family row.family) (Wire.game_label row.game) row.r row.width limit
        baseline row.lower_rule row.upper_rule
  | New_case row ->
      Format.fprintf ppf "new       %s %s r=%d: width %d (no baseline)"
        (family row.family) (Wire.game_label row.game) row.r row.width

let regressed verdicts =
  List.exists (function Regressed _ -> true | _ -> false) verdicts

(* ------------------------------------------------------------------ *)
(* Frontier rows *)

let frontier_key (f : Wire.frontier) = (f.family, f.game)

type frontier_verdict =
  | Frontier_ok of { row : Wire.frontier; baseline : Wire.frontier }
  | Frontier_regressed of {
      row : Wire.frontier;
      baseline : Wire.frontier;
      what : string;
    }
  | Frontier_new of Wire.frontier

let check_frontiers ?(slack_pct = 10) ~baseline current =
  List.map
    (fun row ->
      match
        List.find_opt (fun b -> frontier_key b = frontier_key row) baseline
      with
      | None -> Frontier_new row
      | Some b ->
          (* fewer settled capacities, more open intervals, or fatter
             intervals than the committed run are each a regression;
             the width gets the same wobble slack as brackets *)
          let width_limit = limit ~slack_pct (Wire.frontier_width b) in
          let regressed what = Frontier_regressed { row; baseline = b; what } in
          if Wire.frontier_points_n row < Wire.frontier_points_n b then
            regressed "fewer points"
          else if Wire.frontier_open_n row > Wire.frontier_open_n b then
            regressed "more open intervals"
          else if Wire.frontier_width row > width_limit then
            regressed (Printf.sprintf "width > limit %d" width_limit)
          else Frontier_ok { row; baseline = b })
    current

let pp_frontier_verdict ppf v =
  let name (f : Wire.frontier) =
    Printf.sprintf "%s %s" (family f.family) (Wire.game_label f.game)
  in
  let points = Wire.frontier_points_n
  and open_ = Wire.frontier_open_n
  and width = Wire.frontier_width in
  match v with
  | Frontier_ok { row; baseline } ->
      Format.fprintf ppf
        "ok        %s: %d points, %d open, width %d (baseline width %d)"
        (name row) (points row) (open_ row) (width row) (width baseline)
  | Frontier_regressed { row; baseline; what } ->
      Format.fprintf ppf
        "REGRESSED %s: %s (now %d points / %d open / width %d, baseline \
         %d / %d / %d)"
        (name row) what (points row) (open_ row) (width row) (points baseline)
        (open_ baseline) (width baseline)
  | Frontier_new row ->
      Format.fprintf ppf
        "new       %s: %d points, %d open, width %d (no baseline)" (name row)
        (points row) (open_ row) (width row)

let frontier_regressed verdicts =
  List.exists (function Frontier_regressed _ -> true | _ -> false) verdicts

(* ------------------------------------------------------------------ *)
(* Convergence-curve gate.  Unlike the width gates above, this one is
   structural, not comparative: timing-sensitive baselines flake in
   CI, but every honestly-recorded curve must be monotone and must end
   exactly at the bracket it certifies — properties a fresh run can
   violate only through a recording bug. *)

type curve_verdict =
  | Curve_ok of { row : Wire.bracket; time_to_final : float }
  | Curve_bad of { row : Wire.bracket; what : string }

let check_curve (row : Wire.bracket) =
  let bad what = Curve_bad { row; what } in
  match Convergence.final row.curve with
  | None -> bad "empty curve"
  | Some (last : Convergence.point) ->
      if not (Convergence.monotone row.curve) then
        bad
          "non-monotone curve (lower decreased, upper increased, or time ran \
           backwards)"
      else if last.lower <> row.lower then
        bad
          (Printf.sprintf "final lower %d <> certified %d" last.lower row.lower)
      else if last.upper <> Some row.upper then
        bad
          (Printf.sprintf "final upper %s <> certified %d"
             (match last.upper with Some u -> string_of_int u | None -> "none")
             row.upper)
      else Curve_ok { row; time_to_final = last.t_s }

let pp_curve_verdict ppf = function
  | Curve_ok { row; time_to_final } ->
      Format.fprintf ppf
        "ok        %s %s r=%d: %d curve points, final at %.3fs"
        (family row.family) (Wire.game_label row.game) row.r
        (List.length row.curve) time_to_final
  | Curve_bad { row; what } ->
      Format.fprintf ppf "BAD CURVE %s %s r=%d: %s" (family row.family)
        (Wire.game_label row.game) row.r what

let curves_regressed verdicts =
  List.exists (function Curve_bad _ -> true | _ -> false) verdicts
