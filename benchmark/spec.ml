(* BENCHMARK.json: the workloads, the metrics with their units and
   directions, and each end-to-end metric's regression bound (the share
   of the baseline's median by which it may worsen). *)

type metric = { name : string; unit_ : string; better : string; bound : float option }

type t = { workloads : string list; end_to_end : metric list; per_layer : metric list }

let load path =
  let j = Util.read_json path in
  let metric m =
    {
      name = Util.string_exn (Util.member_exn "name" m);
      unit_ = Util.string_exn (Util.member_exn "unit" m);
      better = Util.string_exn (Util.member_exn "better" m);
      bound = Option.map Util.float_exn (Util.Json.member "bound" m);
    }
  in
  let list k = Util.list_exn (Util.member_exn k j) in
  {
    workloads =
      List.map (fun w -> Util.string_exn (Util.member_exn "name" w)) (list "workloads");
    end_to_end = List.map metric (list "end_to_end");
    per_layer = List.map metric (list "per_layer");
  }

(* The spec and the code must name the same metrics with the same units
   and directions. *)
let drift spec =
  let mismatch kind (code : Metrics.def list) (listed : metric list) =
    let show (d : Metrics.def) = Printf.sprintf "%s [%s, %s]" d.name d.unit_ d.better in
    let listed =
      List.map (fun m -> { Metrics.name = m.name; unit_ = m.unit_; better = m.better }) listed
    in
    let missing what from l =
      List.filter_map
        (fun d -> if List.mem d from then None else Some (kind ^ what ^ show d))
        l
    in
    missing " metric not in BENCHMARK.json: " listed code
    @ missing " metric not emitted: " code listed
  in
  mismatch "end-to-end" Metrics.end_to_end spec.end_to_end
  @ mismatch "per-layer" (List.map (fun l -> l.Metrics.d) Metrics.per_layer) spec.per_layer
