(* Results files and the one-line summary.

   A run of one workload prints, as the last line of its standard
   output, [{"correct", "attempted", "failed", "metrics"}] with each
   metric's value and unit.  With [--out] it also writes the full
   record: provenance, the workload's settings, and every metric with
   its quartiles.  [run] and [trace] merge such records from child
   processes into one file with the same shape. *)

module J = Util.Json

let provenance ~seed ~seconds ~quick ~trace =
  J.Obj
    [
      ("commit", J.String (Util.commit ()));
      ("seed", J.Int seed);
      ("seconds", Util.num seconds);
      ("quick", J.Bool quick);
      ("trace", J.Bool trace);
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.String Sys.ocaml_version);
      ("started_unix", J.Float (Unix.time ()));
    ]

(* Every number printed is finite; a metric with no samples reads 0. *)
let finite f = if Float.is_finite f then f else 0.

let value_json name (v : Util.value) =
  J.Obj
    [
      ("unit", J.String (Metrics.unit_of name));
      ("value", Util.num (finite v.value));
      ("p25", Util.num (finite v.p25));
      ("p75", Util.num (finite v.p75));
      ("n", J.Int v.n);
    ]

let attempted (r : Workload.result) = max 1 r.attempted

let failed (r : Workload.result) = if r.attempted = 0 then 1 else r.failed

let workload_json (r : Workload.result) =
  J.Obj
    [
      ("correct", J.Bool (failed r = 0));
      ("attempted", J.Int (attempted r));
      ("failed", J.Int (failed r));
      ("fail_ratio", Util.num (float_of_int (failed r) /. float_of_int (attempted r)));
      ("settings", J.Obj r.settings_json);
      ("metrics", J.Obj (List.map (fun (k, v) -> (k, value_json k v)) r.metrics));
    ]

let summary_line (r : Workload.result) =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (failed r = 0));
         ("attempted", J.Int (attempted r));
         ("failed", J.Int (failed r));
         ( "metrics",
           J.Obj
             (List.map
                (fun (k, (v : Util.value)) ->
                  ( k,
                    J.Obj
                      [
                        ("value", Util.num (finite v.value));
                        ("unit", J.String (Metrics.unit_of k));
                      ] ))
                r.metrics) );
       ])

let file ~provenance workloads =
  J.Obj
    [
      ("benchmark", J.String "prbp");
      ("provenance", provenance);
      ("workloads", J.Obj workloads);
    ]

(* ------------------------------------------------------------------ *)
(* Merging repeated runs of one workload: each metric's value is the
   median over the runs and its quartiles are taken across the runs. *)

let field k j = Util.member_exn k j

let merge_runs runs =
  match runs with
  | [] -> invalid_arg "merge_runs"
  | first :: _ ->
      let ints k =
        Util.isum (List.map (fun r -> int_of_float (Util.float_exn (field k r))) runs)
      in
      let attempted = ints "attempted" and failed = ints "failed" in
      let metrics =
        match field "metrics" first with
        | J.Obj ms ->
            List.map
              (fun (name, m) ->
                let value r = Util.float_exn (field "value" (field name (field "metrics" r))) in
                let vs = List.map value runs in
                let a = Util.sorted vs in
                ( name,
                  J.Obj
                    [
                      ("unit", field "unit" m);
                      ("value", Util.num (Util.quantile_sorted a 0.5));
                      ("p25", Util.num (Util.quantile_sorted a 0.25));
                      ("p75", Util.num (Util.quantile_sorted a 0.75));
                      ("n", J.Int (List.length vs));
                      ("runs", J.List (List.map Util.num vs));
                    ] ))
              ms
        | _ -> []
      in
      J.Obj
        [
          ("correct", J.Bool (failed = 0));
          ("attempted", J.Int attempted);
          ("failed", J.Int failed);
          ("fail_ratio", Util.num (float_of_int failed /. float_of_int (max 1 attempted)));
          ("settings", field "settings" first);
          ("metrics", J.Obj metrics);
        ]
