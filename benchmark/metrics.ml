(* The benchmark's metric vocabulary.  BENCHMARK.json lists the same
   names, units and directions (plus the regression bounds); the
   self-test fails if the two drift apart. *)

type def = { name : string; unit_ : string; better : string }

let def name unit_ better = { name; unit_; better }

(* End-to-end metrics: every untraced run of every workload reports
   all of them.  Timings are medians over the run's passes (exact,
   bracket) or over its requests (the serve workloads). *)
let end_to_end =
  [
    def "setup_s" "s" "lower";
    def "wall_s" "s" "lower";
    def "time_to_width_s" "s" "lower";
    def "width_rel" "ratio" "lower";
    def "p50_ms" "ms" "lower";
    def "p99_ms" "ms" "lower";
    def "goodput_rps" "1/s" "higher";
    def "peak_rss_mb" "MB" "lower";
  ]

(* Per-layer metrics, reported by traced runs.  [home] is the workload
   whose traced run measures the metric for the merged [trace] report;
   [moves] is the end-to-end metric (at a workload) a change in the
   layer should move.  A workload whose operations never reach a layer
   reports 0 for that layer's metrics. *)
type layer = { d : def; home : string; moves : string }

let layer name unit_ better home moves = { d = def name unit_ better; home; moves }

let upper_candidates =
  [ "belady"; "lru"; "fifo"; "belady-defer"; "banded1"; "banded2"; "banded3" ]

let lower_rules = [ "trivial"; "source-cut"; "sink-cut"; "closed-form" ]

let per_layer =
  [
    layer "engine.expansions" "count" "lower" "exact" "wall_s@exact";
    layer "engine.explored" "count" "lower" "exact" "wall_s,peak_rss_mb@exact";
    layer "engine.pruned" "count" "higher" "exact" "wall_s@exact";
    layer "engine.table_resizes" "count" "lower" "exact" "wall_s@exact";
    layer "engine.prune_yield" "ratio" "higher" "exact" "wall_s@exact";
    layer "engine.prune_disabled" "count" "lower" "exact" "wall_s@exact";
    layer "engine.mem_words" "words" "lower" "exact" "wall_s,peak_rss_mb@exact";
    layer "engine.explored_per_s" "1/s" "higher" "exact" "wall_s@exact";
    layer "engine.alloc_words_per_expansion" "words" "lower" "exact"
      "wall_s@exact";
    layer "engine.prune_overhead" "ratio" "lower" "exact" "wall_s@exact";
    layer "engine.strategy_overhead" "ratio" "lower" "exact" "p50_ms@serve-miss";
    layer "engine.par_path_j1_ratio" "ratio" "lower" "exact" "none";
    layer "engine.par_speedup_j2" "ratio" "higher" "exact" "none";
  ]
  @ List.concat_map
      (fun c ->
        [
          layer ("upper." ^ c ^ ".s") "s" "lower" "bracket"
            "time_to_width_s@bracket";
          layer ("upper." ^ c ^ ".cost") "count" "lower" "bracket"
            "width_rel@bracket";
        ])
      upper_candidates
  @ [
      layer "upper.portfolio_s" "s" "lower" "bracket" "time_to_width_s@bracket";
      layer "optimize.s" "s" "lower" "bracket" "time_to_width_s@bracket";
      layer "verify.moves_per_s" "1/s" "higher" "bracket"
        "wall_s@bracket,p50_ms@serve-hit";
    ]
  @ List.concat_map
      (fun rule ->
        [
          layer ("lower." ^ rule ^ ".s") "s" "lower" "bracket" "wall_s@bracket";
          layer ("lower." ^ rule ^ ".bound") "count" "higher" "bracket"
            "width_rel@bracket";
        ])
      lower_rules
  @ [
      layer "segment.greedy_s" "s" "lower" "bracket" "wall_s@bracket";
      layer "bracket.deadline_overrun_s" "s" "lower" "bracket" "none";
      layer "frontier.sweep_s" "s" "lower" "bracket" "wall_s@bracket";
      layer "frontier.open_points" "count" "lower" "bracket" "width_rel@bracket";
      layer "dag.hash_us" "us" "lower" "serve-hit"
        "p50_ms,goodput_rps@serve-hit";
      layer "dag.canonical_order_us" "us" "lower" "serve-hit"
        "p50_ms,goodput_rps@serve-hit";
      layer "wire.decode_request_us" "us" "lower" "serve-hit" "p50_ms@serve-hit";
      layer "wire.encode_response_us" "us" "lower" "serve-hit" "p50_ms@serve-hit";
      layer "wire.response_bytes" "B" "lower" "serve-hit" "p50_ms@serve-hit";
      layer "cache.find_us" "us" "lower" "serve-hit" "p50_ms@serve-hit";
      layer "cache.hit_ratio" "ratio" "higher" "serve-hit" "p50_ms@serve-hit";
      layer "serve.server_ms" "ms" "lower" "serve-hit" "p50_ms,p99_ms@serve-*";
      layer "serve.outside_ms" "ms" "lower" "serve-hit" "p50_ms,p99_ms@serve-*";
      layer "serve.route.solve.server_ms" "ms" "lower" "serve-miss"
        "p50_ms,p99_ms@serve-*";
      layer "serve.route.bracket.server_ms" "ms" "lower" "serve-hit"
        "p50_ms,p99_ms@serve-hit";
      layer "serve.route.frontier.server_ms" "ms" "lower" "serve-hit"
        "p50_ms,p99_ms@serve-hit";
      layer "obs.trace_overhead" "ratio" "lower" "exact" "wall_s@exact";
      layer "obs.metrics_overhead" "ratio" "lower" "exact" "wall_s@exact";
      layer "gc.major_collections" "count" "lower" "exact"
        "wall_s,peak_rss_mb@exact";
      layer "gc.minor_mb" "MB" "lower" "exact" "wall_s,peak_rss_mb@exact";
    ]

let unit_of name =
  match List.find_opt (fun d -> d.name = name) end_to_end with
  | Some d -> d.unit_
  | None -> (
      match List.find_opt (fun l -> l.d.name = name) per_layer with
      | Some l -> l.d.unit_
      | None -> invalid_arg ("unknown metric " ^ name))
