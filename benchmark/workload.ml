(* What every workload shares: its settings, the record of one timed
   operation, and the end-to-end metrics computed from them. *)

type settings = {
  seed : int;
  seconds : float;  (* length of the timed window *)
  quick : bool;  (* toy sizes, for the self-test *)
  prbpd : string;  (* path of the daemon binary *)
}

(* One timed operation: an exact solve, a bracket or frontier case, or
   one HTTP request. *)
type op = {
  input : int;  (* which input: the pinned instance, case or request *)
  lat : float;  (* wall seconds of the operation *)
  ttw : float;
      (* seconds until its certified interval reached the target width
         (the whole budget when it never did) *)
  width : int;  (* final certified width *)
  target : int;  (* pinned target width *)
  ok : bool;  (* the output passed the correctness oracle *)
  good : bool;  (* ok, and within the workload's latency limit *)
}

(* A slice of the timed window: one pass over the workload's inputs
   (exact, bracket) or a time slice of the request stream (serve).  The
   serve workloads also give the wall times of the client rounds through
   the request mix that ended in the slice ([rounds]), their summed
   times-to-width ([round_ttws]) and the time the slice covers
   ([span_s]); a pass needs none of them. *)
type slice = {
  ops : op list;
  rounds : float list;
  round_ttws : float list;
  span_s : float;
}

let of_pass ops = { ops; rounds = []; round_ttws = []; span_s = 0. }

type result = {
  attempted : int;
  failed : int;
  metrics : (string * Util.value) list;
  settings_json : (string * Util.Json.t) list;
      (* the workload's inputs, budgets and limits, for provenance *)
}

(* Time one in-process operation, inside a span named [span] when
   given.  A full major collection runs first, outside the timing, so no
   operation pays for the garbage its predecessors left behind. *)
let timed_op ?span f =
  Gc.compact ();
  match span with
  | None -> Util.time f
  | Some (name, attrs) -> Prbp.Obs.Span.with_ ~name ~attrs (fun () -> Util.time f)

(* Run [pass] back to back until the next one would end past
   [seconds] (predicted from the last one); at least one pass. *)
let passes ~seconds pass =
  let t0 = Util.now () in
  let rec go acc last =
    let elapsed = Util.now () -. t0 in
    if acc <> [] && elapsed +. last > seconds then List.rev acc
    else
      let r, dt = Util.time pass in
      go (r :: acc) dt
  in
  go [] 0.

(* Run the set-up [f] [k] times, timing each repetition; returns the
   last result and the times.  The median of a run's set-up times is its
   [setup_s].  Every result but the last is handed to [discard], outside
   the timing.  No collection runs first: one returns freed memory that
   the set-up then faults back in, on some runs and not others. *)
let setup ?(discard = ignore) ~k f =
  let rec go i times =
    let r, dt = Util.time f in
    if i >= k then (r, dt :: times)
    else begin
      discard r;
      go (i + 1) (dt :: times)
    end
  in
  go 1 []

let width_rel ops =
  let w = Util.isum (List.map (fun o -> o.width) ops)
  and t = Util.isum (List.map (fun o -> o.target) ops) in
  float_of_int (w + 1) /. float_of_int (t + 1)

(* Each input's smallest value of [f] over [ops]. *)
let fastest_per_input f ops =
  let best = Hashtbl.create 16 in
  List.iter
    (fun o ->
      let v = f o in
      Hashtbl.replace best o.input
        (match Hashtbl.find_opt best o.input with Some b -> min b v | None -> v))
    ops;
  Hashtbl.fold (fun _ v acc -> v :: acc) best []

(* Latency percentiles.  Per request for the serve workloads, nearest
   rank.  Where every pass repeats the same pinned inputs ([per_input]),
   interpolated over the inputs' fastest latencies: a run has a few
   dozen operations per input, too few for a tail percentile of single
   operations to repeat from run to run, and with an even number of
   inputs the median is the mean of the middle two, so it does not rest
   on one input alone. *)
let latency_ms ~per_input ops p =
  if per_input then Util.quantile (fastest_per_input (fun o -> o.lat) ops) p *. 1e3
  else Util.percentile_sorted (Util.sorted (List.map (fun o -> o.lat) ops)) p *. 1e3

let goodput ops span =
  float_of_int (List.length (List.filter (fun o -> o.good) ops)) /. span

(* Every end-to-end metric except set-up time and peak RSS, over the
   whole window, with per-slice quartiles.  The serve workloads take
   medians over client rounds and percentiles over requests.  Where
   every slice is one pass over the same pinned inputs ([per_input]),
   each input counts its fastest run in the window: a pass is the sum of
   those runs, and goodput the inputs per second at that pace, scaled by
   the share of operations that were good.  The passes repeat identical
   deterministic work, so a slower run measures other load on the host.
   On a 2-core VM shared with other tenants, that load slowed all code
   by up to ~1.9x in stretches of seconds to minutes; some 25 s runs of
   the exact workload had no whole pass at full speed, while every input
   still had runs that were. *)
let window_metrics ~per_input slices =
  let all_ops = List.concat_map (fun s -> s.ops) slices in
  let per f = List.filter_map f slices in
  let non_empty l = if l = [] then None else Some l in
  let metric total slice_f = Util.of_slices ~total (per slice_f) in
  let over_ops f = metric (f all_ops) (fun s -> Option.map f (non_empty s.ops)) in
  let timings =
    if per_input then
      let pass f ops = Util.sum (fastest_per_input f ops) in
      let pace ops =
        let n = List.length ops and good = List.length (List.filter (fun o -> o.good) ops) in
        float_of_int (List.length (fastest_per_input (fun o -> o.lat) ops))
        *. (float_of_int good /. float_of_int n)
        /. pass (fun o -> o.lat) ops
      in
      [
        ("wall_s", over_ops (pass (fun o -> o.lat)));
        ("time_to_width_s", over_ops (pass (fun o -> o.ttw)));
        ("goodput_rps", over_ops pace);
      ]
    else
      let rounds f = metric (Util.median (List.concat_map f slices)) (fun s ->
          Option.map Util.median (non_empty (f s)))
      in
      let span = Util.sum (List.map (fun s -> s.span_s) slices) in
      [
        ("wall_s", rounds (fun s -> s.rounds));
        ("time_to_width_s", rounds (fun s -> s.round_ttws));
        ( "goodput_rps",
          metric (goodput all_ops span) (fun s ->
              if s.span_s > 0. then Some (goodput s.ops s.span_s) else None) );
      ]
  in
  timings
  @ [
      ("width_rel", over_ops width_rel);
      ("p50_ms", over_ops (fun ops -> latency_ms ~per_input ops 0.50));
      ("p99_ms", over_ops (fun ops -> latency_ms ~per_input ops 0.99));
    ]

(* An in-process workload's run.  Set-up builds the inputs and runs one
   untimed warm-up pass over them, which grows the heap to its working
   size; it runs 3 times, and the timed passes then reuse the last
   inputs until the window is over.  Building the inputs alone takes
   under 2 ms, too little to time steadily: from one set of runs to the
   next, on a 2-core VM shared with other tenants, its median moved by
   up to 65%.  Returns the passes' results, the set-up times, and the
   process's peak RSS after set-up: later passes only add heap
   fragmentation, so a peak read at the end would grow with the number
   of passes the window happened to fit. *)
let passes_with_setup ~seconds ~setup:f pass =
  let inputs, times =
    setup ~k:3 (fun () ->
        let inputs = f () in
        ignore (pass inputs);
        inputs)
  in
  let rss_mb = Util.peak_rss_mb (Unix.getpid ()) in
  (passes ~seconds (fun () -> pass inputs), times, rss_mb)

let result ~per_input ~setup_times ~rss_mb ~settings_json slices =
  let ops = List.concat_map (fun s -> s.ops) slices in
  {
    attempted = List.length ops;
    failed = List.length (List.filter (fun o -> not o.ok) ops);
    metrics =
      (("setup_s", Util.of_slices ~total:(Util.median setup_times) setup_times)
      :: window_metrics ~per_input slices)
      @ [ ("peak_rss_mb", Util.exact rss_mb) ];
    settings_json;
  }

(* A traced run reports per-layer metrics; correctness still counts. *)
let trace_result ~attempted ~failed ~settings_json metrics =
  {
    attempted;
    failed;
    metrics = List.map (fun (k, v) -> (k, Util.exact v)) metrics;
    settings_json;
  }

(* Gc work between two [Gc.quick_stat] snapshots. *)
let gc_delta (a : Gc.stat) (b : Gc.stat) =
  [
    ( "gc.major_collections",
      float_of_int (b.Gc.major_collections - a.Gc.major_collections) );
    ( "gc.minor_mb",
      (b.Gc.minor_words -. a.Gc.minor_words)
      *. float_of_int (Sys.word_size / 8)
      /. 1048576. );
  ]
