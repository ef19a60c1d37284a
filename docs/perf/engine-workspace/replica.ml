(* A replica of prbpd's serve-miss solves without HTTP: the same stream
   of distinct random DAGs (PRBP on 4 layers of 2, RBP on 3×4 or 4×3
   with in-degree <= 2, r = 3, duplicates up to isomorphism skipped),
   each solved with strategy reconstruction, as prbpd's workers do.

     dune exec docs/perf/engine-workspace/replica.exe -- MODE [COUNT] [SEED]

   MODE places the solves on domains:
     idle    two worker domains share the stream; the main domain waits
             in Domain.join (prbpd's accept domain waits in select)
     shared  one worker domain and the main domain share the stream
     one     the main domain solves the whole stream alone

   It prints the median and 99th-percentile solve latency, the wall
   time, and the minor and major collections of the whole process
   over the run (Gc.quick_stat; in OCaml 5 the counts cover every
   domain). *)

let stream ~seed ~count =
  let seen = Hashtbl.create count in
  let rec gen acc n i =
    if n = count || i > 50 * count then Array.of_list (List.rev acc)
    else
      let prbp = n mod 2 = 0 in
      let layers, width =
        if prbp then (4, 2) else if i mod 2 = 0 then (3, 4) else (4, 3)
      in
      let g =
        Prbp.Graphs.Random_dag.make
          ~seed:((seed * 1_000_003) + i)
          ~max_in_degree:2 ~layers ~width ()
      in
      let key = (prbp, Prbp.Dag.hash g) in
      if
        ((not prbp) && Prbp.Dag.max_in_degree g > 2) || Hashtbl.mem seen key
      then gen acc n (i + 1)
      else begin
        Hashtbl.add seen key ();
        gen ((prbp, g) :: acc) (n + 1) (i + 1)
      end
  in
  gen [] 0 0

let solve (prbp, g) =
  if prbp then
    ignore
      (Prbp.Exact_prbp.solve ~want_strategy:true
         (Prbp.Prbp_game.config ~r:3 ())
         g)
  else
    ignore
      (Prbp.Exact_rbp.solve ~want_strategy:true (Prbp.Rbp.config ~r:3 ()) g)

(* solve items [first], [first + step], ... and record each latency *)
let worker items lat ~first ~step () =
  let i = ref first in
  while !i < Array.length items do
    let t0 = Unix.gettimeofday () in
    solve items.(!i);
    lat.(!i) <- Unix.gettimeofday () -. t0;
    i := !i + step
  done

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "idle" in
  let count =
    if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 1000
  in
  let seed =
    if Array.length Sys.argv > 3 then int_of_string Sys.argv.(3) else 1
  in
  let items = stream ~seed ~count in
  let lat = Array.make (Array.length items) 0. in
  let gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  (match mode with
  | "idle" ->
      let ds =
        List.init 2 (fun k ->
            Domain.spawn (worker items lat ~first:k ~step:2))
      in
      List.iter Domain.join ds
  | "shared" ->
      let d = Domain.spawn (worker items lat ~first:1 ~step:2) in
      worker items lat ~first:0 ~step:2 ();
      Domain.join d
  | "one" -> worker items lat ~first:0 ~step:1 ()
  | m -> failwith ("unknown mode " ^ m ^ " (idle, shared or one)"));
  let wall = Unix.gettimeofday () -. t0 in
  let gc1 = Gc.quick_stat () in
  let sorted = Array.copy lat in
  Array.sort compare sorted;
  let pct q =
    sorted.(min (Array.length sorted - 1)
              (int_of_float (q *. float_of_int (Array.length sorted))))
  in
  Printf.printf
    "mode=%s solves=%d p50_ms=%.2f p99_ms=%.2f wall_s=%.2f minor=%d major=%d\n"
    mode (Array.length items)
    (1000. *. pct 0.5)
    (1000. *. pct 0.99)
    wall
    (gc1.Gc.minor_collections - gc0.Gc.minor_collections)
    (gc1.Gc.major_collections - gc0.Gc.major_collections)
