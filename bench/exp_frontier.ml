(* Experiments E34–E35: certified multiprocessor trade-off frontiers
   (lib/frontier).

   E34 computes exact fronts on small instances at p = 2, re-verifies
   every point independently, checks certified-dominance soundness,
   and confirms the p = 1 front collapses to the single-processor
   optimum; E35 produces bracketed fronts at paper scale under a
   wall-clock budget, where exact multiprocessor search is out of
   reach. *)

module Dag = Prbp.Dag
module E = Prbp.Experiment
module T = Prbp.Table
module F = Prbp.Frontier.Frontier
module Multi = Prbp.Multi
module Multi_bounds = Prbp.Bounds.Multi_bounds

let pp_itv lo = function
  | Some hi when hi = lo -> string_of_int lo
  | Some hi -> Printf.sprintf "[%d,%d]" lo hi
  | None -> Printf.sprintf ">=%d" lo

(* Re-verify one frontier point independently of the sweep: its
   witness must replay through the Prbp_pebble.Multi checkers at
   exactly the claimed communication upper bound. *)
let point_certified g (pt : F.point) =
  match (pt.F.witness, pt.F.comm_upper) with
  | Some w, Some cu -> (
      let cfg = Multi.config ~p:pt.F.p ~r:pt.F.r () in
      match w with
      | Multi_bounds.Rbp_mc_moves mv -> Multi.R.check cfg g mv = Ok cu
      | Multi_bounds.Prbp_mc_moves mv -> Multi.P.check cfg g mv = Ok cu)
  | _ -> false

(* No surviving front point may certifiably dominate another survivor:
   if it did, marking was unsound. *)
let front_sound f =
  let front = F.front f in
  not
    (List.exists
       (fun (a : F.point) ->
         List.exists
           (fun (b : F.point) ->
             a.F.r < b.F.r
             &&
             match (a.F.comm_upper, a.F.time_upper) with
             | Some cu, Some tu ->
                 cu <= b.F.comm_lower && tu <= b.F.time_lower
             | _ -> false)
           front)
       front)

let e34 =
  E.make ~id:"E34"
    ~paper:"Section 8.1 multiprocessor extension: exact trade-off fronts"
    ~claim:
      "On small instances the p = 2 frontier sweep settles every point \
       exactly, each witness re-verifies through the multiprocessor rule \
       engine at its claimed communication cost, no surviving front point \
       certifiably dominates another, and the p = 1 front collapses to \
       the single-processor optimum of the Section 3 games"
    (fun ppf (ctx : E.ctx) ->
      let t =
        T.make
          ~header:
            [ "DAG"; "game"; "r"; "comm"; "time"; "status"; "certified";
              "p1 = OPT" ]
      in
      let ok = ref true in
      let one name game g rs =
        let fgame = match game with `Rbp -> F.Rbp_mc | `Prbp -> F.Prbp_mc in
        let f2 = F.sweep ~budget:ctx.E.budget fgame ~p:2 ~rs g in
        if f2.F.exhausted || not (front_sound f2) then ok := false;
        let f1 = F.sweep ~budget:ctx.E.budget fgame ~p:1 ~rs g in
        List.iter
          (fun (pt : F.point) ->
            let certified = pt.F.settled && point_certified g pt in
            (* the single-processor game at the same r must agree with
               the p = 1 sweep: OPT_1 specializes the MC games *)
            let p1_opt =
              match
                List.find_opt (fun (q : F.point) -> q.F.r = pt.F.r) f1.F.points
              with
              | None -> false
              | Some q -> (
                  q.F.settled
                  &&
                  let opt =
                    match game with
                    | `Rbp ->
                        Solve_util.probe
                          (Prbp.Exact_rbp.solve ~budget:ctx.E.budget
                             (Prbp.Rbp.config ~r:pt.F.r ()) g)
                    | `Prbp ->
                        Solve_util.probe
                          (Prbp.Exact_prbp.solve ~budget:ctx.E.budget
                             (Prbp.Prbp_game.config ~r:pt.F.r ()) g)
                  in
                  match opt with
                  | Solve_util.Cost c -> q.F.comm_lower = c
                  | _ -> false)
            in
            if not (certified && p1_opt) then ok := false;
            T.add_rowf t "%s|%s|%d|%s|%s|%s|%b|%b" name
              (F.game_label fgame ~p:2)
              pt.F.r
              (pp_itv pt.F.comm_lower pt.F.comm_upper)
              (pp_itv pt.F.time_lower pt.F.time_upper)
              (match pt.F.status with
              | `Exact -> "exact"
              | `Bracketed -> "bracketed")
              certified p1_opt)
          f2.F.points
      in
      let both name g rs =
        one name `Rbp g rs;
        one name `Prbp g rs
      in
      both "diamond" (Prbp.Graphs.Basic.diamond ()) [ 2; 3; 4 ];
      both "fig1" (fst (Prbp.Graphs.Fig1.full ())) [ 3; 4 ];
      both "pyramid(3)" (Prbp.Graphs.Basic.pyramid 3) [ 2; 3 ];
      both "fan_in(4)" (Prbp.Graphs.Basic.fan_in 4) [ 2; 5 ];
      T.print ppf t;
      Format.fprintf ppf
        "(every frontier point above was re-verified here by replaying its \
         witness through the multiprocessor checkers, independently of \
         the sweep; the p = 1 column cross-checks the frontier against the \
         single-processor exact solvers, which the MC games specialize to)@.";
      !ok)

let e35 =
  E.make ~id:"E35"
    ~paper:"Section 6.3 families at experiment scale, multiprocessor"
    ~claim:
      "Under a 10-second budget the frontier sweep produces certified \
       bracketed fronts at paper scale — FFT(64), matmul 8^3 and attention \
       QK^T (16,8) at p = 4 — with finite communication intervals at every \
       swept capacity and every carried witness re-verified"
    ~budget:(Prbp.Solver.Budget.v ~max_millis:10_000 ())
    (fun ppf (ctx : E.ctx) ->
      let t =
        T.make
          ~header:
            [ "family"; "game"; "r"; "comm"; "time"; "source"; "verified" ]
      in
      let ok = ref true in
      let one family game g ~p rs =
        let fgame = match game with `Rbp -> F.Rbp_mc | `Prbp -> F.Prbp_mc in
        let f = F.sweep ~budget:ctx.E.budget fgame ~p ~rs g in
        if f.F.points = [] then ok := false;
        List.iter
          (fun (pt : F.point) ->
            (* finite, ordered, and independently re-verified *)
            (match pt.F.comm_upper with
            | None -> ok := false
            | Some cu ->
                if not (pt.F.comm_lower <= cu && pt.F.verified) then
                  ok := false);
            if pt.F.witness <> None && not (point_certified g pt) then
              ok := false;
            T.add_rowf t "%s|%s|%d|%s|%s|%s|%b" family
              (F.game_label fgame ~p) pt.F.r
              (pp_itv pt.F.comm_lower pt.F.comm_upper)
              (pp_itv pt.F.time_lower pt.F.time_upper)
              pt.F.source pt.F.verified)
          f.F.points
      in
      let fft = (Prbp.Graphs.Fft.make ~m:64).Prbp.Graphs.Fft.dag in
      one "fft:64" `Rbp fft ~p:4 [ 4; 8 ];
      let mm = Prbp.Graphs.Matmul.make ~m1:8 ~m2:8 ~m3:8 in
      one "matmul:8:8:8" `Prbp mm.Prbp.Graphs.Matmul.dag ~p:4 [ 2; 4 ];
      let qkt = Prbp.Graphs.Attention.qkt ~m:16 ~d:8 in
      one "attention-qkt:16:8" `Prbp qkt.Prbp.Graphs.Matmul.dag ~p:4 [ 4; 8 ];
      T.print ppf t;
      Format.fprintf ppf
        "(past the exact engine's reach every point comes from the \
         pooled-capacity reduction: a single-processor lower bound at \
         capacity p*r is sound for p processors of capacity r, and a \
         single-processor strategy lifted to processor 0 is a valid upper \
         witness — both directions re-verified before being believed)@.";
      !ok)

let all = [ e34; e35 ]
