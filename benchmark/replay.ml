(* Certificate replay: every strategy the benchmark is handed is
   re-played through the rule checkers, outside the timed window,
   before its cost is believed.  The literal Verifier is used where it
   is fast enough (the same gate the upper-bound portfolio applies),
   the games' own checkers beyond it and for the multiprocessor games.
   The replayed-move tally feeds [verify.moves_per_s]. *)

let moves = ref 0

let seconds = ref 0.

let timed n f =
  let r, dt = Util.time f in
  moves := !moves + n;
  seconds := !seconds +. dt;
  r

let literal_ok g ms = Prbp.Dag.n_edges g <= 4000 && List.length ms <= 20_000

let rbp ~r g ms =
  timed (List.length ms) (fun () ->
      if literal_ok g ms then Prbp.Verifier.R.check ~r g ms
      else Prbp.Rbp.check (Prbp.Rbp.config ~r ()) g ms)

let prbp ~r g ms =
  timed (List.length ms) (fun () ->
      if literal_ok g ms then Prbp.Verifier.P.check ~r g ms
      else Prbp.Prbp_game.check (Prbp.Prbp_game.config ~r ()) g ms)

let multi_rbp ~p ~r g ms =
  timed (List.length ms) (fun () ->
      Prbp.Multi.R.check (Prbp.Multi.config ~p ~r ()) g ms)

let multi_prbp ~p ~r g ms =
  timed (List.length ms) (fun () ->
      Prbp.Multi.P.check (Prbp.Multi.config ~p ~r ()) g ms)

(* A strategy as it arrives over the wire, for the variant-free
   requests the benchmark sends. *)
let wire ~r g = function
  | Prbp.Wire.Rbp_strategy ms -> rbp ~r g ms
  | Prbp.Wire.Prbp_strategy ms -> prbp ~r g ms
  | Prbp.Wire.Multi_rbp_strategy (p, ms) -> multi_rbp ~p ~r g ms
  | Prbp.Wire.Multi_prbp_strategy (p, ms) -> multi_prbp ~p ~r g ms

(* [Ok] iff the strategy replays to a complete pebbling of cost
   exactly [cost]. *)
let costs_exactly ~cost = function
  | Ok c when c = cost -> true
  | Ok _ | Error _ -> false

let moves_per_s () = if !seconds > 0. then float_of_int !moves /. !seconds else 0.
