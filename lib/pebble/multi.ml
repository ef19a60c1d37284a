module Single = Move

type config = { p : int; r : int }

let config ~p ~r () =
  if p < 1 then invalid_arg "Multi.config: p >= 1";
  if r < 1 then invalid_arg "Multi.config: r >= 1";
  { p; r }

module Move = struct
  type rbp =
    | Load of int * int
    | Save of int * int
    | Compute of int * int
    | Delete of int * int

  type prbp =
    | Load of int * int
    | Save of int * int
    | Compute of int * (int * int)
    | Delete of int * int

  let pp_rbp ppf (m : rbp) =
    match m with
    | Load (q, v) -> Format.fprintf ppf "p%d: load %d" q v
    | Save (q, v) -> Format.fprintf ppf "p%d: save %d" q v
    | Compute (q, v) -> Format.fprintf ppf "p%d: compute %d" q v
    | Delete (q, v) -> Format.fprintf ppf "p%d: delete %d" q v

  let pp_prbp ppf (m : prbp) =
    match m with
    | Load (q, v) -> Format.fprintf ppf "p%d: load %d" q v
    | Save (q, v) -> Format.fprintf ppf "p%d: save %d" q v
    | Compute (q, (u, v)) -> Format.fprintf ppf "p%d: compute (%d,%d)" q u v
    | Delete (q, v) -> Format.fprintf ppf "p%d: delete %d" q v
end

(* Replay [moves] through the literal rules of {!Verifier}: each move is
   a one-processor move played by its processor.  [Ok] is the I/O cost
   of a complete pebbling. *)
let replay ~initial ~step ~is_terminal ~io ~pp ~incomplete cfg g moves =
  let rec go i st = function
    | [] -> if is_terminal g st then Ok (io st) else Error incomplete
    | m :: rest -> (
        match step ~r:cfg.r ~p:cfg.p g st m with
        | Ok st -> go (i + 1) st rest
        | Error e ->
            Format.kasprintf (fun s -> Error s) "move #%d (%a): %s" i pp m e)
  in
  go 0 (initial g) moves

module R = struct
  let step ~r ~p g st (m : Move.rbp) =
    match m with
    | Load (q, v) -> Verifier.R.step ~r ~p ~q g st (Single.R.Load v)
    | Save (q, v) -> Verifier.R.step ~r ~p ~q g st (Single.R.Save v)
    | Compute (q, v) -> Verifier.R.step ~r ~p ~q g st (Single.R.Compute v)
    | Delete (q, v) -> Verifier.R.step ~r ~p ~q g st (Single.R.Delete v)

  let check cfg g moves =
    replay ~initial:Verifier.R.initial ~step
      ~is_terminal:Verifier.R.is_terminal
      ~io:(fun st -> st.Verifier.R.io)
      ~pp:Move.pp_rbp
      ~incomplete:"incomplete pebbling: some sink has no blue pebble" cfg g
      moves
end

module P = struct
  let step ~r ~p g st (m : Move.prbp) =
    match m with
    | Load (q, v) -> Verifier.P.step ~r ~p ~q g st (Single.P.Load v)
    | Save (q, v) -> Verifier.P.step ~r ~p ~q g st (Single.P.Save v)
    | Compute (q, (u, v)) ->
        Verifier.P.step ~r ~p ~q g st (Single.P.Compute (u, v))
    | Delete (q, v) -> Verifier.P.step ~r ~p ~q g st (Single.P.Delete v)

  let check cfg g moves =
    replay ~initial:Verifier.P.initial ~step
      ~is_terminal:Verifier.P.is_terminal
      ~io:(fun st -> st.Verifier.P.io)
      ~pp:Move.pp_prbp ~incomplete:"incomplete pebbling" cfg g moves
end

let lift_rbp moves =
  List.map
    (fun (m : Single.R.t) : Move.rbp ->
      match m with
      | Single.R.Load v -> Move.Load (0, v)
      | Single.R.Save v -> Move.Save (0, v)
      | Single.R.Compute v -> Move.Compute (0, v)
      | Single.R.Delete v -> Move.Delete (0, v)
      | Single.R.Slide _ -> invalid_arg "Multi.lift_rbp: slide")
    moves

let lift_prbp moves =
  List.map
    (fun (m : Single.P.t) : Move.prbp ->
      match m with
      | Single.P.Load v -> Move.Load (0, v)
      | Single.P.Save v -> Move.Save (0, v)
      | Single.P.Compute (u, v) -> Move.Compute (0, (u, v))
      | Single.P.Delete v -> Move.Delete (0, v)
      | Single.P.Clear _ -> invalid_arg "Multi.lift_prbp: clear")
    moves
