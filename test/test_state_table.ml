open Test_util
module Flat = Prbp_solver.State_table.Flat

(* Deterministic insert/lookup/update against sequential width-2 keys,
   enough volume to force several slot-array and dense-array
   growths. *)
let test_flat_grow () =
  let t = Flat.create ~width:2 () in
  let n = 100_000 in
  for i = 0 to n - 1 do
    check_int "absent" (-1) (Flat.find t [| i; i * 7 |]);
    let idx = Flat.add t [| i; i * 7 |] (i + 1) in
    check_int "dense index is insertion order" i idx
  done;
  check_int "length" n (Flat.length t);
  check_true "dense columns grew" (Flat.resizes t > 0);
  let buf = [| 0; 0 |] in
  for i = 0 to n - 1 do
    let idx = Flat.find t [| i; i * 7 |] in
    check_int "found" i idx;
    check_int "value" (i + 1) (Flat.value t idx);
    check_int "key 0" i (Flat.key t idx 0);
    check_int "key 1" (i * 7) (Flat.key t idx 1);
    Flat.read_key t idx buf;
    check_true "read_key" (buf = [| i; i * 7 |])
  done;
  Flat.set_value t 0 42;
  check_int "set_value" 42 (Flat.value t 0);
  Flat.recycle t ~width:2;
  check_int "reset empties" 0 (Flat.length t);
  check_int "reset restores the capacity" 0 (Flat.resizes t);
  check_int "reset forgets" (-1) (Flat.find t [| 3; 21 |])

(* A recycled table replays a fresh one: after a large width-2 search,
   recycling to another key width gives the same dense indices and the
   same logical sizes (words, capacity, resizes, load) as a table
   created for that width — growing within the kept arrays and past
   them. *)
let test_flat_recycle () =
  let t = Flat.create ~width:2 () in
  for i = 0 to 99_999 do
    ignore (Flat.add t [| i; i * 7 |] i)
  done;
  List.iter
    (fun (width, n) ->
      Flat.recycle t ~width;
      check_int "recycle empties" 0 (Flat.length t);
      let fresh = Flat.create ~width () in
      let key i = Array.init width (fun c -> (i * (c + 3)) + c) in
      for i = 0 to n - 1 do
        check_int "absent" (-1) (Flat.find t (key i));
        check_int "dense index of a fresh table" (Flat.add fresh (key i) i)
          (Flat.add t (key i) i)
      done;
      check_int "words" (Flat.words fresh) (Flat.words t);
      check_int "capacity" (Flat.capacity fresh) (Flat.capacity t);
      check_int "resizes" (Flat.resizes fresh) (Flat.resizes t);
      check_true "load" (Flat.load fresh = Flat.load t);
      let buf = Array.make width 0 in
      for i = 0 to n - 1 do
        let idx = Flat.find t (key i) in
        check_int "found" i idx;
        check_int "value" i (Flat.value t idx);
        Flat.read_key t idx buf;
        check_true "key back" (buf = key i)
      done)
    [ (3, 10_000); (6, 300); (2, 150_000); (5, 40_000) ]

(* Adversarial collisions at width 3: keys differing only in high
   bits, and bitmask-shaped keys (the solver's actual distribution). *)
let test_flat_collisions () =
  let t = Flat.create ~width:3 () in
  let keys =
    List.concat_map
      (fun a ->
        List.concat_map
          (fun b -> List.map (fun c -> [| a lsl 40; b lsl 20; c |]) [ 0; 1; 2; 3 ])
          [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  List.iteri
    (fun i k ->
      check_int "absent" (-1) (Flat.find t k);
      check_int "idx" i (Flat.add t k i))
    keys;
  let buf = Array.make 3 0 in
  List.iteri
    (fun i k ->
      let idx = Flat.find t k in
      check_int "found" i idx;
      check_int "value" i (Flat.value t idx);
      Flat.read_key t idx buf;
      check_true "keys back" (buf = k))
    keys

(* qcheck: an arbitrary op sequence agrees with a Hashtbl model.  Width
   2 and 3 take the unrolled probe loops, width 5 the generic hash. *)
let qtest_flat_vs_hashtbl width =
  QCheck.Test.make ~count:200
    ~name:(Printf.sprintf "Flat w=%d agrees with a Hashtbl model" width)
    QCheck.(list (pair (array_of_size (Gen.return width) small_signed_int) small_nat))
    (fun ops ->
      let t = Flat.create ~width () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          let idx = Flat.find t k in
          if idx >= 0 then Flat.set_value t idx v else ignore (Flat.add t k v);
          Hashtbl.replace model (Array.to_list k) v)
        ops;
      let buf = Array.make width 0 in
      Hashtbl.length model = Flat.length t
      && Hashtbl.fold
           (fun k v acc ->
             acc
             &&
             let idx = Flat.find t (Array.of_list k) in
             idx >= 0 && Flat.value t idx = v
             && (Flat.read_key t idx buf;
                 Array.to_list buf = k))
           model true)

(* The solvers' bit kernels, exercised over every single-bit input and
   random masks. *)
let test_bits () =
  let module B = Prbp_solver.Bits in
  for i = 0 to 62 do
    check_int "lowest_set_index on 2^i" i (B.lowest_set_index (1 lsl i));
    check_int "popcount of 2^i" 1 (B.popcount (1 lsl i))
  done;
  check_int "popcount 0" 0 (B.popcount 0);
  check_int "popcount max_int" 62 (B.popcount max_int);
  let st = Random.State.make [| 42 |] in
  for _ = 1 to 1000 do
    let m = Random.State.int st ((1 lsl 30) - 1) in
    let naive =
      let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
      go 0 m
    in
    check_int "popcount random" naive (B.popcount m);
    (* the clear-lowest-bit walk the games run over their masks *)
    let collected = ref [] and rest = ref m in
    while !rest <> 0 do
      collected := B.lowest_set_index !rest :: !collected;
      rest := !rest land (!rest - 1)
    done;
    let expect =
      List.filter (fun i -> m land (1 lsl i) <> 0) (List.init 30 Fun.id)
    in
    Alcotest.(check (list int)) "bit walk" expect (List.rev !collected)
  done

let suite =
  [
    ( "state_table",
      [
        case "Flat insert/lookup/grow/reset" test_flat_grow;
        case "Flat adversarial collisions" test_flat_collisions;
        case "Flat recycle replays a fresh table" test_flat_recycle;
        QCheck_alcotest.to_alcotest (qtest_flat_vs_hashtbl 2);
        QCheck_alcotest.to_alcotest (qtest_flat_vs_hashtbl 3);
        case "bit kernels" test_bits;
        QCheck_alcotest.to_alcotest (qtest_flat_vs_hashtbl 5);
      ] );
  ]
