open Test_util
module D = Prbp_solver.Deque01

let drain d =
  let rec go acc =
    match D.pop_front d with -1 -> List.rev acc | x -> go (x :: acc)
  in
  go []

let test_fifo () =
  let d = D.create () in
  check_true "fresh empty" (D.is_empty d);
  for i = 1 to 100 do
    D.push_back d i
  done;
  check_int "length" 100 (D.length d);
  Alcotest.(check (list int)) "FIFO order" (List.init 100 (fun i -> i + 1))
    (drain d);
  check_true "drained" (D.is_empty d)

let test_lifo () =
  let d = D.create () in
  for i = 1 to 100 do
    D.push_front d i
  done;
  Alcotest.(check (list int)) "LIFO order"
    (List.rev (List.init 100 (fun i -> i + 1)))
    (drain d)

(* interleave pushes and pops so head wraps around the buffer in both
   directions across several growth steps *)
let test_wraparound () =
  let d = D.create () in
  let model = Queue.create () in
  for round = 0 to 5 do
    for i = 0 to (16 lsl round) - 1 do
      D.push_back d i;
      Queue.push i model
    done;
    for _ = 1 to 8 lsl round do
      check_int "pop matches" (Queue.pop model) (D.pop_front d)
    done
  done;
  check_int "lengths agree" (Queue.length model) (D.length d)

let test_clear () =
  let d = D.create () in
  for i = 1 to 50 do
    D.push_back d i
  done;
  D.clear d;
  check_true "cleared" (D.is_empty d);
  check_int "pop on empty" (-1) (D.pop_front d);
  D.push_front d 7;
  Alcotest.(check (list int)) "usable after clear" [ 7 ] (drain d)

(* recycling keeps the buffer but restarts the logical size: after a
   large run, the same pushes report the words of a fresh deque *)
let test_recycle () =
  let d = D.create () in
  for i = 1 to 10_000 do
    D.push_back d i
  done;
  D.recycle d;
  check_true "recycled empty" (D.is_empty d);
  check_int "pop on recycled" (-1) (D.pop_front d);
  check_int "words restart" 0 (D.words d);
  let fresh = D.create () in
  for i = 1 to 40 do
    D.push_front d i;
    D.push_front fresh i
  done;
  check_int "words of a fresh deque" (D.words fresh) (D.words d);
  Alcotest.(check (list int)) "same contents" (drain fresh) (drain d)

(* qcheck: arbitrary op sequences agree with a two-list reference *)
type op = Front of int | Back of int | Pop

let qtest_vs_model =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (2, map (fun x -> Front x) small_int);
          (2, map (fun x -> Back x) small_int);
          (3, return Pop);
        ])
  in
  let print_op = function
    | Front x -> Printf.sprintf "F%d" x
    | Back x -> Printf.sprintf "B%d" x
    | Pop -> "P"
  in
  QCheck.Test.make ~count:500 ~name:"deque agrees with a list model"
    (QCheck.make ~print:QCheck.Print.(list print_op) (QCheck.Gen.list gen_op))
    (fun ops ->
      let d = D.create () in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Front x ->
              D.push_front d x;
              model := x :: !model;
              true
          | Back x ->
              D.push_back d x;
              model := !model @ [ x ];
              true
          | Pop -> (
              match (D.pop_front d, !model) with
              | -1, [] -> true
              | x, y :: rest when x = y ->
                  model := rest;
                  true
              | _ -> false))
        ops
      && D.length d = List.length !model)

let suite =
  [
    ( "deque01",
      [
        case "FIFO via push_back" test_fifo;
        case "LIFO via push_front" test_lifo;
        case "wraparound across growth" test_wraparound;
        case "clear releases and stays usable" test_clear;
        case "recycle keeps storage, restarts words" test_recycle;
        QCheck_alcotest.to_alcotest qtest_vs_model;
      ] );
  ]
