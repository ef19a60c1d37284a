(* Helpers shared by every workload: the benchmark's own wall clock,
   order statistics, JSON output, scratch directories and the process
   facts (peak RSS, commit) a results file records. *)

module Json = Prbp.Wire.Json

(* The benchmark times with the system clock directly rather than
   through [Prbp.Obs.Clock], so a change to the library's clock cannot
   change how the benchmark measures it. *)
let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Order statistics *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between the closest ranks; [q] in [0, 1]. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let x = q *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let quantile xs q = quantile_sorted (sorted xs) q

let median xs = quantile xs 0.5

(* Nearest-rank percentile, for latency tails: the value at or below
   which a share [p] of the samples lie. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let sum xs = List.fold_left ( +. ) 0. xs

let isum xs = List.fold_left ( + ) 0 xs

(* ------------------------------------------------------------------ *)
(* A measured metric value: the value over the whole run plus the
   quartiles of the same metric computed per slice of the run (per pass
   or per time slice), so one results file carries its own spread. *)

type value = { value : float; p25 : float; p75 : float; n : int }

let of_slices ~total slices =
  match slices with
  | [] -> { value = total; p25 = total; p75 = total; n = 0 }
  | _ ->
      let a = sorted slices in
      {
        value = total;
        p25 = quantile_sorted a 0.25;
        p75 = quantile_sorted a 0.75;
        n = List.length slices;
      }

let exact v = { value = v; p25 = v; p75 = v; n = 1 }

(* ------------------------------------------------------------------ *)
(* JSON output *)

let num f =
  if Float.is_integer f && Float.abs f < 1e15 then Json.Int (int_of_float f)
  else Json.Float f

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_json path =
  match Json.of_string (read_file path) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let member_exn k j =
  match Json.member k j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing field %S" k)

let float_exn j =
  match Json.to_float j with Some f -> f | None -> failwith "expected a number"

let string_exn j =
  match Json.to_str j with Some s -> s | None -> failwith "expected a string"

let list_exn j =
  match Json.to_list j with Some l -> l | None -> failwith "expected a list"

(* ------------------------------------------------------------------ *)
(* Scratch space: private directories under the working directory,
   removed by whoever made them, and at exit at the latest. *)

let tmp_root = "_benchmark_tmp"

(* Remove a directory made by [fresh_dir] with its files, and the root
   when it is left empty. *)
let remove_dir dir =
  (try Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
   with Sys_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  try Unix.rmdir tmp_root with Unix.Unix_error _ -> ()

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    (try Unix.mkdir tmp_root 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    incr counter;
    let dir =
      Filename.concat tmp_root (Printf.sprintf "%d-%d" (Unix.getpid ()) !counter)
    in
    Unix.mkdir dir 0o700;
    at_exit (fun () -> remove_dir dir);
    dir

(* ------------------------------------------------------------------ *)
(* Process facts *)

(* Peak resident set (VmHWM) of a process, in MB, from /proc; falls
   back to the OCaml heap's high-water mark where /proc is absent. *)
let peak_rss_mb pid =
  let from_proc () =
    let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:"
            ->
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d" (fun kb -> float_of_int kb /. 1024.)
          | _ -> go ()
        in
        go ())
  in
  try from_proc ()
  with Sys_error _ | End_of_file | Scanf.Scan_failure _ | Failure _ ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

(* The commit of the checkout, read from .git without running git (the
   benchmark also runs from exported trees that carry no .git). *)
let commit () =
  let trim s = String.trim s in
  let read p = try Some (trim (read_file p)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" r) with
      | Some h -> h
      | None -> (
          match read ".git/packed-refs" with
          | None -> "unknown"
          | Some packed ->
              List.fold_left
                (fun acc line ->
                  match String.split_on_char ' ' line with
                  | [ h; name ] when name = r -> h
                  | _ -> acc)
                "unknown"
                (String.split_on_char '\n' packed)))
  | Some h -> h
