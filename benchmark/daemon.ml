(* prbpd as a child process, and a minimal HTTP/1.1 client for it.

   The daemon listens on a unix socket in a private directory under
   the working directory (mode 0700, a relative path so the socket
   path stays short however deep the checkout is), never on a TCP
   port.  Every started daemon is registered for shutdown — SIGTERM,
   then waitpid — which also runs when the benchmark exits early or a
   run fails. *)

type t = { pid : int; sock : string; dir : string }

let live : t list ref = ref []

(* ------------------------------------------------------------------ *)
(* HTTP over the unix socket: one request per connection, as prbpd
   speaks it (Connection: close). *)

type reply = { status : int; cache : string; body : string }

let read_all fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let header_value head name =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i
        when String.lowercase_ascii (String.trim (String.sub line 0 i)) = name
        ->
          Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> None)
    (String.split_on_char '\n' head)

let find_sub s sub =
  let n = String.length s and k = String.length sub in
  let rec go i =
    if i + k > n then None
    else if String.sub s i k = sub then Some i
    else go (i + 1)
  in
  go 0

let parse raw =
  match find_sub raw "\r\n\r\n" with
  | None -> None
  | Some i -> (
      let head = String.sub raw 0 i in
      let body = String.sub raw (i + 4) (String.length raw - i - 4) in
      match String.split_on_char ' ' head with
      | _ :: code :: _ ->
          Option.map
            (fun status ->
              {
                status;
                cache = Option.value ~default:"-" (header_value head "x-prbpd-cache");
                body;
              })
            (int_of_string_opt (String.trim code))
      | _ -> None)

let exchange d raw =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX d.sock);
      ignore (Unix.write_substring fd raw 0 (String.length raw));
      parse (read_all fd))

let post d ~path body =
  exchange d
    (Printf.sprintf "POST %s HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n\r\n%s"
       path (String.length body) body)

let get d path =
  exchange d (Printf.sprintf "GET %s HTTP/1.1\r\nHost: bench\r\n\r\n" path)

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let reap pid ~grace_s =
  let deadline = Unix.gettimeofday () +. grace_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)
        end
        else begin
          Unix.sleepf 0.01;
          wait ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let stop d =
  if List.memq d !live then begin
    live := List.filter (fun x -> x != d) !live;
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    reap d.pid ~grace_s:10.;
    Util.remove_dir d.dir
  end

let stop_all () = List.iter stop !live

let () = at_exit stop_all

let healthy d =
  match get d "/healthz" with
  | Some r when r.status = 200 -> (
      match Prbp.Wire.decode_healthz r.body with
      | Ok h -> h.Prbp.Wire.wire = Prbp.Wire.version
      | Error _ -> false)
  | _ -> false
  | exception Unix.Unix_error _ -> false

(* Boot a daemon and wait for a healthy /healthz. *)
let start ~prbpd ~workers ~cache =
  if not (Sys.file_exists prbpd) then
    failwith
      (Printf.sprintf "no prbpd at %s: build it with `dune build benchmark/prbpd.exe`"
         prbpd);
  let dir = Util.fresh_dir () in
  let sock = Filename.concat dir "prbpd.sock" in
  let args =
    [| prbpd; "--unix-socket"; sock; "-j"; string_of_int workers; "--cache";
       string_of_int cache; "--queue"; "64" |]
  in
  let pid = Unix.create_process prbpd args Unix.stdin Unix.stderr Unix.stderr in
  let d = { pid; sock; dir } in
  live := d :: !live;
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait () =
    if healthy d then d
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
          Unix.sleepf 0.005;
          wait ()
      | 0, _ ->
          stop d;
          failwith "prbpd did not answer /healthz within 30 s"
      | _ ->
          live := List.filter (fun x -> x != d) !live;
          Util.remove_dir dir;
          failwith ("prbpd exited during start-up: " ^ prbpd)
  in
  wait ()

(* Sum and count of a Prometheus histogram series in /metrics, e.g.
   [prbpd_route_request_seconds{route="/v1/solve"}]. *)
let histogram_sum_count d series =
  match get d "/metrics" with
  | Some r when r.status = 200 ->
      let find suffix =
        let prefix =
          match String.index_opt series '{' with
          | None -> series ^ suffix ^ " "
          | Some i ->
              String.sub series 0 i ^ suffix
              ^ String.sub series i (String.length series - i)
              ^ " "
        in
        List.find_map
          (fun line ->
            let k = String.length prefix in
            if String.length line > k && String.sub line 0 k = prefix then
              float_of_string_opt (String.sub line k (String.length line - k))
            else None)
          (String.split_on_char '\n' r.body)
      in
      ( Option.value ~default:0. (find "_sum"),
        Option.value ~default:0. (find "_count") )
  | _ -> (0., 0.)
