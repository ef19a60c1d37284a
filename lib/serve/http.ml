module Clock = Prbp_obs.Clock

type request = {
  meth : string;
  path : string;
  headers : (string * string) list;
  body : string;
}

let header rq name =
  List.assoc_opt (String.lowercase_ascii name) rq.headers

(* ------------------------------------------------------------------ *)
(* Reading *)

let read_more fd buf chunk =
  match Unix.read fd chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | n ->
      Buffer.add_subbytes buf chunk 0 n;
      true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

let find_head_end s =
  (* index just past "\r\n\r\n", if present *)
  let n = String.length s in
  let rec go i =
    if i + 4 > n then None
    else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r'
            && s.[i + 3] = '\n'
    then Some (i + 4)
    else go (i + 1)
  in
  go 0

let parse_head head =
  match String.split_on_char '\n' head with
  | [] -> Error "empty request head"
  | request_line :: header_lines ->
      let request_line = String.trim request_line in
      let parts =
        List.filter (fun s -> s <> "") (String.split_on_char ' ' request_line)
      in
      (match parts with
      | [ meth; path; version ]
        when version = "HTTP/1.1" || version = "HTTP/1.0" ->
          let headers =
            List.filter_map
              (fun line ->
                let line = String.trim line in
                if line = "" then None
                else
                  match String.index_opt line ':' with
                  | None -> None
                  | Some i ->
                      Some
                        ( String.lowercase_ascii (String.sub line 0 i),
                          String.trim
                            (String.sub line (i + 1)
                               (String.length line - i - 1)) ))
              header_lines
          in
          Ok (String.uppercase_ascii meth, path, headers)
      | _ -> Error "malformed request line")

(* Each read is also bounded by the socket's receive timeout, but a
   peer that sends one byte per timeout would otherwise hold a worker
   for days. *)
let request_deadline_s = 30.

exception Too_slow

let read_request ?(max_header = 16 * 1024) ?(max_body = 64 * 1024 * 1024) fd =
  let deadline = Clock.now () +. request_deadline_s in
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 8192 in
  let more () =
    let alive = read_more fd buf chunk in
    if Clock.expired deadline then raise Too_slow;
    alive
  in
  let rec read_head () =
    match find_head_end (Buffer.contents buf) with
    | Some head_end -> Ok head_end
    | None ->
        if Buffer.length buf > max_header then Error "request head too large"
        else if more () then read_head ()
        else Error "connection closed before request head"
  in
  let read () =
    match read_head () with
    | Error _ as e -> e
    | Ok head_end -> (
        let all = Buffer.contents buf in
        match parse_head (String.sub all 0 (head_end - 4)) with
        | Error _ as e -> e
        | Ok (meth, path, headers) -> (
            match List.assoc_opt "transfer-encoding" headers with
            | Some te when String.lowercase_ascii te <> "identity" ->
                Error "transfer-encoding not supported in requests"
            | _ -> (
                let content_length =
                  match List.assoc_opt "content-length" headers with
                  | None -> Ok 0
                  | Some s -> (
                      match int_of_string_opt (String.trim s) with
                      | Some n when n >= 0 -> Ok n
                      | _ -> Error "bad content-length")
                in
                match content_length with
                | Error _ as e -> e
                | Ok wanted ->
                    if wanted > max_body then Error "request body too large"
                    else begin
                      let rec read_body () =
                        if Buffer.length buf - head_end >= wanted then
                          Ok
                            (String.sub (Buffer.contents buf) head_end wanted)
                        else if more () then read_body ()
                        else Error "connection closed before request body"
                      in
                      match read_body () with
                      | Error _ as e -> e
                      | Ok body -> Ok { meth; path; headers; body }
                    end)))
  in
  (* a failed or late read, in the head or the body *)
  try read () with
  | Unix.Unix_error (e, _, _) -> Error ("read: " ^ Unix.error_message e)
  | Too_slow ->
      Error
        (Printf.sprintf "request not received within %.0f s" request_deadline_s)

(* ------------------------------------------------------------------ *)
(* Writing *)

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 413 -> "Content Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | c -> Printf.sprintf "Status %d" c

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  (* a vanished peer (EPIPE/ECONNRESET) must not kill the server *)
  try go 0 with Unix.Unix_error _ -> ()

let head_lines status headers =
  let b = Buffer.create 256 in
  Printf.bprintf b "HTTP/1.1 %d %s\r\n" status (status_text status);
  List.iter (fun (k, v) -> Printf.bprintf b "%s: %s\r\n" k v) headers;
  Buffer.add_string b "\r\n";
  Buffer.contents b

let write_response ?(headers = []) ~status ~body fd =
  let headers =
    headers
    @ [
        ("content-length", string_of_int (String.length body));
        ("connection", "close");
      ]
  in
  write_all fd (head_lines status headers ^ body)

let write_chunked_head ?(headers = []) ~status fd =
  let headers =
    headers @ [ ("transfer-encoding", "chunked"); ("connection", "close") ]
  in
  write_all fd (head_lines status headers)

let write_chunk fd s =
  if String.length s > 0 then
    write_all fd (Printf.sprintf "%x\r\n%s\r\n" (String.length s) s)

let write_chunk_end fd = write_all fd "0\r\n\r\n"
