(** Just enough HTTP/1.1 over stdlib {!Unix} file descriptors for the
    [prbpd] daemon: blocking request reader with hard header/body
    caps, plain and chunked response writers.  No keep-alive — every
    exchange is one request, one response, close (the daemon serves
    solvers, not static assets; connection setup is noise next to a
    solve). *)

type request = {
  meth : string;  (** uppercased, e.g. ["POST"] *)
  path : string;  (** request-target as sent, e.g. ["/v1/solve"] *)
  headers : (string * string) list;  (** names lowercased *)
  body : string;
}

val request_deadline_s : float
(** 30 s: the whole request must arrive within this long of the call
    to {!read_request}.  The daemon also uses it as each connection's
    per-read receive timeout, so a trickling client holds a worker for
    at most about twice this long. *)

val read_request :
  ?max_header:int -> ?max_body:int -> Unix.file_descr -> (request, string) result
(** Read one request.  Defaults: 16 KiB of head, 64 MiB of body.
    [Error] on malformed head, over-cap sizes, unsupported transfer
    encodings, a peer that hangs up mid-request, or a request not
    received in full within {!request_deadline_s} of the call (read
    from {!Prbp_obs.Clock}, checked after every read).  The deadline
    implies a minimum transfer rate: a body of the default 64 MiB cap
    must arrive at 2.2 MB/s or more. *)

val header : request -> string -> string option
(** Case-insensitive header lookup. *)

val status_text : int -> string

val write_response :
  ?headers:(string * string) list ->
  status:int ->
  body:string ->
  Unix.file_descr ->
  unit
(** One complete response with [Content-Length] and
    [Connection: close].  Write errors (peer gone) are swallowed — the
    daemon must not die because a client did. *)

(** {1 Chunked responses} — telemetry streams. *)

val write_chunked_head :
  ?headers:(string * string) list -> status:int -> Unix.file_descr -> unit

val write_chunk : Unix.file_descr -> string -> unit
(** One chunk ([""] is skipped — an empty chunk would terminate the
    stream). *)

val write_chunk_end : Unix.file_descr -> unit
(** The terminating 0-chunk. *)
