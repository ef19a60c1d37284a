(** Minimal JSON: values, a parser and a printer, shared by every
    emitter in the library — the versioned wire schema
    ([Prbp_wire.Wire]), the span and metric exporters, and the bench
    rows.

    Deliberately tiny and dependency-free: the records only need
    objects, arrays, strings, booleans and numbers.  Integers are kept
    exact (node ids, costs and state counts must survive a round
    trip); floats print with enough digits to round-trip a double.
    The parser is hardened for server use: malformed input is an
    [Error], never an exception, and nesting depth is capped.

    Strings are escaped here, not with [Printf]'s [%S], which emits
    OCaml lexical conventions (e.g. [\ddd] decimal escapes) that are
    not valid JSON. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering (no whitespace), object fields in list order.
    Deterministic: equal values render to equal bytes. *)

val of_string : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed; trailing
    garbage is an error).  Numbers without ['.'], ['e'] or ['E'] that
    fit in an OCaml [int] parse as {!Int}, everything else as
    {!Float}.  [\uXXXX] escapes decode to UTF-8 (surrogate pairs
    included).  Nesting deeper than 100 levels is an error. *)

val escape : string -> string
(** The body of a JSON string literal for [s]: every double quote,
    backslash and control character (U+0000–U+001F) escaped per RFC
    8259; bytes ≥ 0x80 pass through untouched (JSON strings carry raw
    UTF-8). *)

val string : string -> string
(** [string s] is [escape s] wrapped in double quotes — a complete
    JSON string token, for exporters that assemble their own
    objects. *)

(** {1 Accessors} — total, for decoder plumbing. *)

val member : string -> t -> t option
(** [member k (Obj _)] is the first binding of [k]; [None] otherwise. *)

val to_int : t -> int option
(** {!Int}, or a {!Float} with an exact integer value. *)

val to_float : t -> float option

val to_bool : t -> bool option

val to_str : t -> string option

val to_list : t -> t list option
