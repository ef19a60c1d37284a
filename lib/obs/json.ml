type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printer *)

let escape s =
  (* fast path: nothing to escape, return the original string *)
  let clean = ref true in
  String.iter
    (fun c -> if c = '"' || c = '\\' || Char.code c < 0x20 then clean := false)
    s;
  if !clean then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | '\b' -> Buffer.add_string b "\\b"
        | '\012' -> Buffer.add_string b "\\f"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  end

let string s = "\"" ^ escape s ^ "\""

let add_float b f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
    (* JSON has no NaN/Inf; null is the conventional degradation *)
    Buffer.add_string b "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    (* integral floats print without the exponent noise *)
    Buffer.add_string b (Printf.sprintf "%.1f" f)
  else Buffer.add_string b (Printf.sprintf "%.17g" f)

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> add_float b f
  | String s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
  | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          add b x)
        xs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b "\":";
          add b v)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  add b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parser: recursive descent, depth-capped, exception-free interface. *)

exception Fail of string

let max_depth = 100

let of_string s =
  let len = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (Printf.sprintf "byte %d: %s" !pos msg)) in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < len
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let wl = String.length word in
    if !pos + wl <= len && String.sub s !pos wl = word then begin
      pos := !pos + wl;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > len then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad hex digit in \\u escape"
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let add_utf8 b cp =
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= len then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= len then fail "unterminated escape";
           match s.[!pos] with
           | '"' -> Buffer.add_char b '"'; advance ()
           | '\\' -> Buffer.add_char b '\\'; advance ()
           | '/' -> Buffer.add_char b '/'; advance ()
           | 'b' -> Buffer.add_char b '\b'; advance ()
           | 'f' -> Buffer.add_char b '\012'; advance ()
           | 'n' -> Buffer.add_char b '\n'; advance ()
           | 'r' -> Buffer.add_char b '\r'; advance ()
           | 't' -> Buffer.add_char b '\t'; advance ()
           | 'u' ->
               advance ();
               let cp = hex4 () in
               let cp =
                 if cp >= 0xD800 && cp <= 0xDBFF then begin
                   (* high surrogate: a \uXXXX low surrogate must follow *)
                   if
                     !pos + 2 <= len && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                   then begin
                     pos := !pos + 2;
                     let lo = hex4 () in
                     if lo < 0xDC00 || lo > 0xDFFF then
                       fail "bad low surrogate";
                     0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                   end
                   else fail "lone high surrogate"
                 end
                 else if cp >= 0xDC00 && cp <= 0xDFFF then
                   fail "lone low surrogate"
                 else cp
               in
               add_utf8 b cp
           | c -> fail (Printf.sprintf "bad escape \\%C" c));
          go ()
      | '\000' .. '\031' -> fail "raw control character in string"
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    while
      !pos < len
      &&
      match s.[!pos] with
      | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
      | _ -> false
    do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    let is_int =
      String.for_all (function '0' .. '9' | '-' -> true | _ -> false) tok
    in
    if is_int then
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          (* out of int range: degrade to float *)
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail "bad number")
    else
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail "bad number"
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec go () =
            items := parse_value (depth + 1) :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); go ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          go ();
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let items = ref [] in
          let rec go () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            items := (k, v) :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); go ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          go ();
          Obj (List.rev !items)
        end
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> len then fail "trailing garbage after JSON value";
    v
  with
  | v -> Ok v
  | exception Fail msg -> Error msg
  | exception Stack_overflow -> Error "nesting too deep"

(* ------------------------------------------------------------------ *)
(* Accessors *)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f && Float.abs f <= 1e15 ->
      Some (int_of_float f)
  | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let to_str = function String s -> Some s | _ -> None

let to_list = function List l -> Some l | _ -> None
