(* The reference JSON codec: a character-at-a-time parser and writer,
   kept as the differential oracle for {!Ptg_util.Json}. Its output and
   its error strings (message and byte offset) are the contract the run-
   copying codec must match byte for byte; the [server.json] properties
   compare the two. Test-only. *)

type t = Ptg_util.Json.t =
  | Null
  | Bool of bool
  | Int of int64
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of int * string

let fail pos msg = raise (Parse_error (pos, msg))

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance c;
        true
    | _ -> false
  do
    ()
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c.pos (Printf.sprintf "expected '%c'" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c.pos (Printf.sprintf "expected %s" word)

let hex_digit c ch =
  match ch with
  | '0' .. '9' -> Char.code ch - Char.code '0'
  | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
  | _ -> fail c.pos "invalid \\u escape"

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c.pos "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | None -> fail c.pos "unterminated escape"
        | Some esc ->
            advance c;
            (match esc with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                if c.pos + 4 > String.length c.s then fail c.pos "short \\u escape";
                let code =
                  (hex_digit c c.s.[c.pos] lsl 12)
                  lor (hex_digit c c.s.[c.pos + 1] lsl 8)
                  lor (hex_digit c c.s.[c.pos + 2] lsl 4)
                  lor hex_digit c c.s.[c.pos + 3]
                in
                c.pos <- c.pos + 4;
                (* UTF-8 encode the BMP code point (enough for the
                   control-character escapes our own exporters emit). *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
            | _ -> fail (c.pos - 1) "unknown escape");
            go ())
    | Some ch when Char.code ch < 0x20 -> fail c.pos "raw control char in string"
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  let consume () = advance c in
  (match peek c with Some '-' -> consume () | _ -> ());
  let rec digits () =
    match peek c with
    | Some '0' .. '9' ->
        consume ();
        digits ()
    | _ -> ()
  in
  digits ();
  (match peek c with
  | Some '.' ->
      is_float := true;
      consume ();
      digits ()
  | _ -> ());
  (match peek c with
  | Some ('e' | 'E') ->
      is_float := true;
      consume ();
      (match peek c with Some ('+' | '-') -> consume () | _ -> ());
      digits ()
  | _ -> ());
  let text = String.sub c.s start (c.pos - start) in
  if text = "" || text = "-" then fail start "invalid number";
  (* JSON forbids leading zeros in the integer part ("01", "-012"). *)
  let int_start = if text.[0] = '-' then 1 else 0 in
  if
    String.length text > int_start + 1
    && text.[int_start] = '0'
    && (match text.[int_start + 1] with '0' .. '9' -> true | _ -> false)
  then fail start "leading zero in number";
  (* Overflowed literals ("1e999", a 400-digit integer) parse to
     [infinity], which the emitter could never have produced and which
     would round-trip as the invalid token "inf" — reject them here so a
     non-finite float can never enter through the codec. *)
  let finite_or_fail f =
    if Float.is_finite f then Float f
    else fail start "number overflows a finite float"
  in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> finite_or_fail f
    | None -> fail start "invalid number"
  else
    match Int64.of_string_opt text with
    | Some i -> Int i
    | None -> (
        (* Out of int64 range: degrade to float rather than reject. *)
        match float_of_string_opt text with
        | Some f -> finite_or_fail f
        | None -> fail start "invalid number")

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c.pos "unexpected end of input"
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws c;
          let key = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              fields ((key, v) :: acc)
          | Some '}' ->
              advance c;
              List.rev ((key, v) :: acc)
          | _ -> fail c.pos "expected ',' or '}'"
        in
        Obj (fields [])
      end
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              elements (v :: acc)
          | Some ']' ->
              advance c;
              List.rev (v :: acc)
          | _ -> fail c.pos "expected ',' or ']'"
        in
        List (elements [])
      end
  | Some '"' -> String (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c.pos (Printf.sprintf "unexpected character '%c'" ch)

let parse s =
  let c = { s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at byte %d" c.pos)
      else Ok v
  | exception Parse_error (pos, msg) ->
      Error (Printf.sprintf "%s at byte %d" msg pos)

(* Strings that need no escaping (every key and name this repo emits)
   are returned as they are, without a copy. *)
let escape s =
  let rec plain i =
    i = String.length s
    || (let c = s.[i] in
        c <> '"' && c <> '\\' && Char.code c >= 0x20 && plain (i + 1))
  in
  if plain 0 then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun ch ->
        match ch with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (Int64.to_string i)
  | Float f ->
      (* JSON has no encoding for nan/inf: %.17g would print the tokens
         "nan"/"inf", which our own parser (and every real client)
         rejects. Fail at the emit boundary instead of shipping an
         unparseable frame. *)
      if not (Float.is_finite f) then
        invalid_arg (Printf.sprintf "Json.to_string: non-finite float %h" f);
      (* %.17g round-trips every float; trim is not worth the bytes here. *)
      Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        l;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 64 in
  write buf v;
  Buffer.contents buf

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let keys = function Obj fields -> List.map fst fields | _ -> []

let as_int what = function
  | Int i ->
      if i > Int64.of_int max_int || i < Int64.of_int min_int then
        Error (Printf.sprintf "%s out of range" what)
      else Ok (Int64.to_int i)
  | _ -> Error (Printf.sprintf "%s must be an integer" what)
