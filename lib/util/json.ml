type t =
  | Null
  | Bool of bool
  | Int of int64
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of int * string

let fail pos msg = raise (Parse_error (pos, msg))

(* [scratch] decodes the strings that carry escapes, one after another:
   a frame allocates it once, at most as long as the frame. *)
type cursor = { s : string; mutable pos : int; mutable scratch : Buffer.t option }

(* The byte at the cursor, or [eof] past the end: a sentinel no branch
   below accepts (NUL is a raw control character in a string and not a
   token start), so every "expected ..." error still names [c.pos]. *)
let eof = '\000'

let peek c = if c.pos < String.length c.s then String.unsafe_get c.s c.pos else eof
let at_end c = c.pos >= String.length c.s
let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    match peek c with
    | ' ' | '\t' | '\n' | '\r' ->
        advance c;
        true
    | _ -> false
  do
    ()
  done

(* [ch] is never [eof], so the end of input fails here too. *)
let expect c ch =
  if peek c = ch then advance c
  else fail c.pos (Printf.sprintf "expected '%c'" ch)

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

(* The end of the run of plain bytes starting at [i]: the bytes a
   string body copies as they are, all but the closing quote, the
   backslash and the raw control characters. The run is scanned eight
   bytes at a time while no byte is special. A word [w] holds a byte
   below 0x20 when [(w - 0x2020..) land (lnot w) land 0x8080..] is
   nonzero, and a quote or a backslash when the same test for 0x01
   finds a zero byte in [w] xor that byte repeated. *)
let run_end s n i =
  let i = ref i and words = ref true in
  while !words && !i + 8 <= n do
    let w = String.get_int64_le s !i in
    let q = Int64.logxor w 0x2222222222222222L
    and b = Int64.logxor w 0x5c5c5c5c5c5c5c5cL in
    let t =
      Int64.logor
        (Int64.logand (Int64.sub w 0x2020202020202020L) (Int64.lognot w))
        (Int64.logor
           (Int64.logand (Int64.sub q 0x0101010101010101L) (Int64.lognot q))
           (Int64.logand (Int64.sub b 0x0101010101010101L) (Int64.lognot b)))
    in
    if Int64.equal (Int64.logand t 0x8080808080808080L) 0L then i := !i + 8
    else words := false
  done;
  while
    !i < n
    &&
    let ch = String.unsafe_get s !i in
    ch <> '"' && ch <> '\\' && ch >= ' '
  do
    incr i
  done;
  !i

(* One escape sequence at [c.pos] (just past its backslash), decoded
   into [buf]. *)
let unescape c buf =
  if at_end c then fail c.pos "unterminated escape";
  let esc = peek c in
  advance c;
  match esc with
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
  | _ -> fail (c.pos - 1) "unknown escape"

(* A string body is copied a run at a time: a string without escapes
   (every key and most values) is one [String.sub]; otherwise each run
   of plain bytes is one blit and only the escapes go byte by byte. *)
let parse_string c =
  expect c '"';
  let s = c.s and n = String.length c.s in
  let start = c.pos in
  let stop = run_end s n start in
  c.pos <- stop;
  if stop < n && String.unsafe_get s stop = '"' then begin
    advance c;
    String.sub s start (stop - start)
  end
  else begin
    let buf =
      match c.scratch with
      | Some buf ->
          Buffer.clear buf;
          buf
      | None ->
          let buf = Buffer.create (n - start) in
          c.scratch <- Some buf;
          buf
    in
    Buffer.add_substring buf s start (stop - start);
    let closed = ref false in
    while not !closed do
      if at_end c then fail c.pos "unterminated string";
      match peek c with
      | '"' ->
          advance c;
          closed := true
      | '\\' ->
          advance c;
          unescape c buf
      | ch when Char.code ch < 0x20 -> fail c.pos "raw control char in string"
      | _ ->
          let i = c.pos in
          let j = run_end s n i in
          Buffer.add_substring buf s i (j - i);
          c.pos <- j
    done;
    Buffer.contents buf
  end

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  let consume () = advance c in
  if peek c = '-' then consume ();
  let rec digits () =
    match peek c with
    | '0' .. '9' ->
        consume ();
        digits ()
    | _ -> ()
  in
  digits ();
  if peek c = '.' then begin
    is_float := true;
    consume ();
    digits ()
  end;
  (match peek c with
  | 'e' | 'E' ->
      is_float := true;
      consume ();
      (match peek c with '+' | '-' -> consume () | _ -> ());
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
  if at_end c then fail c.pos "unexpected end of input";
  match peek c with
  | '{' ->
      advance c;
      skip_ws c;
      if peek c = '}' then begin
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
          | ',' ->
              advance c;
              fields ((key, v) :: acc)
          | '}' ->
              advance c;
              List.rev ((key, v) :: acc)
          | _ -> fail c.pos "expected ',' or '}'"
        in
        Obj (fields [])
      end
  | '[' ->
      advance c;
      skip_ws c;
      if peek c = ']' then begin
        advance c;
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | ',' ->
              advance c;
              elements (v :: acc)
          | ']' ->
              advance c;
              List.rev (v :: acc)
          | _ -> fail c.pos "expected ',' or ']'"
        in
        List (elements [])
      end
  | '"' -> String (parse_string c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | '-' | '0' .. '9' -> parse_number c
  | ch -> fail c.pos (Printf.sprintf "unexpected character '%c'" ch)

let parse s =
  let c = { s; pos = 0; scratch = None } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at byte %d" c.pos)
      else Ok v
  | exception Parse_error (pos, msg) ->
      Error (Printf.sprintf "%s at byte %d" msg pos)

(* The escaped form of byte [ch], which ends a run of plain bytes. *)
let add_escaped buf ch =
  match ch with
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | _ ->
      let hex = "0123456789abcdef" in
      Buffer.add_string buf "\\u00";
      Buffer.add_char buf hex.[Char.code ch lsr 4];
      Buffer.add_char buf hex.[Char.code ch land 0xf]

(* [s] escaped straight into [buf], one blit per run of plain bytes. *)
let add_escaped_string buf s =
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let j = run_end s n !i in
    Buffer.add_substring buf s !i (j - !i);
    if j < n then add_escaped buf (String.unsafe_get s j);
    i := j + 1
  done

(* Strings that need no escaping (every key and name this repo emits)
   are returned as they are, without a copy. *)
let escape s =
  if run_end s (String.length s) 0 = String.length s then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    add_escaped_string buf s;
    Buffer.contents buf
  end

(* Decimal digits of [n] straight into [buf]; [n] is never positive, so
   [min_int] needs no special case. *)
let rec add_digits buf n =
  if n <= -10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (n mod 10)))

let add_int64 buf i =
  let n = Int64.to_int i in
  if not (Int64.equal (Int64.of_int n) i) then Buffer.add_string buf (Int64.to_string i)
  else if n < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf n
  end
  else add_digits buf (-n)

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> add_int64 buf i
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
      add_escaped_string buf s;
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
          add_escaped_string buf k;
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 64 in
  write buf v;
  Buffer.contents buf

let rec assoc key = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else assoc key rest

let member key = function Obj fields -> assoc key fields | _ -> None

let keys = function Obj fields -> List.map fst fields | _ -> []

let as_int what = function
  | Int i ->
      if i > Int64.of_int max_int || i < Int64.of_int min_int then
        Error (Printf.sprintf "%s out of range" what)
      else Ok (Int64.to_int i)
  | _ -> Error (Printf.sprintf "%s must be an integer" what)
