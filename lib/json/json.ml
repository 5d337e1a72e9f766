(* The JSON codec shared by the serve wire protocol, the fuzz report and
   the Chrome trace exporter.  See json.mli. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* ---- printer ---- *)

let escape b s =
  Buffer.add_char b '"';
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
  Buffer.add_char b '"'

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int v -> Buffer.add_string b (string_of_int v)
  | Float v ->
      (* shortest of 15 or 17 significant digits that reads back as [v];
         an integer-valued float keeps a ".0" so it re-parses as a Float *)
      let s = Printf.sprintf "%.15g" v in
      let s = if float_of_string s = v then s else Printf.sprintf "%.17g" v in
      Buffer.add_string b s;
      if int_of_string_opt s <> None then Buffer.add_string b ".0"
  | Str s -> escape b s
  | List l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          write b v)
        l;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape b k;
          Buffer.add_char b ':';
          write b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* ---- parser: recursive descent over the input string ---- *)

type state = { src : string; mutable pos : int }

let peek st =
  if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    &&
    match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | Some c' -> fail "expected '%c' at offset %d, got '%c'" c st.pos c'
  | None -> fail "expected '%c' at offset %d, got end of input" c st.pos

let literal st word v =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.equal (String.sub st.src st.pos n) word
  then (
    st.pos <- st.pos + n;
    v)
  else fail "bad literal at offset %d" st.pos

let add_utf8 b code =
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end

let hex4 st =
  if st.pos + 4 > String.length st.src then fail "truncated \\u escape";
  let s = String.sub st.src st.pos 4 in
  match int_of_string_opt ("0x" ^ s) with
  | Some v ->
      st.pos <- st.pos + 4;
      v
  | None -> fail "bad \\u escape %S" s

let parse_string st =
  expect st '"';
  let b = Buffer.create 32 in
  let rec loop () =
    match peek st with
    | None -> fail "unterminated string"
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' -> (
        st.pos <- st.pos + 1;
        match peek st with
        | None -> fail "unterminated escape"
        | Some c ->
            st.pos <- st.pos + 1;
            (match c with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                let hi = hex4 st in
                if
                  hi >= 0xD800 && hi <= 0xDBFF
                  && st.pos + 2 <= String.length st.src
                  && st.src.[st.pos] = '\\'
                  && st.src.[st.pos + 1] = 'u'
                then begin
                  st.pos <- st.pos + 2;
                  let lo = hex4 st in
                  add_utf8 b (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
                end
                else add_utf8 b hi
            | c -> fail "bad escape '\\%c'" c);
            loop ())
    | Some c ->
        st.pos <- st.pos + 1;
        Buffer.add_char b c;
        loop ()
  in
  loop ();
  Buffer.contents b

let parse_number st =
  let start = st.pos in
  let is_num c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while st.pos < String.length st.src && is_num st.src.[st.pos] do
    st.pos <- st.pos + 1
  done;
  let s = String.sub st.src start (st.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt s with
      | Some f when Float.is_finite f -> Float f
      | Some _ -> fail "number %S out of range at offset %d" s start
      | None -> fail "bad number %S at offset %d" s start)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail "empty input"
  | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then (
        st.pos <- st.pos + 1;
        Obj [])
      else
        let rec fields acc =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              fields ((k, v) :: acc)
          | Some '}' ->
              st.pos <- st.pos + 1;
              Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}' at offset %d" st.pos
        in
        fields []
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then (
        st.pos <- st.pos + 1;
        List [])
      else
        let rec elems acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              elems (v :: acc)
          | Some ']' ->
              st.pos <- st.pos + 1;
              List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']' at offset %d" st.pos
        in
        elems []
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> parse_number st

let parse s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail "trailing garbage at offset %d" st.pos;
  v

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None
