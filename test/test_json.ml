(* The JSON codec (lib/json) behind serve responses, fuzz reports and
   Chrome traces: every tree of finite floats survives a print/parse
   round trip unchanged, a number that overflows is rejected rather than
   read as infinity, and the printer escapes exactly the bytes JSON
   requires. *)

(* Finite doubles from random bit patterns (subnormals, huge and tiny
   exponents), plain decimals and integer values. *)
let gen_finite =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map
            (fun bits ->
              let f = Int64.float_of_bits bits in
              if Float.is_finite f then f else 0.1)
            int64 );
        (1, float_range (-1e6) 1e6);
        (1, map float_of_int int);
      ])

let gen_json =
  QCheck.Gen.(
    let bytes = string_size ~gen:char (int_bound 8) in
    sized_size (int_bound 4)
    @@ fix (fun self n ->
           let leaf =
             frequency
               [
                 (1, return Json.Null);
                 (1, map (fun b -> Json.Bool b) bool);
                 ( 2,
                   map
                     (fun i -> Json.Int i)
                     (oneof [ int; oneofl [ min_int; max_int ] ]) );
                 (3, map (fun f -> Json.Float f) gen_finite);
                 (2, map (fun s -> Json.Str s) bytes);
               ]
           in
           if n = 0 then leaf
           else
             let kids g = list_size (int_bound 4) g in
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Json.List l) (kids (self (n - 1))));
                 ( 1,
                   map (fun l -> Json.Obj l) (kids (pair bytes (self (n - 1))))
                 );
               ]))

(* [=] would call 0.0 and -0.0 equal; compare floats by their bits. *)
let rec same a b =
  match (a, b) with
  | Json.Float x, Json.Float y -> Int64.bits_of_float x = Int64.bits_of_float y
  | Json.List xs, Json.List ys ->
      List.length xs = List.length ys && List.for_all2 same xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, x) (l, y) -> k = l && same x y) xs ys
  | _ -> a = b

let prop_round_trip =
  QCheck.Test.make ~name:"parse (to_string v) = v" ~count:1000
    (QCheck.make ~print:Json.to_string gen_json) (fun v ->
      same (Json.parse (Json.to_string v)) v)

let test_overflow () =
  List.iter
    (fun text ->
      match Json.parse text with
      | v -> Alcotest.failf "%s parsed as %s" text (Json.to_string v)
      | exception Json.Parse_error _ -> ())
    [ "1e400"; "-1e400"; "[1,1e999]"; {|{"id":1e400,"op":"metrics"}|} ];
  Alcotest.(check string) "largest finite double is kept"
    "1.7976931348623157e+308"
    (Json.to_string (Json.parse "1.7976931348623157e308"));
  Alcotest.(check string) "an int too wide for int is a float" "1e+20"
    (Json.to_string (Json.parse "100000000000000000000"))

let test_floats () =
  List.iter
    (fun (f, text) ->
      Alcotest.(check string) text text (Json.to_string (Json.Float f)))
    [
      (0.8, "0.8");
      (0.30000000000000004, "0.30000000000000004");
      (123456789.123456789, "123456789.12345679");
      (100., "100.0");
      (-0., "-0.0");
      (1e15, "1e+15");
      (12345678901234568., "12345678901234568.0");
    ]

let test_escapes () =
  Alcotest.(check string) "escape set"
    ({|"\"\\\n\r\t\b\f\u0001\u001f/|} ^ "\x7f\xc3\xa9\"")
    (Json.to_string (Json.Str "\"\\\n\r\t\b\012\x01\x1f/\x7f\xc3\xa9"));
  Alcotest.(check string) "keys are escaped like strings" {|{"a\"b":[]}|}
    (Json.to_string (Json.Obj [ ("a\"b", Json.List []) ]));
  Alcotest.(check bool) "\\u escapes decode to UTF-8" true
    (Json.parse {|"\u00e9\ud83d\ude00\/"|}
    = Json.Str "\xc3\xa9\xf0\x9f\x98\x80/")

let suite =
  [
    QCheck_alcotest.to_alcotest prop_round_trip;
    Alcotest.test_case "numbers that overflow are rejected" `Quick
      test_overflow;
    Alcotest.test_case "floats print shortest round-trip text" `Quick
      test_floats;
    Alcotest.test_case "escape set" `Quick test_escapes;
  ]
