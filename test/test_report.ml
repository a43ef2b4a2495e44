(* Unit tests for the report tables. *)

module Table = Vliw_report.Table

let check = Alcotest.check

let test_make_validation () =
  Alcotest.check_raises "ragged row rejected"
    (Invalid_argument "Table.make: row \"b\" has 1 values, expected 2")
    (fun () ->
      ignore
        (Table.make ~title:"t" ~columns:[ "x"; "y" ]
           [ ("a", [ 1.0; 2.0 ]); ("b", [ 1.0 ]) ]))

let test_render () =
  let t =
    Table.make ~title:"demo" ~note:"n" ~columns:[ "col" ]
      [ ("row", [ 0.5 ]) ]
  in
  let s = Format.asprintf "%a" (Table.render ~precision:2) t in
  check Alcotest.bool "title present" true
    (String.length s > 0 && String.sub s 0 4 = "demo");
  let csv = Format.asprintf "%a" Table.render_csv t in
  check Alcotest.bool "csv has header" true
    (String.sub csv 0 9 = "benchmark")

let test_bar () =
  check Alcotest.int "full bar" 10 (String.length (Table.bar ~width:10 1.0));
  check Alcotest.string "empty bar" (String.make 10 ' ')
    (Table.bar ~width:10 0.0);
  check Alcotest.string "clamped" (String.make 10 '#')
    (Table.bar ~width:10 2.0)

let test_stacked_bar () =
  let s = Table.stacked_bar ~width:10 [ 0.5; 0.5 ] in
  check Alcotest.int "width respected" 10 (String.length s);
  check Alcotest.string "half and half" "#####=====" s;
  check Alcotest.string "zero total blank" (String.make 4 ' ')
    (Table.stacked_bar ~width:4 [ 0.0; 0.0 ])

module Json = Vliw_report.Json

let test_json_document_layout () =
  let doc =
    Json.(
      Obj
        [
          ("schema_version", Int 3);
          ("summary", Obj [ ("ok", Bool true); ("cost", Fixed (3, 17.5)) ]);
          ("rows", List [ Obj [ ("a", Int 1) ]; List [ Null ] ]);
          ("empty", List []);
        ])
  in
  check Alcotest.string "one field per line, list elements at 4 spaces"
    "{\n\
    \  \"schema_version\": 3,\n\
    \  \"summary\": {\"ok\":true,\"cost\":17.500},\n\
    \  \"rows\": [\n\
    \    {\"a\":1},\n\
    \    [null]\n\
    \  ],\n\
    \  \"empty\": [\n\
    \  ]\n\
     }\n"
    (Json.document doc)

let test_json_printing () =
  let s = Json.to_string in
  check Alcotest.string "fixed decimals" "17.500" (s (Json.Fixed (3, 17.5)));
  check Alcotest.string "fixed ratio" "0.552885" (s (Json.Fixed (6, 0.5528846)));
  check Alcotest.string "non-finite is null" "null" (s (Json.Fixed (1, Float.nan)));
  check Alcotest.string "integral float keeps its point" "100000000000000.0"
    (s (Json.Float 1e14));
  check Alcotest.string "large integral float reads back as a float" "1e+15"
    (s (Json.Float 1e15));
  check Alcotest.string "int64 beyond int" "9223372036854775807"
    (s (Json.Int64 Int64.max_int));
  check Alcotest.string "one escaper" {|"q\"b\\n\nr\rt\tc\u0001é"|}
    (s (Json.String "q\"b\\n\nr\rt\tc\001\xc3\xa9"))

let suite =
  [
    ("json: document layout", `Quick, test_json_document_layout);
    ("json: number and string printing", `Quick, test_json_printing);
    ("table: ragged rows rejected", `Quick, test_make_validation);
    ("table: renders title and csv", `Quick, test_render);
    ("table: bar", `Quick, test_bar);
    ("table: stacked bar", `Quick, test_stacked_bar);
  ]
