open Helpers

let fresh () = Database.create [ r_schema; s_schema ]

let test_create_rejects_duplicates () =
  Alcotest.(check bool)
    "duplicate relation" true
    (try
       ignore (Database.create [ r_schema; r_schema ]);
       false
     with Invalid_argument _ -> true)

let test_lookup () =
  let db = fresh () in
  Alcotest.(check bool) "has r" true (Database.has_relation db "r");
  Alcotest.(check bool) "no t" false (Database.has_relation db "t");
  Alcotest.(check (list string)) "names in order" [ "r"; "s" ] (Database.rel_names db);
  Alcotest.check_raises "unknown relation" Not_found (fun () ->
      ignore (Database.relation db "zzz"))

let test_insert_and_cardinal () =
  let db = fresh () in
  Alcotest.(check bool) "insert" true (Database.insert db "r" (tup [ i 1; i 2 ]));
  Alcotest.(check bool) "dup" false (Database.insert db "r" (tup [ i 1; i 2 ]));
  ignore (Database.insert db "s" (tup [ i 2; s "x" ]));
  Alcotest.(check int) "total" 2 (Database.cardinal db)

let test_insert_all_delta () =
  let db = fresh () in
  ignore (Database.insert db "r" (tup [ i 1; i 1 ]));
  let fresh_tuples = Database.insert_all db "r" [ tup [ i 1; i 1 ]; tup [ i 5; i 5 ] ] in
  check_tuples "delta" [ tup [ i 5; i 5 ] ] fresh_tuples

let test_copy_deep () =
  let db = fresh () in
  ignore (Database.insert db "r" (tup [ i 1; i 1 ]));
  let db2 = Database.copy db in
  ignore (Database.insert db2 "r" (tup [ i 2; i 2 ]));
  Alcotest.(check int) "original" 1 (Database.cardinal db);
  Alcotest.(check int) "copy" 2 (Database.cardinal db2)

(* Words allocated by [f ()].  A minor collection and a major slice
   before each read: on OCaml 5 directly major-allocated blocks only
   reach [major_words] at a major slice, so without the first one the
   window would be charged for whatever the previous test left
   unaccounted, and without the second it would miss [f]'s own. *)
let allocated_words f =
  Gc.minor ();
  ignore (Gc.major_slice 0);
  let s0 = Gc.quick_stat () in
  let x = f () in
  Gc.minor ();
  ignore (Gc.major_slice 0);
  let s1 = Gc.quick_stat () in
  ignore (Sys.opaque_identity x);
  int_of_float
    (s1.Gc.minor_words -. s0.Gc.minor_words +. s1.Gc.major_words -. s0.Gc.major_words
   -. (s1.Gc.promoted_words -. s0.Gc.promoted_words))

(* A copy shares every chunk, the bitmap and the row index with its
   source, so its cost does not grow with the rows. *)
let test_copy_allocation_is_constant () =
  List.iter
    (fun rows ->
      let db = Database.create [ r_schema ] in
      for k = 1 to rows do
        ignore (Database.insert db "r" (tup [ i k; i (k mod 7) ]))
      done;
      let words = allocated_words (fun () -> Database.copy db) in
      Alcotest.(check bool)
        (Printf.sprintf "copy of %d rows allocates %d words (<= 256)" rows words)
        true (words <= 256))
    [ 10; 5000 ]

let test_equal_contents () =
  let db1 = fresh () and db2 = fresh () in
  ignore (Database.insert db1 "r" (tup [ i 1; i 1 ]));
  Alcotest.(check bool) "differ" false (Database.equal_contents db1 db2);
  ignore (Database.insert db2 "r" (tup [ i 1; i 1 ]));
  Alcotest.(check bool) "equal" true (Database.equal_contents db1 db2)

let test_schema_round_trip () =
  let db = fresh () in
  let schemas = Database.schema db in
  Alcotest.(check int) "two relations" 2 (List.length schemas);
  Alcotest.(check bool) "r first" true (Schema.equal (List.hd schemas) r_schema)

let test_clear () =
  let db = fresh () in
  ignore (Database.insert db "r" (tup [ i 1; i 1 ]));
  Database.clear db;
  Alcotest.(check int) "empty" 0 (Database.cardinal db)

let suite =
  [
    Alcotest.test_case "create rejects duplicates" `Quick test_create_rejects_duplicates;
    Alcotest.test_case "relation lookup" `Quick test_lookup;
    Alcotest.test_case "insert and cardinal" `Quick test_insert_and_cardinal;
    Alcotest.test_case "insert_all returns delta" `Quick test_insert_all_delta;
    Alcotest.test_case "copy is deep" `Quick test_copy_deep;
    Alcotest.test_case "copy allocates O(1) words" `Quick test_copy_allocation_is_constant;
    Alcotest.test_case "equal_contents" `Quick test_equal_contents;
    Alcotest.test_case "schema round trip" `Quick test_schema_round_trip;
    Alcotest.test_case "clear" `Quick test_clear;
  ]
