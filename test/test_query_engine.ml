open Helpers
module System = Codb_core.System
module Topology = Codb_core.Topology

let chain_cfg () =
  parse_config
    {|
node n0 { relation who(name: string); }
node n1 { relation person(name: string, dept: string);
          fact person("carol", "bio"); }
node n2 { relation person(name: string, dept: string);
          fact person("alice", "cs");
          fact person("bob", "cs"); }
rule r10 at n1: person(x, d) <- n2: person(x, d);
rule r01 at n0: who(x) <- n1: person(x, d);
|}

let test_query_fetches_remote_data () =
  let sys = System.build_exn (chain_cfg ()) in
  let outcome = System.run_query sys ~at:"n0" (parse_query "w(x) <- who(x)") in
  check_tuples "all three names"
    [ tup [ s "alice" ]; tup [ s "bob" ]; tup [ s "carol" ] ]
    outcome.System.qo_answers

let test_query_does_not_materialise () =
  let sys = System.build_exn (chain_cfg ()) in
  let before = System.total_tuples sys in
  let _ = System.run_query sys ~at:"n0" (parse_query "w(x) <- who(x)") in
  Alcotest.(check int) "stores unchanged" before (System.total_tuples sys)

let test_query_local_only_when_no_relevant_rule () =
  let sys = System.build_exn (chain_cfg ()) in
  (* n1's person query pulls from n2 but not from n0 (no such rule) *)
  let outcome = System.run_query sys ~at:"n1" (parse_query "p(x) <- person(x, d)") in
  check_tuples "n1 names"
    [ tup [ s "alice" ]; tup [ s "bob" ]; tup [ s "carol" ] ]
    outcome.System.qo_answers

let test_query_with_selection () =
  let sys = System.build_exn (chain_cfg ()) in
  let outcome =
    System.run_query sys ~at:"n1" (parse_query "p(x) <- person(x, d), d = \"cs\"")
  in
  check_tuples "cs only" [ tup [ s "alice" ]; tup [ s "bob" ] ] outcome.System.qo_answers

let test_query_equals_update_on_dag () =
  (* on an acyclic network, query-time answers = after-update local
     answers *)
  let mk () = Topology.generate ~seed:77 Topology.Binary_tree ~n:7
      ~params:{ Topology.default_params with tuples_per_node = 12 } in
  let q = parse_query "o(x, y) <- data(x, y)" in
  let sys_q = System.build_exn (mk ()) in
  let outcome = System.run_query sys_q ~at:"n0" q in
  let sys_u = System.build_exn (mk ()) in
  let _ = System.run_update sys_u ~initiator:"n0" in
  check_tuples "query = materialised" (System.local_answers sys_u ~at:"n0" q)
    outcome.System.qo_answers

let test_query_on_cycle_terminates () =
  let cfg =
    parse_config
      {|
node a { relation r(x: int); fact r(1); }
node b { relation r(x: int); fact r(2); }
rule ab at a: r(x) <- b: r(x);
rule ba at b: r(x) <- a: r(x);
|}
  in
  let sys = System.build_exn cfg in
  let outcome = System.run_query sys ~at:"a" (parse_query "o(x) <- r(x)") in
  (* simple paths: a sees b's data; labels stop the loop *)
  check_tuples "union over simple paths" [ tup [ i 1 ]; tup [ i 2 ] ]
    outcome.System.qo_answers

let test_query_existential_yields_nulls () =
  let cfg =
    parse_config
      {|
node a { relation r(x: int, y: int); }
node b { relation q(x: int); fact q(5); }
rule e at a: r(x, z) <- b: q(x);
|}
  in
  let sys = System.build_exn cfg in
  let outcome = System.run_query sys ~at:"a" (parse_query "o(x, y) <- r(x, y)") in
  Alcotest.(check int) "one answer" 1 (List.length outcome.System.qo_answers);
  Alcotest.(check int) "not certain" 0 (List.length outcome.System.qo_certain)

let test_concurrent_queries_do_not_interfere () =
  let sys = System.build_exn (chain_cfg ()) in
  let rt0 = System.runtime sys "n0" in
  let rt1 = System.runtime sys "n1" in
  let n0 = System.node sys "n0" and n1 = System.node sys "n1" in
  let qid0 = Codb_core.Ids.query_id n0.Codb_core.Node.node_id 100 in
  let qid1 = Codb_core.Ids.query_id n1.Codb_core.Node.node_id 101 in
  let ref0 = Codb_core.Query_engine.start rt0 qid0 (parse_query "w(x) <- who(x)") in
  let ref1 =
    Codb_core.Query_engine.start rt1 qid1 (parse_query "p(x) <- person(x, d)")
  in
  let _ = System.run sys in
  let r0 = Option.get (Codb_core.Query_engine.result n0 ref0) in
  let r1 = Option.get (Codb_core.Query_engine.result n1 ref1) in
  Alcotest.(check int) "n0 query" 3 (List.length r0);
  Alcotest.(check int) "n1 query" 3 (List.length r1)

(* An instance's overlay is a snapshot of the store at request time:
   facts the node stores afterwards belong to later queries, even while
   the overlay still shares storage with the store. *)
let test_overlay_is_a_snapshot () =
  let sys = System.build_exn (chain_cfg ()) in
  let rt1 = System.runtime sys "n1" and n1 = System.node sys "n1" in
  let q = parse_query "p(x) <- person(x, d)" in
  let qid = Codb_core.Ids.query_id n1.Codb_core.Node.node_id 100 in
  let root_ref = Codb_core.Query_engine.start rt1 qid q in
  let overlay =
    (Hashtbl.find n1.Codb_core.Node.query_instances root_ref).Codb_core.Query_state.qst_overlay
  in
  let late = tup [ s "zed"; s "math" ] in
  Alcotest.(check bool) "stored" true (System.insert_fact sys ~at:"n1" ~rel:"person" late);
  check_tuples "overlay misses the late fact" [ tup [ s "carol"; s "bio" ] ]
    (Database.tuples overlay "person");
  let _ = System.run sys in
  check_tuples "answers as of the request"
    [ tup [ s "alice" ]; tup [ s "bob" ]; tup [ s "carol" ] ]
    (Option.get (Codb_core.Query_engine.result n1 root_ref));
  check_tuples "the store keeps the late fact"
    [ tup [ s "carol" ]; tup [ s "zed" ] ]
    (System.local_answers sys ~at:"n1" q)

let test_query_rejects_unknown_relation () =
  let sys = System.build_exn (chain_cfg ()) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (System.run_query sys ~at:"n0" (parse_query "w(x) <- nosuch(x)"));
       false
     with Invalid_argument _ -> true)

let test_query_stats_recorded () =
  let sys = System.build_exn (chain_cfg ()) in
  let outcome = System.run_query sys ~at:"n0" (parse_query "w(x) <- who(x)") in
  Alcotest.(check bool) "nonzero latency" true
    (outcome.System.qo_finished > outcome.System.qo_started);
  Alcotest.(check bool) "data messages counted" true (outcome.System.qo_data_msgs >= 2);
  Alcotest.(check bool) "bytes counted" true (outcome.System.qo_bytes > 0)

let test_streaming_batches () =
  let sys = System.build_exn (chain_cfg ()) in
  let batches = ref [] in
  let outcome =
    System.run_query sys
      ~on_partial:(fun tuples -> batches := tuples :: !batches)
      ~at:"n1"
      (parse_query "p(x) <- person(x, d)")
  in
  let batches = List.rev !batches in
  (* the first batch is what n1 knows locally, before any message *)
  (match batches with
  | first :: _ -> check_tuples "local answers first" [ tup [ s "carol" ] ] first
  | [] -> Alcotest.fail "nothing streamed");
  (* batches are disjoint and their union is the final answer set *)
  let all = List.concat batches in
  let distinct = Relation.Tuple_set.of_list all in
  Alcotest.(check int) "no duplicates across batches"
    (Relation.Tuple_set.cardinal distinct)
    (List.length all);
  check_tuples "union = final result" outcome.System.qo_answers all

let test_streaming_empty_when_no_answers () =
  let sys = System.build_exn (chain_cfg ()) in
  let calls = ref 0 in
  let _ =
    System.run_query sys
      ~on_partial:(fun _ -> incr calls)
      ~at:"n0"
      (parse_query "w(x) <- who(x), x = \"nobody\"")
  in
  Alcotest.(check int) "callback never fired" 0 !calls

(* A finished query must not leave per-query state behind: every
   responder drops its instance (and with it its store snapshot)
   once it has reported done, and the root keeps only the result.  On
   a clique each query spawns one responder per path-labelled branch,
   so anything retained per responder shows up as heap growth that is
   linear in the number of queries. *)
let test_completed_queries_release_instances () =
  let params = { Topology.default_params with Topology.tuples_per_node = 40 } in
  let sys = System.build_exn (Topology.generate ~seed:3 ~params Topology.Clique ~n:5) in
  let q = parse_query "o(x, y) <- data(x, y)" in
  let pose n =
    for _ = 1 to n do
      Alcotest.(check bool) "complete" true (System.run_query sys ~at:"n0" q).System.qo_complete
    done
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  pose 4;
  let before = live_words () in
  let more = 16 in
  pose more;
  let per_query = (live_words () - before) / more in
  List.iter
    (fun name ->
      if name <> "n0" then
        Alcotest.(check int) (name ^ " holds no responder instances") 0
          (Hashtbl.length (System.node sys name).Codb_core.Node.query_instances))
    (System.node_names sys);
  Alcotest.(check bool)
    (Printf.sprintf "live heap grows by %d words per query" per_query)
    true (per_query < 20_000)

let suite =
  [
    Alcotest.test_case "fetches remote data through rules" `Quick
      test_query_fetches_remote_data;
    Alcotest.test_case "streams batches, local first, no duplicates" `Quick
      test_streaming_batches;
    Alcotest.test_case "streams nothing when empty" `Quick
      test_streaming_empty_when_no_answers;
    Alcotest.test_case "leaves local stores untouched" `Quick
      test_query_does_not_materialise;
    Alcotest.test_case "pulls only through relevant rules" `Quick
      test_query_local_only_when_no_relevant_rule;
    Alcotest.test_case "selection predicates apply" `Quick test_query_with_selection;
    Alcotest.test_case "equals materialised answers on a DAG" `Quick
      test_query_equals_update_on_dag;
    Alcotest.test_case "terminates on cycles via labels" `Quick
      test_query_on_cycle_terminates;
    Alcotest.test_case "existential rules yield non-certain answers" `Quick
      test_query_existential_yields_nulls;
    Alcotest.test_case "concurrent queries are isolated" `Quick
      test_concurrent_queries_do_not_interfere;
    Alcotest.test_case "overlays snapshot the store at request time" `Quick
      test_overlay_is_a_snapshot;
    Alcotest.test_case "unknown relation rejected" `Quick
      test_query_rejects_unknown_relation;
    Alcotest.test_case "statistics recorded" `Quick test_query_stats_recorded;
    Alcotest.test_case "completed queries release their instances" `Quick
      test_completed_queries_release_instances;
  ]
