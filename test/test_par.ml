(* The parallel runtime (lib/par + System's two-phase step).

   The contract under test is absolute: for any workload, any chaos
   seed and any domain count, the simulation's observable outcome —
   stores, answer digests, per-node stats, network counters, the
   message trace, even null identities — is bit-identical to the
   sequential run.  [Options.domains] is a throughput knob, never a
   semantics knob. *)

module Q2 = QCheck2
module Gen = QCheck2.Gen
module Value = Codb_relalg.Value
module Tuple = Codb_relalg.Tuple
module Relation = Codb_relalg.Relation
module Database = Codb_relalg.Database
module Event_queue = Codb_net.Event_queue
module Network = Codb_net.Network
module Pool = Codb_par.Pool
module Options = Codb_core.Options
module System = Codb_core.System
module Node = Codb_core.Node
module Topology = Codb_core.Topology
module Trace = Codb_core.Trace

let parse_query text =
  match Codb_cq.Parser.parse_query text with
  | Ok q -> q
  | Error e -> Alcotest.failf "parse_query %S: %s" text e

(* ---- Pool ------------------------------------------------------------ *)

let test_pool_runs_every_job () =
  let pool = Pool.create ~domains:4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let n = 100 in
  let results = Array.make n 0 in
  (* jobs write job-private slots: no two jobs share a cell *)
  Pool.run pool (Array.init n (fun i () -> results.(i) <- (i * i) + 1));
  Array.iteri
    (fun i got -> Alcotest.(check int) (Printf.sprintf "job %d" i) ((i * i) + 1) got)
    results

let test_pool_single_lane_is_inline_and_ordered () =
  let pool = Pool.create ~domains:1 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Alcotest.(check int) "size" 1 (Pool.size pool);
  let order = ref [] in
  Pool.run pool (Array.init 10 (fun i () -> order := i :: !order));
  Alcotest.(check (list int)) "sequential order" (List.init 10 (fun i -> 9 - i)) !order

let test_pool_reraises_earliest_failure () =
  let pool = Pool.create ~domains:3 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let ran = Array.make 10 false in
  let job i () =
    ran.(i) <- true;
    if i = 3 then failwith "three";
    if i = 7 then failwith "seven"
  in
  (match Pool.run pool (Array.init 10 job) with
  | () -> Alcotest.fail "expected an exception"
  | exception Failure msg ->
      (* both jobs raise on every run; the barrier picks the
         smallest-indexed failure deterministically *)
      Alcotest.(check string) "earliest failure" "three" msg);
  (* the failure did not poison the pool *)
  let count = Atomic.make 0 in
  Pool.run pool (Array.init 20 (fun _ () -> Atomic.incr count));
  Alcotest.(check int) "reusable after failure" 20 (Atomic.get count)

let test_pool_is_reusable_across_batches () =
  let pool = Pool.create ~domains:2 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let count = Atomic.make 0 in
  for _ = 1 to 50 do
    Pool.run pool (Array.init 8 (fun _ () -> Atomic.incr count))
  done;
  Alcotest.(check int) "all batches ran" 400 (Atomic.get count)

let test_pool_shared_is_memoised () =
  let p1 = Pool.shared ~domains:2 in
  let p2 = Pool.shared ~domains:2 in
  Alcotest.(check bool) "same pool per lane count" true (p1 == p2);
  Alcotest.(check int) "lane count" 2 (Pool.size p1)

(* ---- Event_queue batch push ------------------------------------------ *)

let test_push_batch_keeps_list_order () =
  let q = Event_queue.create () in
  Event_queue.push_batch q ~time:1.0 [ "a"; "b"; "c" ];
  Event_queue.push q ~time:1.0 "d";
  Event_queue.push q ~time:0.5 "early";
  let pops = List.init 5 (fun _ -> Option.get (Event_queue.pop q)) in
  Alcotest.(check (list string))
    "batch seqs are contiguous, in list order"
    [ "early"; "a"; "b"; "c"; "d" ]
    (List.map snd pops);
  Alcotest.(check bool) "drained" true (Event_queue.pop q = None)

let test_peek_does_not_pop () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "empty peek" true (Event_queue.peek q = None);
  Event_queue.push q ~time:2.0 "late";
  Event_queue.push q ~time:1.0 "soon";
  (match Event_queue.peek q with
  | Some (t, p) ->
      Alcotest.(check (float 0.0)) "peek time" 1.0 t;
      Alcotest.(check string) "peek payload" "soon" p
  | None -> Alcotest.fail "expected an event");
  Alcotest.(check int) "still two events" 2 (Event_queue.length q)

(* ---- cross-domain bit-identity --------------------------------------- *)

(* Everything observable about one finished simulation.  Built from
   content digests (never intern-slot numbers), so two runs in the
   same process compare meaningfully. *)
type observation = {
  ob_store_digests : (string * int) list;
  ob_counters : Network.counters;
  ob_snapshots : Codb_core.Stats.snapshot list;
  ob_trace : Trace.event list;
  ob_nulls : int;
  ob_events : int;
}

let store_digest db =
  List.fold_left
    (fun h rel ->
      let tuples = ref [] in
      Relation.iter (fun t -> tuples := t :: !tuples) (Database.relation db rel);
      Tuple.digest_fold
        (String.fold_left (fun h c -> (h * 131) + Char.code c) h rel)
        (List.sort Tuple.compare !tuples))
    0
    (Database.rel_names db)

let observe sys ~trace ~events =
  {
    ob_store_digests =
      List.map
        (fun name -> (name, store_digest (System.node sys name).Node.store))
        (System.node_names sys);
    ob_counters = Network.counters (System.net sys);
    ob_snapshots = System.snapshots sys;
    ob_trace = Trace.events trace;
    ob_nulls = Value.null_counter ();
    ob_events = events;
  }

let check_observation ~what expected got =
  Alcotest.(check (list (pair string int)))
    (what ^ ": store digests") expected.ob_store_digests got.ob_store_digests;
  Alcotest.(check bool) (what ^ ": network counters") true
    (expected.ob_counters = got.ob_counters);
  Alcotest.(check bool) (what ^ ": stats snapshots") true
    (expected.ob_snapshots = got.ob_snapshots);
  Alcotest.(check bool) (what ^ ": trace") true (expected.ob_trace = got.ob_trace);
  Alcotest.(check int) (what ^ ": nulls minted") expected.ob_nulls got.ob_nulls;
  Alcotest.(check int) (what ^ ": simulator events") expected.ob_events got.ob_events

let update_run ~opts ~shape ~n ~seed ~params () =
  Value.reset_null_counter ();
  let sys = System.build_exn ~opts (Topology.generate ~params ~seed shape ~n) in
  let trace = System.enable_trace sys in
  let n0 = System.node sys "n0" in
  let uid = Codb_core.Ids.update_id n0.Node.node_id (Node.fresh_serial n0) in
  Codb_core.Update.initiate (System.runtime sys "n0") uid;
  let events = System.run sys in
  observe sys ~trace ~events

let with_domains opts domains = { opts with Options.domains; par_threshold = 2 }

let test_update_identical_across_domains () =
  let params =
    { Topology.default_params with Topology.tuples_per_node = 12; existential_frac = 0.3 }
  in
  List.iter
    (fun shape ->
      let run domains =
        update_run
          ~opts:(with_domains Options.default domains)
          ~shape ~n:6 ~seed:42 ~params ()
      in
      let expected = run 1 in
      List.iter
        (fun d -> check_observation ~what:(Printf.sprintf "domains=%d" d) expected (run d))
        [ 2; 4 ])
    [ Topology.Clique; Topology.Ring ]

let test_query_identical_across_domains () =
  let params = { Topology.default_params with Topology.tuples_per_node = 12 } in
  let q = parse_query "o(x, y) <- data(x, y), x < 5" in
  let run domains =
    Value.reset_null_counter ();
    let opts =
      { (with_domains Options.default domains) with
        Options.pushdown = true;
      }
    in
    let sys =
      System.build_exn ~opts (Topology.generate ~params ~seed:77 Topology.Clique ~n:5)
    in
    let trace = System.enable_trace sys in
    let outcome = System.run_query sys ~at:"n0" q in
    (outcome.System.qo_answers, outcome.System.qo_complete, observe sys ~trace ~events:0)
  in
  let answers1, complete1, obs1 = run 1 in
  List.iter
    (fun d ->
      let answers, complete, obs = run d in
      Alcotest.(check int)
        (Printf.sprintf "domains=%d: answer digest" d)
        (Tuple.digest answers1) (Tuple.digest answers);
      Alcotest.(check bool) "complete flag" complete1 complete;
      check_observation ~what:(Printf.sprintf "query domains=%d" d) obs1 obs)
    [ 2; 4 ]

let test_subscriptions_identical_across_domains () =
  let params = { Topology.default_params with Topology.tuples_per_node = 8 } in
  let run domains =
    Value.reset_null_counter ();
    let opts =
      { (with_domains Options.default domains) with Options.subscriptions = true }
    in
    let sys =
      System.build_exn ~opts (Topology.generate ~params ~seed:9 Topology.Clique ~n:4)
    in
    let trace = System.enable_trace sys in
    let sub_id =
      match
        System.subscribe_remote sys ~subscriber:"n1" ~host:"n0"
          (parse_query "o(x, y) <- data(x, y)")
      with
      | Ok id -> id
      | Error e -> Alcotest.failf "subscribe: %s" e
    in
    let _ = System.run sys in
    let _ = System.run_update sys ~initiator:"n0" in
    let answers = Option.value ~default:[] (System.subscription_answers sys ~at:"n1" sub_id) in
    (Tuple.digest answers, observe sys ~trace ~events:0)
  in
  let digest1, obs1 = run 1 in
  List.iter
    (fun d ->
      let digest, obs = run d in
      Alcotest.(check int) (Printf.sprintf "domains=%d: mirror digest" d) digest1 digest;
      check_observation ~what:(Printf.sprintf "subs domains=%d" d) obs1 obs)
    [ 2; 4 ]

(* ---- the qcheck property: chaos seeds included ----------------------- *)

let gen_case =
  let open Gen in
  let* shape =
    oneofl [ Topology.Chain; Topology.Ring; Topology.Clique; Topology.Binary_tree ]
  in
  let* n = int_range 2 5 in
  let* seed = int_range 0 10000 in
  let* existential_frac = oneofl [ 0.0; 0.3 ] in
  let* chaos = bool in
  let* fault_seed = int_range 0 10000 in
  let params =
    { Topology.default_params with Topology.tuples_per_node = 8; existential_frac }
  in
  return (shape, n, seed, params, chaos, fault_seed)

let prop_domains_equivalent =
  Q2.Test.make
    ~name:"simulation outcomes are bit-identical at domains 1, 2 and 4" ~count:15
    gen_case
    (fun (shape, n, seed, params, chaos, fault_seed) ->
      let opts =
        if chaos then
          { Options.default with
            Options.fault_seed;
            drop_prob = 0.15;
            dup_prob = 0.1;
            jitter = 0.002;
            drop_budget = 8;
            ack_timeout = 0.05;
            max_retries = 10;
          }
        else Options.default
      in
      let run domains =
        update_run ~opts:(with_domains opts domains) ~shape ~n ~seed ~params ()
      in
      let expected = run 1 in
      List.for_all (fun d -> run d = expected) [ 2; 4 ])

let suite =
  [
    Alcotest.test_case "pool runs every job exactly once" `Quick
      test_pool_runs_every_job;
    Alcotest.test_case "a single-lane pool runs inline, in order" `Quick
      test_pool_single_lane_is_inline_and_ordered;
    Alcotest.test_case "the earliest failure is re-raised after the barrier" `Quick
      test_pool_reraises_earliest_failure;
    Alcotest.test_case "the pool is reusable across batches" `Quick
      test_pool_is_reusable_across_batches;
    Alcotest.test_case "shared pools are memoised per lane count" `Quick
      test_pool_shared_is_memoised;
    Alcotest.test_case "push_batch assigns contiguous seqs in list order" `Quick
      test_push_batch_keeps_list_order;
    Alcotest.test_case "peek observes without popping" `Quick test_peek_does_not_pop;
    Alcotest.test_case "updates are bit-identical across domain counts" `Quick
      test_update_identical_across_domains;
    Alcotest.test_case "queries are bit-identical across domain counts" `Quick
      test_query_identical_across_domains;
    Alcotest.test_case "subscriptions are bit-identical across domain counts" `Quick
      test_subscriptions_identical_across_domains;
    QCheck_alcotest.to_alcotest prop_domains_equivalent;
  ]
