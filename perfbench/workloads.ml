(* The three workloads.  Each drives the system only through its public
   entry points, with one closed-loop client in one process and
   [Options.domains = 1] set explicitly ([Options.default] reads
   CODB_DOMAINS).  Network shape and rules are fixed per workload;
   [--seed] draws the facts and the operation stream. *)

module System = Codb_core.System
module Topology = Codb_core.Topology
module Options = Codb_core.Options
module Node = Codb_core.Node
module Stats = Codb_core.Stats
module Payload = Codb_core.Payload
module Network = Codb_net.Network
module Config = Codb_cq.Config
module Parser = Codb_cq.Parser
module Datagen = Codb_workload.Datagen
module Rng = Codb_workload.Rng
module Tuple = Codb_relalg.Tuple
module Value = Codb_relalg.Value
module Database = Codb_relalg.Database
module Tset = Hashtbl.Make (Tuple)

let options = { Options.default with Options.domains = 1 }

let parse text =
  match Parser.parse_query text with Ok q -> q | Error e -> invalid_arg (text ^ ": " ^ e)

let profile domain = { Datagen.default_profile with Datagen.domain_size = domain }

(* A [Topology] network whose edges and rules come from the fixed
   [shape_seed] and whose facts come from [data_seed]. *)
let network ?(existential = 0.) ?(comparison = 0.) ~shape ~n ~tuples ~domain ~shape_seed
    ~data_seed () =
  let params =
    {
      Topology.default_params with
      Topology.tuples_per_node = tuples;
      profile = profile domain;
      existential_frac = existential;
      comparison_frac = comparison;
    }
  in
  let cfg = Topology.generate ~params ~seed:shape_seed shape ~n in
  let rng = Rng.make ~seed:data_seed in
  let facts () =
    List.map
      (fun t -> ("data", t))
      (Datagen.distinct_tuples rng params.Topology.profile Topology.data_relation ~count:tuples)
  in
  { cfg with Config.nodes = List.map (fun d -> { d with Config.facts = facts () }) cfg.Config.nodes }

(* The paper's update time: simulated time from initiation to
   termination at the initiator. *)
let update_sim sys ~at uid =
  match Stats.find_update (System.node sys at).Node.stats uid with
  | Some { Stats.us_finished = Some finished; us_started; _ } -> finished -. us_started
  | Some _ | None -> nan

let traffic sys =
  let k = Network.counters (System.net sys) in
  (k.Network.delivered, k.Network.total_bytes)

let sorted ts = List.sort_uniq Tuple.compare ts

let tset ts =
  let s = Tset.create 64 in
  List.iter (fun t -> Tset.replace s t ()) ts;
  s

(* A read is one selective and one join query on a peer's local store
   ([System.local_answers]).  Reads come in batches, one per unit of
   work, and a batch's time per read is one sample: single reads take
   microseconds and are as slow as whatever the cache last held. *)
let read_queries domain =
  Array.init domain (fun k ->
      lazy
        ( parse (Printf.sprintf "o(y) <- data(%d, y)" k),
          parse (Printf.sprintf "o(z) <- data(%d, y), data(z, y)" k) ))

(* Returns the selective query's answers, one list per (peer, key). *)
let reads c sys queries targets =
  let targets = List.map (fun (at, k) -> (at, k, Lazy.force queries.(k))) targets in
  Option.map
    (fun (answers, dt) ->
      Ctx.sample c c.Ctx.reads (dt /. float_of_int (List.length targets));
      answers)
    (Ctx.attempt c "read" (fun () ->
         Measure.time (fun () ->
             List.map
               (fun (at, k, (point, join)) ->
                 let answers = System.local_answers sys ~at point in
                 ignore (Sys.opaque_identity (System.local_answers sys ~at join));
                 (at, k, answers))
               targets)))

(* ---- update-fixpoint -------------------------------------------------- *)

(* A cold global update from n0 to quiescence on a cyclic random graph
   with existential heads (marked nulls) and comparisons.  Every update
   runs on a freshly built network; the facts cycle through [variants]
   data sets drawn from the seed, so a run's median spans many inputs
   and every variant that comes round again must reproduce the store
   digests of its first run. *)
module Update_fixpoint = struct
  let peers = 20

  let tuples = 100

  let domain = 100

  let shape_seed = 3

  let variants = 32

  let second_update_every = 4

  let run (c : Ctx.t) =
    let rng = Rng.make ~seed:c.Ctx.seed in
    let configs =
      Array.init variants (fun _ ->
          network ~existential:0.3 ~comparison:0.3 ~shape:(Topology.Random_graph 0.1) ~n:peers
            ~tuples ~domain ~shape_seed ~data_seed:(Rng.int rng 1_000_000_000) ())
    in
    let queries = read_queries domain in
    let digests = Array.make variants None in
    let build v = System.build_exn ~opts:options configs.(v) in
    (* set-up is building a network, timed in a fresh heap *)
    for v = 0 to variants - 1 do
      Ctx.sample c c.Ctx.setups (snd (Measure.time (fun () -> build v)))
    done;
    let i = ref 0 in
    while Ctx.in_time c do
      let v = !i mod variants in
      incr i;
      Value.reset_null_counter ();
      let sys = build v in
      Ctx.wrap_all c sys;
      let updated =
        Ctx.unit c sys (fun () ->
            let r =
              Ctx.attempt c "update" (fun () ->
                  Ctx.run c (fun () -> System.run_update sys ~initiator:"n0"))
            in
            Option.iter
              (fun (uid, dt) ->
                let msgs, bytes = traffic sys in
                Ctx.record_op c ~seconds:dt ~sim:(update_sim sys ~at:"n0" uid) ~msgs ~bytes)
              r;
            let targets =
              List.init peers (fun p -> (Topology.node_name p, Rng.int rng domain))
            in
            (* one read at every peer; a selective read must give exactly
               the matching stored facts *)
            Option.iter
              (List.iter (fun (at, k, answers) ->
                   let expected =
                     List.filter_map
                       (fun t -> if Value.equal t.(0) (Value.Int k) then Some [| t.(1) |] else None)
                       (Database.tuples (System.node sys at).Node.store "data")
                   in
                   Ctx.check c (sorted answers = sorted expected) "update-fixpoint: selective read"))
              (reads c sys queries targets);
            Option.is_some r)
      in
      if updated then begin
        let forced =
          List.exists
            (fun s -> List.exists (fun u -> u.Stats.usn_forced) s.Stats.snap_updates)
            (System.snapshots sys)
        in
        Ctx.check c (not forced) "update-fixpoint: update force-terminated";
        let d = System.store_digests sys in
        (match digests.(v) with
        | None -> digests.(v) <- Some d
        | Some d0 -> Ctx.check c (d = d0) "update-fixpoint: store digests differ on the same input");
        if (!i - 1) mod second_update_every = 0 then begin
          let before = System.total_tuples sys in
          ignore (System.run_update sys ~initiator:"n0");
          Ctx.check c
            (System.total_tuples sys = before)
            "update-fixpoint: a second update added tuples"
        end
      end
    done
end

(* ---- query-clique ----------------------------------------------------- *)

(* Path-labelled query diffusion with pushdown on a small clique: three
   query shapes posed round-robin at every peer.  The facts and the
   selective query's constant cycle through [variants] inputs drawn
   from the seed, one per network.  Each network serves
   [queries_per_network] queries and is then rebuilt: the query
   instances a network keeps (and their store overlays) would otherwise
   grow the live heap by gigabytes within one run.  What one query
   leaves behind is reported as [gc.retained_words_per_op]. *)
module Query_clique = struct
  let peers = 6

  let tuples = 10

  let domain = 20

  let variants = 8

  let setups_per_variant = 10

  let queries_per_network = 9

  let reads_per_query = 4

  let round = peers * 3

  let opts = { options with Options.pushdown = true }

  let at slot = Topology.node_name (slot / 3)

  type variant = {
    cfg : Config.t;
    shapes : Codb_cq.Query.t array;
    mutable bound : unit Tset.t array;
        (** per slot: the local answers after a global update on an
            identical network, which bound the certain answers *)
    answers : Tuple.t list option array;  (** per slot: the first answers seen *)
    mutable next : int;  (** next slot to pose *)
  }

  let variant rng =
    let data_seed = Rng.int rng 1_000_000_000 in
    let k = Rng.int rng domain in
    {
      cfg = network ~shape:Topology.Clique ~n:peers ~tuples ~domain ~shape_seed:0 ~data_seed ();
      shapes =
        [|
          parse "o(x, y) <- data(x, y)";
          parse (Printf.sprintf "o(y) <- data(%d, y)" k);
          parse "o(x, z) <- data(x, y), data(z, y), x < z";
        |];
      bound = [||];
      answers = Array.make round None;
      next = 0;
    }

  let set_bound v =
    let reference = System.build_exn ~opts v.cfg in
    ignore (System.run_update reference ~initiator:"n0");
    v.bound <-
      Array.init round (fun slot ->
          tset (System.local_answers reference ~at:(at slot) v.shapes.(slot mod 3)))

  let check c v slot (o : System.query_outcome) local =
    Ctx.check c o.System.qo_complete "query-clique: incomplete answer";
    Ctx.check c
      (List.for_all (Tset.mem v.bound.(slot)) o.System.qo_certain)
      "query-clique: certain answer outside the fix-point";
    let got = tset o.System.qo_answers in
    Ctx.check c (List.for_all (Tset.mem got) local)
      "query-clique: local answer missing from the query answer";
    let s = sorted o.System.qo_answers in
    match v.answers.(slot) with
    | None -> v.answers.(slot) <- Some s
    | Some s0 -> Ctx.check c (s = s0) "query-clique: answers differ on identical networks"

  let query c sys ~read ~at q =
    Ctx.unit c sys (fun () ->
        let d0, b0 = traffic sys in
        Option.map
          (fun (o, dt) ->
            let d1, b1 = traffic sys in
            Ctx.record_op c ~seconds:dt
              ~sim:(o.System.qo_finished -. o.System.qo_started)
              ~msgs:(d1 - d0) ~bytes:(b1 - b0);
            read ();
            (o, System.local_answers sys ~at q))
          (Ctx.attempt c "query" (fun () -> Ctx.run c (fun () -> System.run_query sys ~at q))))

  let run (c : Ctx.t) =
    let rng = Rng.make ~seed:c.Ctx.seed in
    let vs = Array.init variants (fun _ -> variant rng) in
    let queries = read_queries domain in
    (* set-up is building a network, timed in a fresh heap *)
    Array.iter
      (fun v ->
        for _ = 1 to setups_per_variant do
          Ctx.sample c c.Ctx.setups (snd (Measure.time (fun () -> System.build_exn ~opts v.cfg)))
        done)
      vs;
    Array.iter set_bound vs;
    let last = ref None and e = ref 0 in
    while Ctx.in_time c do
      let v = vs.(!e mod variants) in
      incr e;
      let sys = System.build_exn ~opts v.cfg in
      last := Some sys;
      Ctx.wrap_all c sys;
      let served = ref 0 in
      while !served < queries_per_network && Ctx.in_time c do
        let slot = v.next in
        v.next <- (slot + 1) mod round;
        incr served;
        let q = v.shapes.(slot mod 3) in
        let read () =
          ignore
            (reads c sys queries
               (List.init reads_per_query (fun _ ->
                    (Topology.node_name (Rng.int rng peers), Rng.int rng domain))))
        in
        Option.iter
          (fun (o, local) -> check c v slot o local)
          (query c sys ~read ~at:(at slot) q)
      done
    done;
    match (c.Ctx.tracer, !last) with
    | Some _, Some sys -> c.Ctx.copy_us_per_ktuple <- Report.copy_replay sys
    | _ -> ()
end

(* ---- ingest-durable --------------------------------------------------- *)

(* Writes beside reads on a durable binary tree (WAL on the in-memory
   backend) with two standing queries: one local at the root n0 and one
   mirrored at n1.  Each round inserts a batch of facts at random peers,
   refreshes with a global update to quiescence, reads at the root and
   at leaves, and crashes and restarts a random non-root peer.

   The transport is fire-and-forget ([ack_timeout = 0]).  Over the
   reliable transport these rounds fail their checks: a WAL snapshot
   keeps the transport's next sequence number but drops the chunked
   reservation above it, so a recovered peer reuses sequence numbers
   its importer has already seen, and the importer discards the peer's
   next messages as duplicates. *)
module Ingest_durable = struct
  let peers = 31

  let tuples = 200

  let domain = 500

  let batch = 10

  let setups = 3

  let rounds_per_network = 30

  let opts =
    {
      options with
      Options.durability = Options.Dur_wal;
      subscriptions = true;
      ack_timeout = 0.;
    }

  let q_local = parse "s(x, y) <- data(x, y), x < 25"

  let q_mirror = parse "j(x, z) <- data(x, y), data(z, y), x < 10"

  let get = function Ok id -> id | Error e -> failwith ("subscribe: " ^ e)

  let setup cfg =
    let sys = System.build_exn ~opts cfg in
    let local = get (System.subscribe sys ~at:"n0" q_local) in
    let mirror = get (System.subscribe_remote sys ~subscriber:"n1" ~host:"n0" q_mirror) in
    ignore (System.run_update sys ~initiator:"n0");
    (sys, local, mirror)

  let durable_bytes sys =
    let r = System.durability_report sys in
    r.System.dr_wal_bytes + r.System.dr_snapshot_bytes

  (* One round on a live network: writes, refresh, reads, and a crash
     and restart, followed by the output checks. *)
  let round c rng queries (sys, local, mirror) facts =
    let name = Topology.node_name in
    let leaf () = name ((peers / 2) + Rng.int rng ((peers + 1) / 2)) in
    Ctx.unit c sys (fun () ->
        let d0, b0 = traffic sys in
        let t0 = Measure.now_ns () in
        let fresh = ref [] in
        for _ = 1 to batch do
          let at = name (Rng.int rng peers) in
          let t = Datagen.tuple rng (profile domain) Topology.data_relation in
          Option.iter
            (fun (inserted, dt) ->
              Ctx.sample c c.Ctx.writes dt;
              if inserted then begin
                fresh := t :: !fresh;
                Tset.replace facts t ()
              end)
            (Ctx.attempt c "insert_fact" (fun () ->
                 Measure.time (fun () -> System.insert_fact sys ~at ~rel:"data" t)))
        done;
        c.Ctx.user_bytes <- c.Ctx.user_bytes + String.length (Payload.encode_tuples !fresh);
        Option.iter
          (fun (uid, _) ->
            let d1, b1 = traffic sys in
            Ctx.record_op c ~seconds:(Measure.since_s t0) ~sim:(update_sim sys ~at:"n0" uid)
              ~msgs:(d1 - d0) ~bytes:(b1 - b0))
          (Ctx.attempt c "refresh" (fun () ->
               Ctx.run c (fun () -> System.run_update sys ~initiator:"n0")));
        ignore
          (reads c sys queries
             (List.map (fun at -> (at, Rng.int rng domain)) [ "n0"; leaf (); leaf (); leaf () ]));
        let victim = name (1 + Rng.int rng (peers - 1)) in
        let digest = System.store_digest sys victim in
        Option.iter
          (fun dt ->
            Ctx.sample c c.Ctx.recoveries dt;
            Ctx.check c
              (System.store_digest sys victim = digest)
              "ingest: restarted peer's store differs from before the crash")
          (Ctx.attempt c "recovery" (fun () ->
               let t0 = Measure.now_ns () in
               System.crash_node sys victim;
               System.restart_node sys victim;
               Ctx.rewrap c sys victim;
               ignore (Ctx.run c (fun () -> System.run sys));
               Measure.since_s t0)));
    let answers at id = Option.map sorted (System.subscription_answers sys ~at id) in
    Ctx.check c
      (answers "n0" local = Some (sorted (System.local_answers sys ~at:"n0" q_local)))
      "ingest: standing query differs from local answers";
    Ctx.check c
      (answers "n1" mirror = answers "n0" mirror
      && answers "n0" mirror = Some (sorted (System.local_answers sys ~at:"n0" q_mirror)))
      "ingest: mirror differs from its host";
    (* the root imports every fact in the tree *)
    Ctx.check c
      (Database.cardinal (System.node sys "n0").Node.store = Tset.length facts)
      "ingest: the root is missing inserted facts"

  (* Each network lives for [rounds_per_network] rounds, so the stores
     and logs a round works on do not grow with the length of the run. *)
  let run (c : Ctx.t) =
    let rng = Rng.make ~seed:c.Ctx.seed in
    let data_seed = Rng.int rng 1_000_000_000 in
    let cfg =
      network ~shape:Topology.Binary_tree ~n:peers ~tuples ~domain ~shape_seed:0 ~data_seed ()
    in
    let base = List.concat_map (fun d -> List.map snd d.Config.facts) cfg.Config.nodes in
    let queries = read_queries domain in
    let timed_setup () =
      let live, dt = Measure.time (fun () -> setup cfg) in
      Ctx.sample c c.Ctx.setups dt;
      live
    in
    (* the last of the first set-ups serves the first rounds *)
    let next = ref (Some (List.nth (List.init setups (fun _ -> timed_setup ())) (setups - 1))) in
    while Ctx.in_time c do
      let ((sys, _, _) as live) =
        match !next with Some live -> live | None -> timed_setup ()
      in
      next := None;
      Ctx.wrap_all c sys;
      let facts = tset base and durable0 = durable_bytes sys and r = ref 0 in
      while !r < rounds_per_network && Ctx.in_time c do
        incr r;
        round c rng queries live facts
      done;
      c.Ctx.durable_bytes <- c.Ctx.durable_bytes + durable_bytes sys - durable0
    done
end

let all =
  [
    ("update-fixpoint", Update_fixpoint.run);
    ("query-clique", Query_clique.run);
    ("ingest-durable", Ingest_durable.run);
  ]
