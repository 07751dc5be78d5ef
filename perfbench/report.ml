(* The metrics a run prints: the end-to-end set of the untraced run and
   the per-layer set of the traced run, plus the replays the traced run
   makes at the end (codec on captured payloads, store copies). *)

module Payload = Codb_core.Payload
module System = Codb_core.System
module Node = Codb_core.Node
module Database = Codb_relalg.Database

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let per n x = if n = 0 then 0. else x /. float_of_int n

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let end_to_end (c : Ctx.t) =
  let n = c.Ctx.ops.Measure.n in
  let tail, _ = Measure.tail c.Ctx.ops in
  [
    m "setup_s" "s" (Measure.median c.Ctx.setups);
    m "op_ms_p50" "ms" (1e3 *. Measure.median c.Ctx.ops);
    m "op_ms_tail" "ms" (1e3 *. tail);
    m "op_sim_ms" "ms" (1e3 *. Measure.median c.Ctx.sims);
    m "msgs_per_op" "count" (per n (float_of_int c.Ctx.op_msgs));
    m "wire_bytes_per_op" "bytes" (per n (float_of_int c.Ctx.op_bytes));
    m "read_us_p50" "us" (1e6 *. Measure.median c.Ctx.reads);
    m "peak_heap_mb" "MB" (peak_heap_mb ());
  ]

(* ---- replays ---------------------------------------------------------- *)

let rec tuples_in = function
  | Payload.Seq { inner; _ } -> tuples_in inner
  | Payload.Update_data { tuples; _ } | Payload.Query_data { tuples; _ } -> List.length tuples
  | Payload.Update_batch { entries; _ } ->
      List.fold_left (fun acc e -> acc + List.length e.Payload.be_tuples) 0 entries
  | Payload.Answer_delta { adds; retracts; _ } -> List.length adds + List.length retracts
  | Payload.Answer_batch { entries } ->
      List.fold_left
        (fun acc e -> acc + List.length e.Payload.se_adds + List.length e.Payload.se_retracts)
        0 entries
  | _ -> 0

type codec = { size_ns : float; encode_ns : float; decode_ns : float; bytes_per_tuple : float }

let reps = 5

let time_ns f =
  let t0 = Measure.now_ns () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  Measure.since_ns t0

(* Replay the size model, encoder and decoder on the captured payloads.
   The size model must equal the encoded length, and decoding then
   re-encoding must give the same bytes; a payload that does not is a
   failure. *)
let codec_replay (c : Ctx.t) payloads =
  let size = ref 0 and enc = ref 0 and dec = ref 0 in
  let bytes = ref 0 and tuples = ref 0 and n = ref 0 in
  List.iter
    (fun p ->
      let s = Payload.encode p in
      size := !size + time_ns (fun () -> Payload.encoded_size p);
      enc := !enc + time_ns (fun () -> Payload.encode p);
      dec := !dec + time_ns (fun () -> Payload.decode s);
      incr n;
      Ctx.check c (Payload.encoded_size p = String.length s) "codec: size model <> encoded length";
      (match Payload.decode s with
      | Ok p' -> Ctx.check c (String.equal (Payload.encode p') s) "codec: decode/encode round trip"
      | Error e -> Ctx.check c false ("codec: decode failed: " ^ e));
      let k = tuples_in p in
      if k > 0 then begin
        bytes := !bytes + String.length s;
        tuples := !tuples + k
      end)
    payloads;
  let ns x = per (!n * reps) (float_of_int x) in
  {
    size_ns = ns !size;
    encode_ns = ns !enc;
    decode_ns = ns !dec;
    bytes_per_tuple = per !tuples (float_of_int !bytes);
  }

(* The cost of the query overlay: [Database.copy] of every node's
   store, in microseconds per thousand stored tuples. *)
let copy_replay sys =
  let reps = 200 in
  let ns = ref 0 and tuples = ref 0 in
  List.iter
    (fun name ->
      let store = (System.node sys name).Node.store in
      let t0 = Measure.now_ns () in
      for _ = 1 to reps do
        ignore (Sys.opaque_identity (Database.copy store))
      done;
      ns := !ns + Measure.since_ns t0;
      tuples := !tuples + (reps * Database.cardinal store))
    (System.node_names sys);
  per !tuples (float_of_int !ns) (* ns per tuple = us per ktuple *)

(* ---- per-layer set ---------------------------------------------------- *)

let per_layer (c : Ctx.t) (t : Tracer.t) =
  let l = c.Ctx.layer and u = c.Ctx.traced_units in
  let cd = codec_replay c t.Tracer.captured in
  let op x = per u (float_of_int x) in
  let dbm =
    List.concat
      (List.init
         (Array.length Tracer.kinds - 1)
         (fun k ->
           let kind = Tracer.kinds.(k) in
           [
             m ("dbm." ^ kind ^ ".self_ms_per_op") "ms" (op t.Tracer.self_ns.(k) /. 1e6);
             m ("dbm." ^ kind ^ ".msgs_per_op") "count" (op t.Tracer.msgs.(k));
           ]))
  in
  let untraced = Measure.median c.Ctx.ops and traced = Measure.median c.Ctx.traced_ops in
  let useful = l.Layers.new_tuples + l.Layers.dup_suppressed in
  let recoveries = l.Layers.wal_recoveries in
  [
    m "net.loop_ms_per_op" "ms" (op (c.Ctx.run_ns - Tracer.self_ns_total t) /. 1e6);
    m "net.delivered_per_op" "count" (op l.Layers.delivered);
    m "net.bytes_per_op" "bytes" (op l.Layers.bytes);
    m "net.dropped_per_op" "count" (op l.Layers.dropped);
    m "net.retransmits_per_op" "count" (op l.Layers.retransmits);
  ]
  @ dbm
  @ [
      m "relalg.copy_us_per_ktuple" "us" c.Ctx.copy_us_per_ktuple;
      m "cq.probes_per_op" "count" (op l.Layers.probes);
      m "cq.scans_per_op" "count" (op l.Layers.scans);
      m "cq.zone_pruned_per_op" "count" (op l.Layers.zone_pruned);
      m "wrapper.new_tuples_per_op" "count" (op l.Layers.new_tuples);
      m "wrapper.dup_suppressed_per_op" "count" (op l.Layers.dup_suppressed);
      m "wrapper.nulls_created_per_op" "count" (op l.Layers.nulls_created);
      m "wrapper.useful_ratio" "ratio" (per useful (float_of_int l.Layers.new_tuples));
      m "query.pushdown_hits_per_op" "count" (op l.Layers.pushdown_hits);
      m "query.filtered_at_source_per_op" "count" (op l.Layers.filtered_at_source);
      m "codec.size_ns_per_msg" "ns" cd.size_ns;
      m "codec.encode_ns_per_msg" "ns" cd.encode_ns;
      m "codec.decode_ns_per_msg" "ns" cd.decode_ns;
      m "codec.bytes_per_tuple" "bytes" cd.bytes_per_tuple;
      m "sub.deltas_in_per_op" "count" (op l.Layers.deltas_in);
      m "sub.deltas_out_per_op" "count" (op l.Layers.deltas_out);
      m "sub.push_msgs_per_op" "count" (op l.Layers.push_msgs);
      m "wal.records_per_op" "count" (op l.Layers.wal_records);
      m "wal.bytes_per_op" "bytes" (op l.Layers.wal_bytes);
      m "wal.snapshots_per_op" "count" (op l.Layers.wal_snapshots);
      m "wal.snapshot_bytes_per_op" "bytes" (op l.Layers.wal_snapshot_bytes);
      m "wal.replayed_bytes_per_recovery" "bytes"
        (per recoveries (float_of_int l.Layers.wal_replayed_bytes));
      m "wal.recovery_cpu_ms_per_recovery" "ms" (per recoveries l.Layers.wal_recovery_cpu_ms);
      m "ingest.write_us_p50" "us" (1e6 *. Measure.median c.Ctx.writes);
      m "ingest.recovery_ms_p50" "ms" (1e3 *. Measure.median c.Ctx.recoveries);
      m "ingest.durable_bytes_per_user_byte" "ratio"
        (per c.Ctx.user_bytes (float_of_int c.Ctx.durable_bytes));
      m "gc.minor_words_per_msg" "words" (per l.Layers.delivered l.Layers.minor_words);
      m "gc.major_collections_per_op" "count" (op l.Layers.major_collections);
      m "gc.retained_words_per_op" "words" (Measure.median c.Ctx.retained);
      m "trace.overhead_ratio" "ratio" (traced /. untraced);
    ]
