(* Per-layer counters, read at unit boundaries from the registries the
   library exposes ([Network.counters], [Eval.counters], the [Stats]
   snapshots, [System.durability_report], [Gc]) and accumulated as
   before/after deltas over the traced units of a run. *)

module System = Codb_core.System
module Stats = Codb_core.Stats
module Network = Codb_net.Network
module Eval = Codb_cq.Eval

type t = {
  delivered : int;
  bytes : int;
  dropped : int;
  retransmits : int;
  probes : int;
  scans : int;
  zone_pruned : int;
  new_tuples : int;
  dup_suppressed : int;
  nulls_created : int;
  pushdown_hits : int;
  filtered_at_source : int;
  deltas_in : int;
  deltas_out : int;
  push_msgs : int;
  wal_records : int;
  wal_bytes : int;
  wal_snapshots : int;
  wal_snapshot_bytes : int;
  wal_replayed_bytes : int;
  wal_recoveries : int;
  wal_recovery_cpu_ms : float;
  minor_words : float;
  major_collections : int;
}

let zero =
  {
    delivered = 0;
    bytes = 0;
    dropped = 0;
    retransmits = 0;
    probes = 0;
    scans = 0;
    zone_pruned = 0;
    new_tuples = 0;
    dup_suppressed = 0;
    nulls_created = 0;
    pushdown_hits = 0;
    filtered_at_source = 0;
    deltas_in = 0;
    deltas_out = 0;
    push_msgs = 0;
    wal_records = 0;
    wal_bytes = 0;
    wal_snapshots = 0;
    wal_snapshot_bytes = 0;
    wal_replayed_bytes = 0;
    wal_recoveries = 0;
    wal_recovery_cpu_ms = 0.;
    minor_words = 0.;
    major_collections = 0;
  }

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let read sys =
  let net = Network.counters (System.net sys) in
  let ev = Eval.counters () in
  let snaps = System.snapshots sys in
  let updates = List.concat_map (fun s -> s.Stats.snap_updates) snaps in
  let queries = List.concat_map (fun s -> s.Stats.snap_queries) snaps in
  let dr = System.durability_report sys in
  let gc = Gc.quick_stat () in
  {
    delivered = net.Network.delivered;
    bytes = net.Network.total_bytes;
    dropped = net.Network.dropped;
    retransmits = sum (fun s -> s.Stats.snap_chaos.Stats.chn_retransmits) snaps;
    probes = ev.Eval.probes;
    scans = ev.Eval.scans;
    zone_pruned = ev.Eval.zone_pruned;
    new_tuples = sum (fun u -> u.Stats.usn_new_tuples) updates;
    dup_suppressed = sum (fun u -> u.Stats.usn_dup_suppressed) updates;
    nulls_created = sum (fun u -> u.Stats.usn_nulls_created) updates;
    pushdown_hits = sum (fun q -> q.Stats.qsn_pushdown_hits) queries;
    filtered_at_source = sum (fun q -> q.Stats.qsn_filtered_at_source) queries;
    deltas_in = sum (fun s -> s.Stats.snap_sub.Stats.ssn_deltas_in) snaps;
    deltas_out = sum (fun s -> s.Stats.snap_sub.Stats.ssn_deltas_out) snaps;
    push_msgs = sum (fun s -> s.Stats.snap_sub.Stats.ssn_push_msgs) snaps;
    wal_records = dr.System.dr_wal_records;
    wal_bytes = dr.System.dr_wal_bytes;
    wal_snapshots = dr.System.dr_snapshots;
    wal_snapshot_bytes = dr.System.dr_snapshot_bytes;
    wal_replayed_bytes = dr.System.dr_replayed_bytes;
    wal_recoveries = dr.System.dr_recoveries;
    wal_recovery_cpu_ms = dr.System.dr_recovery_ms;
    minor_words = gc.Gc.minor_words;
    major_collections = gc.Gc.major_collections;
  }

(* [acc + (after - before)], field by field. *)
let accumulate acc ~before ~after =
  let d f = f acc + f after - f before in
  let df f = f acc +. f after -. f before in
  {
    delivered = d (fun x -> x.delivered);
    bytes = d (fun x -> x.bytes);
    dropped = d (fun x -> x.dropped);
    retransmits = d (fun x -> x.retransmits);
    probes = d (fun x -> x.probes);
    scans = d (fun x -> x.scans);
    zone_pruned = d (fun x -> x.zone_pruned);
    new_tuples = d (fun x -> x.new_tuples);
    dup_suppressed = d (fun x -> x.dup_suppressed);
    nulls_created = d (fun x -> x.nulls_created);
    pushdown_hits = d (fun x -> x.pushdown_hits);
    filtered_at_source = d (fun x -> x.filtered_at_source);
    deltas_in = d (fun x -> x.deltas_in);
    deltas_out = d (fun x -> x.deltas_out);
    push_msgs = d (fun x -> x.push_msgs);
    wal_records = d (fun x -> x.wal_records);
    wal_bytes = d (fun x -> x.wal_bytes);
    wal_snapshots = d (fun x -> x.wal_snapshots);
    wal_snapshot_bytes = d (fun x -> x.wal_snapshot_bytes);
    wal_replayed_bytes = d (fun x -> x.wal_replayed_bytes);
    wal_recoveries = d (fun x -> x.wal_recoveries);
    wal_recovery_cpu_ms = df (fun x -> x.wal_recovery_cpu_ms);
    minor_words = df (fun x -> x.minor_words);
    major_collections = d (fun x -> x.major_collections);
  }
