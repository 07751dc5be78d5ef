(* One run of one workload: its deadline, the samples behind the
   end-to-end metrics, the failure count behind [failed], and — in the
   traced run — the per-layer accumulators.

   Work is cut into units (one update, one query, or one ingest round).
   The end-to-end run traces nothing.  The traced run wraps every handler
   but switches the wrappers on only for every other unit: the traced
   units feed the per-layer metrics, the untraced ones give the
   baseline for [trace.overhead_ratio]. *)

module System = Codb_core.System

type t = {
  seed : int;
  deadline : int64;
  tracer : Tracer.t option;
  (* timings below are wall seconds *)
  setups : Measure.samples;
  ops : Measure.samples;  (** untraced units *)
  traced_ops : Measure.samples;
  sims : Measure.samples;  (** simulated seconds *)
  reads : Measure.samples;  (** per read *)
  writes : Measure.samples;
  recoveries : Measure.samples;
  retained : Measure.samples;  (** live words a unit leaves behind *)
  mutable op_msgs : int;
  mutable op_bytes : int;
  mutable user_bytes : int;  (** encoded bytes of inserted facts *)
  mutable durable_bytes : int;  (** WAL + snapshot bytes over the same writes *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  mutable units : int;
  mutable traced_units : int;
  mutable layer : Layers.t;
  mutable run_ns : int;  (** wall inside [System.run*], traced units *)
  mutable copy_us_per_ktuple : float;
}

let create ~seed ~seconds ~trace =
  {
    seed;
    deadline = Int64.add (Measure.now_ns ()) (Int64.of_float (seconds *. 1e9));
    tracer = (if trace then Some (Tracer.create ()) else None);
    setups = Measure.samples ();
    ops = Measure.samples ();
    traced_ops = Measure.samples ();
    sims = Measure.samples ();
    reads = Measure.samples ();
    writes = Measure.samples ();
    recoveries = Measure.samples ();
    retained = Measure.samples ();
    op_msgs = 0;
    op_bytes = 0;
    user_bytes = 0;
    durable_bytes = 0;
    attempted = 0;
    failed = 0;
    failures = [];
    units = 0;
    traced_units = 0;
    layer = Layers.zero;
    run_ns = 0;
    copy_us_per_ktuple = 0.;
  }

let in_time c = Int64.compare (Measure.now_ns ()) c.deadline < 0

let fail c msg =
  c.failed <- c.failed + 1;
  if List.length c.failures < 8 then c.failures <- msg :: c.failures

(* One output check: an attempt of its own, so [failed <= attempted]. *)
let check c ok msg =
  c.attempted <- c.attempted + 1;
  if not ok then fail c msg

(* One attempted operation: an exception counts as its failure. *)
let attempt c what f =
  c.attempted <- c.attempted + 1;
  match f () with
  | v -> Some v
  | exception e ->
      fail c (what ^ " raised " ^ Printexc.to_string e);
      None

let traced c = match c.tracer with Some t -> t.Tracer.active | None -> false

(* Wrap the handlers of a fresh (or restarted) network in the traced
   run; a no-op otherwise. *)
let wrap_all c sys =
  Option.iter (fun t -> Tracer.wrap_all t (System.net sys)) c.tracer

let rewrap c sys name =
  Option.iter
    (fun t -> Tracer.wrap t (System.net sys) (System.node sys name).Codb_core.Node.node_id)
    c.tracer

(* Time a call that runs the simulator ([System.run*]). *)
let run c f =
  let t0 = Measure.now_ns () in
  let v = f () in
  let dt = Measure.since_ns t0 in
  if traced c then c.run_ns <- c.run_ns + dt;
  (v, float_of_int dt /. 1e9)

let record_op c ~seconds ~sim ~msgs ~bytes =
  if traced c then Measure.add c.traced_ops seconds
  else begin
    Measure.add c.ops seconds;
    Measure.add c.sims sim;
    c.op_msgs <- c.op_msgs + msgs;
    c.op_bytes <- c.op_bytes + bytes
  end

(* Timings of secondary operations count only outside traced units. *)
let sample c s seconds = if not (traced c) then Measure.add s seconds

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* Run one unit of work against [sys].  In the traced run every other
   unit is traced: layer counters are read around it, every delivery
   in it must have produced a span, and the first two traced units also
   measure the live heap they leave behind. *)
let unit c sys f =
  let n = c.units in
  c.units <- n + 1;
  match c.tracer with
  | Some t when n mod 2 = 1 ->
      let retained = c.traced_units < 2 in
      let live0 = if retained then live_words () else 0 in
      let before = Layers.read sys in
      let spans0 = t.Tracer.handled in
      t.Tracer.active <- true;
      let v = Fun.protect ~finally:(fun () -> t.Tracer.active <- false) f in
      let after = Layers.read sys in
      let spans = t.Tracer.handled - spans0
      and deliveries = after.Layers.delivered - before.Layers.delivered in
      check c (spans = deliveries)
        (Printf.sprintf "traced unit: %d spans for %d deliveries" spans deliveries);
      c.layer <- Layers.accumulate c.layer ~before ~after;
      c.traced_units <- c.traced_units + 1;
      if retained then Measure.add c.retained (float_of_int (live_words () - live0));
      v
  | Some _ | None -> f ()
