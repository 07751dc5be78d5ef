(* What a crash destroys.  [Dur_off] keeps PR 4's lenient model (the
   store and transport state survive in memory).  [Dur_volatile] is an
   honest crash — everything volatile is really lost and restart
   re-fetches the world.  [Dur_wal] is an honest crash plus a
   write-ahead log and snapshots to recover from. *)
type durability = Dur_off | Dur_volatile | Dur_wal

type t = {
  latency : float;
  byte_cost : float;
  max_update_events : int;
  use_query_cache : bool;
  cache_capacity : int;
  cache_max_bytes : int;
  cache_ttl : float;
  index_budget : int;
  pushdown : bool;
  batch_window : float;
  batch_max_tuples : int;
  sent_bloom_bits : int;
  sent_ring_capacity : int;
  fault_seed : int;
  drop_prob : float;
  dup_prob : float;
  jitter : float;
  drop_budget : int;
  flap_plan : (string * string * float * float) list;
  crash_plan : (string * float * float option) list;
  ack_timeout : float;
  max_retries : int;
  backoff_factor : float;
  subscriptions : bool;
  max_subscriptions : int;
  sub_batch_window : float;
  sub_naive : bool;
  domains : int;
  par_threshold : int;
  durability : durability;
  wal_dir : string option;
  snapshot_every : int;
  fsync : bool;
  zone_maps : bool;
  link_dicts : bool;
}

(* The suite-wide parallelism knob: CI runs the whole test suite a
   second time with CODB_DOMAINS=2 without touching a single test.
   Unset, unparsable or < 1 all mean sequential. *)
let domains_from_env () =
  match Sys.getenv_opt "CODB_DOMAINS" with
  | None -> 1
  | Some text -> (
      match int_of_string_opt (String.trim text) with
      | Some n when n >= 1 -> n
      | Some _ | None -> 1)

let default =
  {
    latency = 0.001;
    byte_cost = 0.000001;
    max_update_events = 2_000_000;
    use_query_cache = false;
    cache_capacity = 128;
    cache_max_bytes = 4 * 1024 * 1024;
    cache_ttl = 0.0;
    index_budget = 16;
    pushdown = false;
    batch_window = 0.0;
    batch_max_tuples = 256;
    sent_bloom_bits = 0;
    sent_ring_capacity = 512;
    fault_seed = 0;
    drop_prob = 0.0;
    dup_prob = 0.0;
    jitter = 0.0;
    drop_budget = max_int;
    flap_plan = [];
    crash_plan = [];
    ack_timeout = 0.0;
    max_retries = 4;
    backoff_factor = 2.0;
    subscriptions = false;
    max_subscriptions = 64;
    sub_batch_window = 0.0;
    sub_naive = false;
    domains = domains_from_env ();
    par_threshold = 2;
    durability = Dur_off;
    wal_dir = None;
    snapshot_every = 64;
    fsync = false;
    zone_maps = false;
    link_dicts = false;
  }

let with_cache =
  { default with use_query_cache = true }

let validate t =
  let errors = ref [] in
  let reject message = errors := message :: !errors in
  (* NaN fails every comparison, so each float check is phrased as
     "not (finite and in range)" rather than "out of range" *)
  let at_least name floor v =
    if not (Float.is_finite v && v >= floor) then
      reject (Printf.sprintf "options: %s must be finite and >= %g (got %g)" name floor v)
  in
  at_least "latency" 0.0 t.latency;
  at_least "byte_cost" 0.0 t.byte_cost;
  if t.max_update_events <= 0 then
    reject
      (Printf.sprintf "options: max_update_events must be positive (got %d)"
         t.max_update_events);
  if t.cache_capacity < 0 then
    reject (Printf.sprintf "options: cache_capacity must be >= 0 (got %d)" t.cache_capacity);
  if t.cache_max_bytes < 0 then
    reject
      (Printf.sprintf "options: cache_max_bytes must be >= 0 (got %d)" t.cache_max_bytes);
  at_least "cache_ttl" 0.0 t.cache_ttl;
  if t.index_budget < 0 then
    reject
      (Printf.sprintf "options: index_budget must be >= 0 (got %d)" t.index_budget);
  at_least "batch_window" 0.0 t.batch_window;
  if t.batch_max_tuples < 1 then
    reject
      (Printf.sprintf "options: batch_max_tuples must be >= 1 (got %d)"
         t.batch_max_tuples);
  let max_bloom_bits = 1 lsl 24 in
  let is_power_of_two n = n > 0 && n land (n - 1) = 0 in
  if t.sent_bloom_bits <> 0
     && not (is_power_of_two t.sent_bloom_bits && t.sent_bloom_bits <= max_bloom_bits)
  then
    reject
      (Printf.sprintf
         "options: sent_bloom_bits must be 0 or a power of two <= %d (got %d)"
         max_bloom_bits t.sent_bloom_bits);
  if t.sent_ring_capacity < 1 then
    reject
      (Printf.sprintf "options: sent_ring_capacity must be >= 1 (got %d)"
         t.sent_ring_capacity);
  let prob name v =
    if not (v >= 0.0 && v <= 1.0) then
      reject (Printf.sprintf "options: %s must be in [0,1] (got %g)" name v)
  in
  prob "drop_prob" t.drop_prob;
  prob "dup_prob" t.dup_prob;
  at_least "jitter" 0.0 t.jitter;
  if t.drop_budget < 0 then
    reject (Printf.sprintf "options: drop_budget must be >= 0 (got %d)" t.drop_budget);
  List.iter
    (fun (a, b, down, up) ->
      if String.equal a b then
        reject (Printf.sprintf "options: flap_plan endpoints must differ (got %s)" a);
      if not (Float.is_finite down && Float.is_finite up && down >= 0.0 && up > down)
      then
        reject
          (Printf.sprintf
             "options: flap_plan %s-%s must close at >= 0 and reopen later (got %g, %g)"
             a b down up))
    t.flap_plan;
  List.iter
    (fun (name, at, restart) ->
      if not (Float.is_finite at && at >= 0.0) then
        reject
          (Printf.sprintf "options: crash_plan %s must crash at a finite time >= 0 (got %g)"
             name at);
      match restart with
      | Some r when not (Float.is_finite r && r > at) ->
          reject
            (Printf.sprintf
               "options: crash_plan %s must restart after it crashes (got %g, %g)" name
               at r)
      | Some _ | None -> ())
    t.crash_plan;
  at_least "ack_timeout" 0.0 t.ack_timeout;
  if t.max_retries < 0 then
    reject (Printf.sprintf "options: max_retries must be >= 0 (got %d)" t.max_retries);
  at_least "backoff_factor" 1.0 t.backoff_factor;
  if t.max_subscriptions < 1 then
    reject
      (Printf.sprintf "options: max_subscriptions must be >= 1 (got %d)"
         t.max_subscriptions);
  at_least "sub_batch_window" 0.0 t.sub_batch_window;
  if t.sub_naive && not t.subscriptions then
    reject "options: sub_naive requires subscriptions";
  if t.domains < 1 || t.domains > 256 then
    reject (Printf.sprintf "options: domains must be in [1,256] (got %d)" t.domains);
  if t.par_threshold < 1 then
    reject
      (Printf.sprintf "options: par_threshold must be >= 1 (got %d)" t.par_threshold);
  if t.snapshot_every < 1 then
    reject
      (Printf.sprintf "options: snapshot_every must be >= 1 (got %d)" t.snapshot_every);
  (match t.wal_dir with
  | Some "" -> reject "options: wal_dir must not be empty"
  | Some _ when t.durability <> Dur_wal ->
      reject "options: wal_dir requires durability = Dur_wal"
  | Some _ | None -> ());
  if t.fsync && t.wal_dir = None then
    reject "options: fsync requires wal_dir (the in-memory backend has no disk)";
  match List.rev !errors with [] -> Ok () | errors -> Error errors

let faults_enabled t =
  t.drop_prob > 0.0 || t.dup_prob > 0.0 || t.jitter > 0.0 || t.flap_plan <> []
  || t.crash_plan <> []

let reliable t = t.ack_timeout > 0.0

(* Retransmission timeout of the [attempts]-th try.  The exponent is
   capped so pathological (backoff, retries) pairs cannot push timers
   into astronomically distant simulated times. *)
let rto t attempts =
  t.ack_timeout *. Float.min 64.0 (t.backoff_factor ** float_of_int attempts)

let retry_span t =
  let rec sum acc i = if i > t.max_retries then acc else sum (acc +. rto t i) (i + 1) in
  sum 0.0 0

(* Floored so the stall watchdog stays meaningful under fire-and-forget
   transport (ack_timeout = 0 with faults injected): a silent window of
   zero would expire every sub-request before its first response could
   possibly arrive. *)
let failure_deadline t = Float.max 0.25 (retry_span t +. (2.0 *. t.ack_timeout))
