(* The traced run's instrumentation: every node handler is wrapped
   through [Network.handler_of]/[set_handler], so each delivery becomes
   one span keyed by payload kind and by the update, query or
   subscription it belongs to.  Handlers never nest (sends are
   scheduled, not called), so a span's duration is the handler's self
   time.  Spans stay in memory and are written out at the end. *)

module Network = Codb_net.Network
module Message = Codb_net.Message
module Peer_id = Codb_net.Peer_id
module Payload = Codb_core.Payload
module Ids = Codb_core.Ids

(* The [dbm] boundary, named after the payload constructors. *)
let kinds =
  [|
    "update_request";
    "update_data";
    "update_control";
    "query_request";
    "query_data";
    "query_done";
    "sub";
    "transport";
    "other";
  |]

let rec kind_index = function
  | Payload.Seq { inner; _ } -> kind_index inner
  | Payload.Update_request _ -> 0
  | Payload.Update_data _ | Payload.Update_batch _ -> 1
  | Payload.Update_link_closed _ | Payload.Update_ack _ | Payload.Update_terminated _ -> 2
  | Payload.Query_request _ -> 3
  | Payload.Query_data _ -> 4
  | Payload.Query_done _ -> 5
  | Payload.Sub_register _ | Payload.Sub_registered _ | Payload.Sub_unregister _
  | Payload.Answer_delta _ | Payload.Answer_batch _ ->
      6
  | Payload.Seq_ack _ -> 7
  | Payload.Rules_file _ | Payload.Start_update | Payload.Stats_request
  | Payload.Stats_response _ | Payload.Discovery_probe _ | Payload.Discovery_reply _ ->
      8

let rec request_id = function
  | Payload.Seq { inner; _ } -> request_id inner
  | Payload.Update_request { update_id; _ }
  | Payload.Update_data { update_id; _ }
  | Payload.Update_batch { update_id; _ }
  | Payload.Update_link_closed { update_id; _ }
  | Payload.Update_ack { update_id }
  | Payload.Update_terminated { update_id } ->
      Ids.string_of_update update_id
  | Payload.Query_request { query_id; _ }
  | Payload.Query_data { query_id; _ }
  | Payload.Query_done { query_id; _ } ->
      Ids.string_of_query query_id
  | Payload.Sub_register { sub_id; _ }
  | Payload.Sub_registered { sub_id; _ }
  | Payload.Sub_unregister { sub_id }
  | Payload.Answer_delta { sub_id; _ } ->
      sub_id
  | Payload.Answer_batch _ | Payload.Seq_ack _ | Payload.Rules_file _
  | Payload.Start_update | Payload.Stats_request | Payload.Stats_response _
  | Payload.Discovery_probe _ | Payload.Discovery_reply _ ->
      "-"

type span = { sp_start : int; sp_dur : int; sp_kind : int; sp_dst : string; sp_id : string }

(* Spans kept for the output file; the sums below count every span. *)
let max_spans = 100_000

(* Payloads kept for the codec replay: every [capture_every]-th
   delivery, at most [max_captured]. *)
let capture_every = 7

let max_captured = 3_000

type t = {
  mutable active : bool;
  self_ns : int array;  (** per kind *)
  msgs : int array;  (** per kind *)
  mutable handled : int;
  mutable spans : span list;  (** newest first *)
  mutable kept : int;
  mutable captured : Payload.t list;
  mutable n_captured : int;
}

let create () =
  {
    active = false;
    self_ns = Array.make (Array.length kinds) 0;
    msgs = Array.make (Array.length kinds) 0;
    handled = 0;
    spans = [];
    kept = 0;
    captured = [];
    n_captured = 0;
  }

let record t (msg : Payload.t Message.t) t0 t1 =
  let payload = msg.Message.payload in
  let k = kind_index payload in
  let dur = Int64.to_int (Int64.sub t1 t0) in
  t.self_ns.(k) <- t.self_ns.(k) + dur;
  t.msgs.(k) <- t.msgs.(k) + 1;
  t.handled <- t.handled + 1;
  if t.kept < max_spans then begin
    t.spans <-
      {
        sp_start = Int64.to_int t0;
        sp_dur = dur;
        sp_kind = k;
        sp_dst = Peer_id.to_string msg.Message.dst;
        sp_id = request_id payload;
      }
      :: t.spans;
    t.kept <- t.kept + 1
  end;
  if t.handled mod capture_every = 0 && t.n_captured < max_captured then begin
    t.captured <- payload :: t.captured;
    t.n_captured <- t.n_captured + 1
  end

(* Wrap the peer's current handler.  Call once per registration: after
   [System.restart_node] re-registers a bare handler, wrap it again. *)
let wrap t net peer =
  match Network.handler_of net peer with
  | None -> ()
  | Some h ->
      Network.set_handler net peer (fun msg ->
          if not t.active then h msg
          else begin
            let t0 = Measure.now_ns () in
            h msg;
            record t msg t0 (Measure.now_ns ())
          end)

let wrap_all t net = List.iter (wrap t net) (Network.peers net)

let self_ns_total t = Array.fold_left ( + ) 0 t.self_ns

let write_spans t path =
  let oc = open_out path in
  output_string oc "start_ns\tdur_ns\tkind\tdst\trequest\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%s\t%s\t%s\n" s.sp_start s.sp_dur kinds.(s.sp_kind) s.sp_dst
        s.sp_id)
    (List.rev t.spans);
  close_out oc
