module Engine = Splay_sim.Engine
module Rng = Splay_sim.Rng
module Obs = Splay_obs.Obs

(* Observability sites; [net.link_wait] is the time a message spends
   queued behind earlier transfers in the sender's uplink and the
   receiver's downlink — the signal that a link is saturating. *)
let c_msgs = Obs.counter "net.msgs_sent"
let c_obs_bytes = Obs.counter "net.bytes_sent"
let c_drops = Obs.counter "net.dropped"
let h_link_wait = Obs.histogram "net.link_wait"

type payload = ..

type handler = src:Addr.t -> payload -> unit

module AddrTbl = Hashtbl.Make (struct
  type t = Addr.t

  let equal = Addr.equal
  let hash = Addr.hash
end)

(* Cross-partition escape hatch for the parallel engine: when a remote
   hook is installed and the destination host is not local, the send
   path stops after the sender-side half of the store-and-forward model
   (uplink queue + propagation) and hands the message to [r_route] —
   Fabric posts it into a Par mailbox, and the receiving partition
   finishes the job with [deliver_remote] (downlink queue + processing +
   liveness checks against ITS copy of the host state). *)
type remote = {
  r_local : Addr.host_id -> bool;
  r_route :
    src:Addr.t ->
    dst:Addr.t ->
    size:int ->
    arrival:float ->
    up_wait:float ->
    ctx:Obs.ctx ->
    payload ->
    unit;
}

type t = {
  eng : Engine.t;
  tb : Testbed.t;
  links : Testbed.Links.t;
  handlers : handler AddrTbl.t;
  net_rng : Rng.t;
  mutable loss : float;
  mutable extra_delay : float;
  mutable partition : (Addr.host_id -> int) option;
  mutable remote : remote option;
  mutable n_sent : int;
  mutable n_bytes : int;
  mutable n_dropped : int;
}

let create eng tb =
  {
    eng;
    tb;
    links = Testbed.links tb;
    handlers = AddrTbl.create 1024;
    net_rng = Rng.split (Testbed.rng tb);
    loss = 0.0;
    extra_delay = 0.0;
    partition = None;
    remote = None;
    n_sent = 0;
    n_bytes = 0;
    n_dropped = 0;
  }

let engine t = t.eng
let testbed t = t.tb

let bind t addr handler =
  if AddrTbl.mem t.handlers addr then
    invalid_arg (Printf.sprintf "Net.bind: %s already bound" (Addr.to_string addr));
  AddrTbl.replace t.handlers addr handler

let unbind t addr = AddrTbl.remove t.handlers addr

let is_bound t addr = AddrTbl.mem t.handlers addr

let set_loss t p = t.loss <- p

let set_extra_delay t d = t.extra_delay <- if d < 0.0 then 0.0 else d
let extra_delay t = t.extra_delay

let set_partition t f = t.partition <- Some f
let clear_partition t = t.partition <- None

let partitioned t a b =
  match t.partition with Some f -> f a <> f b | None -> false

let host_up t id = Testbed.host_up t.tb id

let set_host_up t id up = Testbed.set_host_up t.tb id up

let base_rtt t a b = 2.0 *. Testbed.base_delay t.tb a b

(* Hoisted out of [send] so a dropped (or delivered-then-dropped) message
   costs a call, not a fresh closure per send. *)
let count_drop t =
  t.n_dropped <- t.n_dropped + 1;
  Obs.incr c_drops

let count_sent t size =
  t.n_sent <- t.n_sent + 1;
  t.n_bytes <- t.n_bytes + size;
  Obs.incr c_msgs;
  Obs.add c_obs_bytes size

(* A link parameter of host [id]; the caller has range-checked [id]. *)
let[@inline] param p id =
  match p with Testbed.Links.Shared v -> v | Per_host a -> Array.unsafe_get a id

(* Receiver half of the store-and-forward model, shared by a local send and
   a message routed in from another partition: the transfer occupies the
   destination's downlink from when the last byte arrives (or the downlink
   frees), then pays the host's processing cost. The sender's trace
   context [ctx] travels with the message (the wire-level counterpart of
   the RPC envelope's ctx field): delivery runs under it, so receiver-side
   spans join the sender's causal trace for any payload, not just RPC. *)
let receive t ~size ~src ~dst ~arrival ~up_wait ~ctx payload =
  let l = t.links and dh = dst.Addr.host in
  let tx_down = Float.of_int size /. param l.bw_down dh in
  let start_down = Float.max arrival (Array.unsafe_get l.down_busy dh) in
  Array.unsafe_set l.down_busy dh (start_down +. tx_down);
  let deliver_at = start_down +. tx_down +. (param l.proc_base dh *. param l.mult dh) in
  (* delay-burst nemesis: a flat add-on past the bandwidth queues, so it
     slows delivery without occupying the links *)
  let deliver_at = if t.extra_delay > 0.0 then deliver_at +. t.extra_delay else deliver_at in
  let traced = !Obs.enabled in
  if traced || !Obs.metrics_enabled then
    Obs.observe h_link_wait (up_wait +. (start_down -. arrival));
  ignore
    (Engine.schedule_at t.eng ~at:deliver_at (fun () ->
         if traced then Obs.set_current ctx;
         if Bytes.unsafe_get l.up_bits dh = '\000' then count_drop t
         else
           match AddrTbl.find_opt t.handlers dst with
           | None -> count_drop t
           | Some h -> h ~src payload))

(* Store-and-forward through sender uplink and receiver downlink queues:
   a transfer occupies the uplink for size/bw_up starting when the uplink
   frees, propagates, then occupies the downlink. This is what makes links
   saturate under bulk transfers (Fig. 13). A host id outside the testbed
   (a forged or corrupt address) is dropped like a send to an unbound
   port, before anything indexes per-host state with it. *)
let send t ?(size = 256) ?loss ~src ~dst payload =
  count_sent t size;
  let l = t.links in
  let n = Bytes.length l.up_bits in
  let sh = src.Addr.host and dh = dst.Addr.host in
  if sh < 0 || sh >= n || dh < 0 || dh >= n then count_drop t
  else if Bytes.unsafe_get l.up_bits sh = '\000' || partitioned t sh dh then count_drop t
  else begin
    let p = match loss with Some p -> p | None -> t.loss in
    if p > 0.0 && Rng.chance t.net_rng p then count_drop t
    else begin
      let now = Engine.now t.eng in
      let tx_up = Float.of_int size /. param l.bw_up sh in
      let start_up = Float.max now (Array.unsafe_get l.up_busy sh) in
      Array.unsafe_set l.up_busy sh (start_up +. tx_up);
      let arrival = start_up +. tx_up +. Testbed.delay t.tb sh dh in
      let up_wait = start_up -. now in
      (* with tracing off the context is pinned to [null_ctx]: nothing to
         capture or restore *)
      let ctx = if !Obs.enabled then Obs.current () else Obs.null_ctx in
      match t.remote with
      | Some r when not (r.r_local dh) ->
          (* sender-side half done; the destination partition applies its
             own downlink/processing model when the mailbox drains *)
          r.r_route ~src ~dst ~size ~arrival ~up_wait ~ctx payload
      | _ -> receive t ~size ~src ~dst ~arrival ~up_wait ~ctx payload
    end
  end

let set_remote t ~local ~route = t.remote <- Some { r_local = local; r_route = route }

(* Receiver half of a routed send: runs on the destination partition's
   engine at the message's arrival time, against THIS net's link state. *)
let deliver_remote t ?(size = 256) ~src ~dst ~up_wait ~ctx payload =
  receive t ~size ~src ~dst ~arrival:(Engine.now t.eng) ~up_wait ~ctx payload

let messages_sent t = t.n_sent
let bytes_sent t = t.n_bytes
let messages_dropped t = t.n_dropped
