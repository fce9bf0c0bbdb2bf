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
  cmp : Testbed.Compact.t option;
      (* struct-of-arrays state when [tb] is a synthetic testbed; checked
         once at creation so the send path dispatches on a field load *)
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
    cmp = Testbed.compact tb;
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

(* The compact (struct-of-arrays) variant of the send path below: same
   store-and-forward model, same counter/observability behavior, but every
   per-host load is an unboxed array index instead of a record field, and
   propagation comes from the testbed's latency model — O(1) and stateless,
   which is what keeps million-host sends cheap. *)
let send_compact t c ~size ?loss ~src ~dst payload =
  count_sent t size;
  let sh = src.Addr.host and dh = dst.Addr.host in
  if
    Bytes.unsafe_get c.Testbed.Compact.up_bits sh = '\000'
    || partitioned t sh dh
  then count_drop t
  else begin
    let p = match loss with Some p -> p | None -> t.loss in
    if p > 0.0 && Rng.chance t.net_rng p then count_drop t
    else begin
      let traced = !Obs.enabled in
      let now = Engine.now t.eng in
      let sz = Float.of_int size in
      let tx_up = sz /. c.Testbed.Compact.bw_up in
      let up_busy = c.Testbed.Compact.up_busy in
      let start_up = Float.max now (Array.unsafe_get up_busy sh) in
      Array.unsafe_set up_busy sh (start_up +. tx_up);
      let propagation = Latency.delay c.Testbed.Compact.lat sh dh in
      let arrival = start_up +. tx_up +. propagation in
      match t.remote with
      | Some r when not (r.r_local dh) ->
          (* sender-side half done; the destination partition applies its
             own downlink/processing model when the mailbox drains *)
          let mctx = if traced then Obs.current () else Obs.null_ctx in
          r.r_route ~src ~dst ~size ~arrival ~up_wait:(start_up -. now) ~ctx:mctx payload
      | _ ->
          let tx_down = sz /. c.Testbed.Compact.bw_down in
          let down_busy = c.Testbed.Compact.down_busy in
          let start_down = Float.max arrival (Array.unsafe_get down_busy dh) in
          Array.unsafe_set down_busy dh (start_down +. tx_down);
          let deliver_at = start_down +. tx_down +. c.Testbed.Compact.proc_cost in
          let deliver_at =
            if t.extra_delay > 0.0 then deliver_at +. t.extra_delay else deliver_at
          in
          if traced || !Obs.metrics_enabled then
            Obs.observe h_link_wait ((start_up -. now) +. (start_down -. arrival));
          let mctx = if traced then Obs.current () else Obs.null_ctx in
          ignore
            (Engine.schedule_at t.eng ~at:deliver_at (fun () ->
                 if traced then Obs.set_current mctx;
                 if Bytes.unsafe_get c.Testbed.Compact.up_bits dh = '\000' then count_drop t
                 else
                   match AddrTbl.find_opt t.handlers dst with
                   | None -> count_drop t
                   | Some h -> h ~src payload))
    end
  end

(* Store-and-forward through sender uplink and receiver downlink queues:
   a transfer occupies the uplink for size/bw_up starting when the uplink
   frees, propagates, then occupies the downlink. This is what makes links
   saturate under bulk transfers (Fig. 13). *)
let send_classic t ~size ?loss ~src ~dst payload =
  count_sent t size;
  let hs = Testbed.host t.tb src.Addr.host in
  if (not hs.Testbed.up) || partitioned t src.Addr.host dst.Addr.host then count_drop t
  else begin
    let p = match loss with Some p -> p | None -> t.loss in
    if p > 0.0 && Rng.chance t.net_rng p then count_drop t
    else begin
      let traced = !Obs.enabled in
      let now = Engine.now t.eng in
      let sz = Float.of_int size in
      let tx_up = sz /. hs.Testbed.bw_up in
      let start_up = Float.max now hs.Testbed.up_busy in
      hs.Testbed.up_busy <- start_up +. tx_up;
      let hd = Testbed.host t.tb dst.Addr.host in
      let propagation = Testbed.delay_h t.tb hs hd in
      let arrival = start_up +. tx_up +. propagation in
      let tx_down = sz /. hd.Testbed.bw_down in
      let start_down = Float.max arrival hd.Testbed.down_busy in
      hd.Testbed.down_busy <- start_down +. tx_down;
      let processing = Testbed.proc_cost_h hd in
      let deliver_at = start_down +. tx_down +. processing in
      (* delay-burst nemesis: a flat add-on past the bandwidth queues, so
         it slows delivery without occupying the links *)
      let deliver_at = if t.extra_delay > 0.0 then deliver_at +. t.extra_delay else deliver_at in
      if traced || !Obs.metrics_enabled then
        Obs.observe h_link_wait ((start_up -. now) +. (start_down -. arrival));
      (* The sender's trace context travels with the message (the
         wire-level counterpart of the RPC envelope's ctx field): delivery
         runs under it, so receiver-side spans join the sender's causal
         trace for any payload, not just RPC. With tracing off, skip both
         the capture and the receiver-side restore — the context is pinned
         to [null_ctx] then, so there is nothing to propagate. *)
      let mctx = if traced then Obs.current () else Obs.null_ctx in
      ignore
        (Engine.schedule_at t.eng ~at:deliver_at (fun () ->
             if traced then Obs.set_current mctx;
             if not hd.Testbed.up then count_drop t
             else
               match AddrTbl.find_opt t.handlers dst with
               | None -> count_drop t
               | Some h -> h ~src payload))
    end
  end

(* A host id outside the testbed (a forged or corrupt address) is dropped
   like a send to an unbound port, before either path indexes per-host
   state with it. *)
let send t ?(size = 256) ?loss ~src ~dst payload =
  let n = Testbed.size t.tb in
  let sh = src.Addr.host and dh = dst.Addr.host in
  if sh < 0 || sh >= n || dh < 0 || dh >= n then begin
    count_sent t size;
    count_drop t
  end
  else
    match t.cmp with
    | Some c -> send_compact t c ~size ?loss ~src ~dst payload
    | None -> send_classic t ~size ?loss ~src ~dst payload

let set_remote t ~local ~route =
  if t.cmp = None then invalid_arg "Net.set_remote: synthetic (compact) testbed required";
  t.remote <- Some { r_local = local; r_route = route }

(* Receiver-side half of a routed send: runs on the destination
   partition's engine at the message's arrival time. Mirrors the tail of
   [send_compact] — downlink queueing against THIS net's busy array,
   processing cost, then liveness/handler checks at delivery. *)
let deliver_remote t ?(size = 256) ~src ~dst ~up_wait ~ctx payload =
  match t.cmp with
  | None -> invalid_arg "Net.deliver_remote: synthetic (compact) testbed required"
  | Some c ->
      let dh = dst.Addr.host in
      let arrival = Engine.now t.eng in
      let sz = Float.of_int size in
      let tx_down = sz /. c.Testbed.Compact.bw_down in
      let down_busy = c.Testbed.Compact.down_busy in
      let start_down = Float.max arrival (Array.unsafe_get down_busy dh) in
      Array.unsafe_set down_busy dh (start_down +. tx_down);
      let deliver_at = start_down +. tx_down +. c.Testbed.Compact.proc_cost in
      let deliver_at = if t.extra_delay > 0.0 then deliver_at +. t.extra_delay else deliver_at in
      let traced = !Obs.enabled in
      if traced || !Obs.metrics_enabled then
        Obs.observe h_link_wait (up_wait +. (start_down -. arrival));
      ignore
        (Engine.schedule_at t.eng ~at:deliver_at (fun () ->
             if traced then Obs.set_current ctx;
             if Bytes.unsafe_get c.Testbed.Compact.up_bits dh = '\000' then count_drop t
             else
               match AddrTbl.find_opt t.handlers dst with
               | None -> count_drop t
               | Some h -> h ~src payload))

let messages_sent t = t.n_sent
let bytes_sent t = t.n_bytes
let messages_dropped t = t.n_dropped
