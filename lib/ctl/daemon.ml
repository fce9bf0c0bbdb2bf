module Engine = Splay_sim.Engine
module Sandbox = Splay_runtime.Sandbox
module Log = Splay_runtime.Log
module Env = Splay_runtime.Env
module Rpc = Splay_runtime.Rpc
module Codec = Splay_runtime.Codec
module Obs = Splay_obs.Obs

(* Per-command counters on the daemon side of the job state machine; the
   REGISTER span captures the service pause that makes loaded hosts slow
   to accept instances (the reason deployments over-provision). *)
let c_register = Obs.counter "splayd.register"
let c_list = Obs.counter "splayd.list"
let c_start = Obs.counter "splayd.start"
let c_stop = Obs.counter "splayd.stop"
let c_free = Obs.counter "splayd.free"

type config = {
  base_footprint : int;
  admin_limits : Sandbox.limits;
  heartbeat_interval : float;
  cpu_per_instance : float;
  contention_extra : int -> float;
}

let splay_config =
  {
    (* ~600 kB of libraries at load, growing towards ~1.5 MB once protocol
       state fills in; we account the resident steady state *)
    base_footprint = 1_450 * 1024;
    admin_limits = { Sandbox.unlimited with Sandbox.max_memory = 16 * 1024 * 1024 };
    heartbeat_interval = 60.0;
    cpu_per_instance = 0.000_3;
    contention_extra = (fun _ -> 0.0);
  }

type job_spec = {
  js_name : string;
  js_main : Env.t -> unit;
  js_limits : Sandbox.limits;
  js_log_sink : Log.sink;
  js_log_level : Log.level;
  js_loss : float;
}

type instance = {
  inst_job : int;
  mutable inst_env : Env.t;
  mutable inst_started : bool;
  mutable inst_nodes : Addr.t list;
  inst_position : int;
}

type t = {
  d_host : Addr.host_id;
  net : Net.t;
  d_env : Env.t; (* the daemon's own control endpoint *)
  cfg : config;
  controller : Addr.t;
  lookup_job : int -> job_spec option;
  mutable insts : instance list;
  mutable next_port : int;
  mutable banned : Addr.host_id list; (* controller-pushed blacklist *)
}

let proc_probe = "splayd.probe"
let proc_register = "splayd.register"
let proc_list = "splayd.list"
let proc_start = "splayd.start"
let proc_free = "splayd.free"
let proc_stop = "splayd.stop"

let addr t = t.d_env.Env.me
let host t = t.d_host

let instances t = t.insts
let instances_of_job t job = List.filter (fun i -> i.inst_job = job) t.insts
let instance_env i = i.inst_env
let instance_addr i = i.inst_env.Env.me
let instance_count t = List.length t.insts

let memory_used t =
  List.fold_left
    (fun acc i -> acc + t.cfg.base_footprint + Sandbox.memory_used i.inst_env.Env.sandbox)
    0 t.insts

(* Contention model: instances cost a sliver of CPU each; once resident
   memory exceeds the host's RAM, swapping multiplies every service time.
   This is what bends the FreePastry curves in Fig. 7(b)/Fig. 8 while SPLAY,
   with its small footprint, stays flat. *)
let refresh_host_model t =
  let tb = Net.testbed t.net in
  let mem = Float.of_int (memory_used t) in
  let cap = (Testbed.host tb t.d_host).Testbed.mem_mb *. 1024.0 *. 1024.0 in
  let swap_mult = if mem > cap then 1.0 +. (60.0 *. ((mem /. cap) -. 1.0)) else 1.0 in
  let n = instance_count t in
  let cpu_mult =
    1.0 +. (t.cfg.cpu_per_instance *. Float.of_int n) +. t.cfg.contention_extra n
  in
  Testbed.set_service_mult tb t.d_host (swap_mult *. cpu_mult)

let load t =
  let n = Float.of_int (instance_count t) in
  let base = n *. t.cfg.cpu_per_instance in
  if Testbed.service_mult (Net.testbed t.net) t.d_host > 1.5 then base +. (n *. 0.002) else base

let find_inst t port = List.find_opt (fun i -> i.inst_env.Env.me.Addr.port = port) t.insts

let remove_instance t inst =
  Env.stop inst.inst_env;
  t.insts <- List.filter (fun i -> i != inst) t.insts;
  refresh_host_model t

let stop_instance t a =
  match find_inst t a.Addr.port with
  | Some i when Addr.equal (instance_addr i) a -> remove_instance t i
  | _ -> ()

(* A control command pays the host's service time before answering: on a
   loaded PlanetLab node, forking and preparing an instance is slow — the
   very reason the controller over-provisions candidates. *)
let service_pause t = Engine.sleep (Testbed.service_delay (Net.testbed t.net) t.d_host)

(* A fresh sandboxed environment for an instance slot (initial REGISTER,
   or re-arming after STOP). *)
let fresh_env t spec ~port =
  let limits = Sandbox.restrict t.cfg.admin_limits spec.js_limits in
  let env = Env.create t.net ~me:(Addr.make t.d_host port) ~limits ~nodes:[] in
  Sandbox.blacklist env.Env.sandbox t.controller.Addr.host;
  List.iter (Sandbox.blacklist env.Env.sandbox) t.banned;
  Log.set_sink env.Env.log spec.js_log_sink;
  (* the job's log threshold filters at the emitting node, before any
     forwarding cost is paid — the paper's log.set_level at init *)
  Log.set_level env.Env.log spec.js_log_level;
  env.Env.loss_rate <- spec.js_loss;
  env

let handle_register t args =
  match args with
  | [ job_v ] ->
      Obs.incr c_register;
      let sp =
        if !Obs.enabled then
          Obs.span ~attrs:[ ("host", string_of_int t.d_host) ] "splayd.register"
        else Obs.null_span
      in
      service_pause t;
      let job = Codec.to_int job_v in
      (match t.lookup_job job with
      | None ->
          Obs.finish ~attrs:[ ("outcome", "unknown_job") ] sp;
          failwith "unknown job"
      | Some spec ->
          let port = t.next_port in
          t.next_port <- t.next_port + 1;
          let env = fresh_env t spec ~port in
          let inst =
            { inst_job = job; inst_env = env; inst_started = false; inst_nodes = []; inst_position = 0 }
          in
          t.insts <- inst :: t.insts;
          refresh_host_model t;
          if !Obs.enabled then Obs.finish ~attrs:[ ("port", string_of_int port) ] sp;
          Codec.Int port)
  | _ -> failwith "register: bad arguments"

let handle_list t args =
  Obs.incr c_list;
  match args with
  | [ port_v; position_v; nodes_v ] -> (
      let port = Codec.to_int port_v in
      match find_inst t port with
      | None -> failwith "list: no such instance"
      | Some inst ->
          inst.inst_env.Env.position <- Codec.to_int position_v;
          inst.inst_nodes <- Wire.addrs_of_value nodes_v;
          Codec.Null)
  | _ -> failwith "list: bad arguments"

let handle_start t args =
  Obs.incr c_start;
  match args with
  | [ job_v; port_v ] -> (
      let job = Codec.to_int job_v and port = Codec.to_int port_v in
      match (t.lookup_job job, find_inst t port) with
      | Some spec, Some inst when (not inst.inst_started) && inst.inst_job = job ->
          inst.inst_started <- true;
          inst.inst_env.Env.nodes <- inst.inst_nodes;
          ignore
            (Env.thread inst.inst_env ~name:(Printf.sprintf "%s@%d" spec.js_name t.d_host)
               (fun () -> spec.js_main inst.inst_env));
          Codec.Null
      | _, None -> failwith "start: no such instance"
      | _ -> failwith "start: bad state")
  | _ -> failwith "start: bad arguments"

(* STOP: terminate the application but keep the registration — the job goes
   back to the "selected" state of the paper's state machine and can be
   STARTed again. *)
let handle_stop t args =
  Obs.incr c_stop;
  match args with
  | [ port_v ] -> (
      let port = Codec.to_int port_v in
      match find_inst t port with
      | None -> failwith "stop: no such instance"
      | Some inst -> (
          match t.lookup_job inst.inst_job with
          | None -> failwith "stop: unknown job"
          | Some spec ->
              Env.stop inst.inst_env;
              let env = fresh_env t spec ~port in
              env.Env.position <- inst.inst_env.Env.position;
              inst.inst_env <- env;
              inst.inst_started <- false;
              refresh_host_model t;
              Codec.Null))
  | _ -> failwith "stop: bad arguments"

let handle_free t args =
  Obs.incr c_free;
  match args with
  | [ port_v ] ->
      let port = Codec.to_int port_v in
      (match find_inst t port with Some inst -> remove_instance t inst | None -> ());
      Codec.Null
  | _ -> failwith "free: bad arguments"

let start net ~host ~controller ?(config = splay_config) ~lookup_job () =
  let d_env = Env.create net ~me:(Addr.make host 1) in
  let t =
    {
      d_host = host;
      net;
      d_env;
      cfg = config;
      controller;
      lookup_job;
      insts = [];
      next_port = 2000;
      banned = [];
    }
  in
  Rpc.server d_env
    [
      ( proc_probe,
        fun _ ->
          service_pause t;
          Codec.Null );
      (proc_register, handle_register t);
      (proc_list, handle_list t);
      (proc_start, handle_start t);
      (proc_free, handle_free t);
      (proc_stop, handle_stop t);
      ( "splayd.blacklist",
        fun args ->
          (match args with
          | [ h ] ->
              let h = Codec.to_int h in
              if not (List.mem h t.banned) then t.banned <- h :: t.banned;
              List.iter (fun i -> Sandbox.blacklist i.inst_env.Env.sandbox h) t.insts
          | _ -> failwith "blacklist: bad arguments");
          Codec.Null );
    ];
  (* session keep-alive towards the controller *)
  ignore
    (Env.periodic d_env t.cfg.heartbeat_interval (fun () ->
         ignore
           (Rpc.a_call d_env t.controller ~timeout:30.0 "ctl.heartbeat"
              [ Codec.Int t.d_host ])));
  t

let instance_started i = i.inst_started

let shutdown t =
  List.iter (fun i -> Env.stop i.inst_env) t.insts;
  t.insts <- [];
  refresh_host_model t;
  Env.stop t.d_env
