(* Integration tests for the overlay applications, each running on a real
   deployment through the controller. *)

open Splay_sim
open Splay_net
open Splay_runtime
open Splay_ctl
module Apps = Splay_apps

let with_platform ?(hosts = 10) ?(seed = 31) ?(until = 36000.0) f =
  let eng = Engine.create ~seed () in
  let tb0 = Testbed.cluster ~n:hosts (Engine.rng eng) in
  let tb, ctl_host = Testbed.with_extra_host tb0 in
  let net = Net.create eng tb in
  let ctl = Controller.create net ~host:ctl_host in
  let daemons = Controller.boot_daemons ctl (List.init hosts Fun.id) in
  ignore
    (Env.thread (Controller.env ctl) (fun () ->
         Fun.protect
           ~finally:(fun () ->
             (* tear the platform down so the event queue drains *)
             List.iter Daemon.shutdown daemons;
             (* defer: stopping the controller env from inside this very
                process would self-kill through the finally *)
             ignore (Engine.schedule eng ~delay:0.0 (fun () -> Env.stop (Controller.env ctl))))
           (fun () -> f eng net ctl)));
  ignore (Engine.run ~until eng);
  match Engine.crashed eng with
  | [] -> ()
  | (p, e) :: _ ->
      Alcotest.failf "process %s crashed: %s" (Engine.proc_name p) (Printexc.to_string e)

(* The node with the smallest id >= key (cyclically) among [ids] — ground
   truth for "who is responsible for key". *)
let expected_responsible ids key ~modulus =
  let ids = List.sort_uniq Int.compare ids in
  let after = List.filter (fun i -> i >= key) ids in
  match (after, ids) with
  | i :: _, _ -> i
  | [], i :: _ -> i
  | [], [] -> invalid_arg "no ids"
  |> fun i -> i mod modulus

(* {2 Chord (base)} *)

let deploy_chord ctl ~n ~config =
  let nodes = ref [] in
  let dep =
    Controller.deploy ctl ~name:"chord"
      ~main:(Apps.Chord.app ~config ~register:(fun c -> nodes := c :: !nodes))
      (Descriptor.make ~bootstrap:(Descriptor.Head 1) n)
  in
  (dep, nodes)

let chord_test_config =
  { Apps.Chord.default_config with m = 16; stabilize_interval = 2.0; join_delay_per_position = 0.5 }

let test_chord_ring_converges () =
  with_platform (fun _ _ ctl ->
      let n = 20 in
      let _dep, nodes = deploy_chord ctl ~n ~config:chord_test_config in
      (* staggered joins: n*0.5s, then several stabilization rounds *)
      Env.sleep (Float.of_int n *. 0.5 +. 120.0);
      Alcotest.(check int) "all instances registered" n (List.length !nodes);
      let ring = Apps.Chord.ring_of !nodes in
      Alcotest.(check int) "ring visits every node once" n (List.length ring);
      (* every node has a predecessor after convergence *)
      List.iter
        (fun c ->
          Alcotest.(check bool) "has predecessor" true (Apps.Chord.predecessor c <> None))
        !nodes)

let test_chord_lookup_correct () =
  with_platform (fun _ _ ctl ->
      let n = 16 in
      let _dep, nodes = deploy_chord ctl ~n ~config:chord_test_config in
      Env.sleep (Float.of_int n *. 0.5 +. 150.0);
      let ids = List.map Apps.Chord.id !nodes in
      let rng = Rng.create 99 in
      let origin = List.hd !nodes in
      for _ = 1 to 50 do
        let key = Rng.int rng (1 lsl 16) in
        match Apps.Chord.lookup origin key with
        | Some (resp, hops) ->
            Alcotest.(check int)
              (Printf.sprintf "responsible for %d" key)
              (expected_responsible ids key ~modulus:(1 lsl 16))
              resp.Apps.Node.id;
            Alcotest.(check bool) "hops bounded" true (hops <= n)
        | None -> Alcotest.fail "lookup failed on a stable ring"
      done)

let test_chord_hops_logarithmic () =
  with_platform ~hosts:16 (fun _ _ ctl ->
      let n = 48 in
      let _dep, nodes = deploy_chord ctl ~n ~config:chord_test_config in
      (* long enough for fingers to populate: m=16 fingers, one per 2s round *)
      Env.sleep (Float.of_int n *. 0.5 +. 2.0 *. 16.0 *. 3.0 +. 60.0);
      let rng = Rng.create 7 in
      let total_hops = ref 0 and count = ref 0 in
      List.iteri
        (fun i origin ->
          if i < 12 then
            for _ = 1 to 10 do
              match Apps.Chord.lookup origin (Rng.int rng (1 lsl 16)) with
              | Some (_, hops) ->
                  total_hops := !total_hops + hops;
                  incr count
              | None -> Alcotest.fail "lookup failed"
            done)
        !nodes;
      let avg = Float.of_int !total_hops /. Float.of_int !count in
      (* paper: average below (log2 N)/2 = 2.79 for N=48 *)
      Alcotest.(check bool)
        (Printf.sprintf "avg hops %.2f below log2(N)" avg)
        true
        (avg < log (Float.of_int n) /. log 2.0))

let test_chord_fingers_exact () =
  with_platform (fun _ _ ctl ->
      let n = 16 in
      let _dep, nodes = deploy_chord ctl ~n ~config:chord_test_config in
      (* several full finger sweeps on a stable ring: m=16 fingers, one
         refresh per 2 s round *)
      Env.sleep ((Float.of_int n *. 0.5) +. (2.0 *. 16.0 *. 3.0) +. 60.0);
      let ids = List.map Apps.Chord.id !nodes in
      let modulus = 1 lsl 16 in
      let exact = ref 0 and total = ref 0 in
      List.iter
        (fun c ->
          Array.iteri
            (fun i f ->
              match f with
              | Some node ->
                  incr total;
                  let target = (Apps.Chord.id c + (1 lsl i)) mod modulus in
                  if node.Apps.Node.id = expected_responsible ids target ~modulus then incr exact
              | None -> ())
            (Apps.Chord.fingers c))
        !nodes;
      (* the finger invariant: finger[i] = successor(n + 2^(i-1)) *)
      Alcotest.(check bool)
        (Printf.sprintf "fingers exact after sweeps (%d/%d)" !exact !total)
        true
        (Float.of_int !exact /. Float.of_int !total > 0.98))

(* Warm start: a ring built by [assemble] must route exactly like a
   converged joined ring, with no periodics and no join traffic. *)
let test_chord_assemble_routes_correctly () =
  let n = 500 in
  let config = { Apps.Chord.default_config with m = 16 } in
  let md = 1 lsl 16 in
  let eng = Engine.create ~seed:77 () in
  let tb = Testbed.synthetic ~hosts:n (Engine.rng eng) in
  let net = Net.create eng tb in
  let spacing = md / n in
  let ring =
    Array.init n (fun i -> Apps.Node.make ~id:(i * spacing) ~addr:(Addr.make i 9000))
  in
  let nodes = Array.make n None in
  for i = 0 to n - 1 do
    let env = Env.create net ~me:ring.(i).Apps.Node.addr in
    Apps.Chord.assemble ~config ~ring ~index:i ~register:(fun c -> nodes.(i) <- Some c) env
  done;
  let ids = Array.to_list (Array.map (fun nd -> nd.Apps.Node.id) ring) in
  let rng = Rng.create 5 in
  let checked = ref 0 in
  ignore
    (Env.thread
       (match nodes.(0) with
       | Some c -> Apps.Chord.node_env c
       | None -> assert false)
       ~name:"assemble-lookups"
       (fun () ->
         for _ = 1 to 100 do
           let key = Rng.int rng md in
           let origin = match nodes.(Rng.int rng n) with Some c -> c | None -> assert false in
           match Apps.Chord.lookup origin key with
           | Some (owner, hops) ->
               incr checked;
               Alcotest.(check int) "routes to the responsible node"
                 (expected_responsible ids key ~modulus:md)
                 owner.Apps.Node.id;
               Alcotest.(check bool) "hop count is logarithmic-ish" true (hops <= 2 * 16)
           | None -> Alcotest.fail "lookup failed on a failure-free assembled ring"
         done));
  ignore (Engine.run ~until:3600.0 eng);
  Alcotest.(check int) "all lookups ran" 100 !checked;
  (* structural spot checks: neighbours and first finger agree with the ring *)
  (match nodes.(3) with
  | Some c ->
      Alcotest.(check (option int)) "successor is the next ring entry"
        (Some ring.(4).Apps.Node.id)
        (Option.map (fun nd -> nd.Apps.Node.id) (Apps.Chord.successor c));
      Alcotest.(check (option int)) "predecessor is the previous ring entry"
        (Some ring.(2).Apps.Node.id)
        (Option.map (fun nd -> nd.Apps.Node.id) (Apps.Chord.predecessor c))
  | None -> Alcotest.fail "node 3 not registered");
  (* a joined ring keeps 3 periodics per node alive forever; an assembled
     ring's queue must drain completely once the lookups finish *)
  Alcotest.(check int) "assemble started no periodic processes" 0 (Engine.pending_events eng)

(* {2 Chord (fault-tolerant)} *)

let deploy_chord_ft ctl ~n ~config =
  let nodes = ref [] in
  let dep =
    Controller.deploy ctl ~name:"chord-ft"
      ~main:(Apps.Chord_ft.app ~config ~register:(fun c -> nodes := c :: !nodes))
      (Descriptor.make ~bootstrap:(Descriptor.Head 1) n)
  in
  (dep, nodes)

let chord_ft_test_config =
  {
    Apps.Chord_ft.default_config with
    m = 16;
    stabilize_interval = 2.0;
    join_delay_per_position = 0.5;
    rpc_timeout = 5.0;
  }

let test_chord_ft_converges_and_replicates () =
  with_platform (fun _ _ ctl ->
      let n = 16 in
      let _dep, nodes = deploy_chord_ft ctl ~n ~config:chord_ft_test_config in
      Env.sleep (Float.of_int n *. 0.5 +. 120.0);
      List.iter
        (fun c ->
          Alcotest.(check bool) "has a full leafset" true
            (List.length (Apps.Chord_ft.successors c) >= 4))
        !nodes)

let test_chord_ft_survives_failures () =
  with_platform (fun _ _ ctl ->
      let n = 20 in
      let dep, nodes = deploy_chord_ft ctl ~n ~config:chord_ft_test_config in
      Env.sleep (Float.of_int n *. 0.5 +. 120.0);
      (* crash a third of the network *)
      let members = Controller.live_members dep in
      List.iteri (fun i (_, a, _) -> if i mod 3 = 0 then Controller.crash_node dep a) members;
      (* let the suspicion/pruning machinery converge *)
      Env.sleep 180.0;
      let live = List.filter (fun c -> not (Apps.Chord_ft.is_stopped c)) !nodes in
      Alcotest.(check bool) "some nodes survived" true (List.length live >= 10);
      let live_ids = List.map Apps.Chord_ft.id live in
      let rng = Rng.create 5 in
      let failures = ref 0 and wrong = ref 0 in
      let origin = List.hd live in
      for _ = 1 to 40 do
        let key = Rng.int rng (1 lsl 16) in
        match Apps.Chord_ft.lookup origin key with
        | Some (resp, _) ->
            if resp.Apps.Node.id <> expected_responsible live_ids key ~modulus:(1 lsl 16) then
              incr wrong
        | None -> incr failures
      done;
      Alcotest.(check int) "no failed lookups after recovery" 0 !failures;
      Alcotest.(check bool) (Printf.sprintf "few wrong owners (%d/40)" !wrong) true (!wrong <= 2);
      (* the pruning machinery actually fired *)
      let total_suspected =
        List.fold_left (fun acc c -> acc + Apps.Chord_ft.suspected_count c) 0 live
      in
      Alcotest.(check bool) "suspects pruned" true (total_suspected > 0))

(* {2 Pastry} *)

let pastry_test_config =
  {
    Apps.Pastry.default_config with
    bits = 16;
    stabilize_interval = 2.0;
    rpc_timeout = 5.0;
    join_delay_per_position = 0.3;
  }

let deploy_pastry ?(config = pastry_test_config) ctl ~n =
  let nodes = ref [] in
  let dep =
    Controller.deploy ctl ~name:"pastry"
      ~main:(Apps.Pastry.app ~config ~register:(fun c -> nodes := c :: !nodes))
      (Descriptor.make ~bootstrap:(Descriptor.Head 1) n)
  in
  (dep, nodes)

(* Pastry's owner is the numerically closest id on the ring. *)
let pastry_owner ids key ~modulus =
  let d a b =
    let cw = (b - a + modulus) mod modulus in
    min cw (modulus - cw)
  in
  List.fold_left (fun best i -> if d i key < d best key then i else best) (List.hd ids) ids

let test_pastry_converges () =
  with_platform (fun _ _ ctl ->
      let n = 25 in
      let _dep, nodes = deploy_pastry ctl ~n in
      Env.sleep (Float.of_int n *. 0.3 +. 120.0);
      Alcotest.(check int) "all registered" n (List.length !nodes);
      List.iter
        (fun p ->
          Alcotest.(check bool) "leafset populated" true (List.length (Apps.Pastry.leafset p) >= 8);
          Alcotest.(check bool) "routing table populated" true
            (List.length (Apps.Pastry.table_entries p) >= 2))
        !nodes)

let test_pastry_lookup_correct () =
  with_platform (fun _ _ ctl ->
      let n = 20 in
      let _dep, nodes = deploy_pastry ctl ~n in
      Env.sleep (Float.of_int n *. 0.3 +. 120.0);
      let ids = List.map Apps.Pastry.id !nodes in
      let rng = Rng.create 13 in
      List.iteri
        (fun i origin ->
          if i < 5 then
            for _ = 1 to 20 do
              let key = Rng.int rng (1 lsl 16) in
              match Apps.Pastry.lookup origin key with
              | Some (owner, hops) ->
                  Alcotest.(check int)
                    (Printf.sprintf "owner of %d" key)
                    (pastry_owner ids key ~modulus:(1 lsl 16))
                    owner.Apps.Node.id;
                  Alcotest.(check bool) "hops small" true (hops <= 8)
              | None -> Alcotest.fail "lookup failed on stable overlay"
            done)
        !nodes)

let test_pastry_survives_churn () =
  with_platform (fun _ _ ctl ->
      let n = 24 in
      let dep, nodes = deploy_pastry ctl ~n in
      Env.sleep (Float.of_int n *. 0.3 +. 120.0);
      let members = Controller.live_members dep in
      List.iteri (fun i (_, a, _) -> if i mod 4 = 0 then Controller.crash_node dep a) members;
      Env.sleep 120.0;
      let live = List.filter (fun p -> not (Apps.Pastry.is_stopped p)) !nodes in
      let live_ids = List.map Apps.Pastry.id live in
      let rng = Rng.create 17 in
      let failures = ref 0 and wrong = ref 0 and total = 40 in
      let origin = List.hd live in
      for _ = 1 to total do
        let key = Rng.int rng (1 lsl 16) in
        match Apps.Pastry.lookup origin key with
        | Some (owner, _) ->
            if owner.Apps.Node.id <> pastry_owner live_ids key ~modulus:(1 lsl 16) then incr wrong
        | None -> incr failures
      done;
      (* Fig. 10 shows recovery takes minutes; a small residual right after
         repair is the expected regime, a large one is a routing bug *)
      Alcotest.(check bool) (Printf.sprintf "few failures after repair (%d/40)" !failures) true
        (!failures <= 2);
      Alcotest.(check bool) (Printf.sprintf "few wrong owners (%d)" !wrong) true (!wrong <= 2))

let test_pastry_proximity_prefers_close_entries () =
  (* on a testbed with distance structure, proximity-aware tables should
     pick lower-RTT entries than proximity-blind ones *)
  let run proximity =
    let avg = ref 0.0 in
    let eng = Engine.create ~seed:77 () in
    let tb0 = Testbed.planetlab ~n:40 (Engine.rng eng) in
    let tb, ctl_host = Testbed.with_extra_host tb0 in
    let net = Net.create eng tb in
    let ctl = Controller.create net ~host:ctl_host in
    let daemons = Controller.boot_daemons ctl (List.init 40 Fun.id) in
    ignore
      (Env.thread (Controller.env ctl) (fun () ->
           Fun.protect
             ~finally:(fun () ->
               List.iter Daemon.shutdown daemons;
               ignore (Engine.schedule eng ~delay:0.0 (fun () -> Env.stop (Controller.env ctl))))
             (fun () ->
               let nodes = ref [] in
               let config = { pastry_test_config with proximity } in
               ignore
                 (Controller.deploy ctl ~name:"pastry"
                    ~main:(Apps.Pastry.app ~config ~register:(fun c -> nodes := c :: !nodes))
                    (Descriptor.make ~bootstrap:(Descriptor.Head 1) 40));
               Env.sleep 180.0;
               let total = ref 0.0 and count = ref 0 in
               List.iter
                 (fun p ->
                   List.iter
                     (fun e ->
                       total :=
                         !total
                         +. Net.base_rtt net (Apps.Pastry.addr p).Addr.host
                              e.Apps.Node.addr.Addr.host;
                       incr count)
                     (Apps.Pastry.table_entries p))
                 !nodes;
               avg := !total /. Float.of_int (max 1 !count))));
    ignore (Engine.run ~until:36000.0 eng);
    !avg
  in
  let with_prox = run true and without = run false in
  Alcotest.(check bool)
    (Printf.sprintf "proximity lowers entry RTT (%.4f < %.4f)" with_prox without)
    true (with_prox < without)

(* Warm start: an overlay built by [Pastry.assemble] must route every key
   to the numerically closest id, with no periodics and no join traffic
   — the same contract the chord assemble test pins. *)
let test_pastry_assemble_routes_correctly () =
  let n = 500 in
  let config = { Apps.Pastry.default_config with bits = 16 } in
  let md = 1 lsl 16 in
  let eng = Engine.create ~seed:77 () in
  let tb = Testbed.synthetic ~hosts:n (Engine.rng eng) in
  let net = Net.create eng tb in
  (* odd spacing: no key is ever exactly equidistant from two ids, so the
     expected owner is unique *)
  let spacing = md / n in
  let ring =
    Array.init n (fun i -> Apps.Node.make ~id:(i * spacing) ~addr:(Addr.make i 9000))
  in
  let nodes = Array.make n None in
  for i = 0 to n - 1 do
    let env = Env.create net ~me:ring.(i).Apps.Node.addr in
    Apps.Pastry.assemble ~config ~ring ~index:i ~register:(fun p -> nodes.(i) <- Some p) env
  done;
  let ids = Array.to_list (Array.map (fun nd -> nd.Apps.Node.id) ring) in
  let rng = Rng.create 5 in
  let checked = ref 0 in
  ignore
    (Env.thread
       (match nodes.(0) with
       | Some p -> Apps.Pastry.node_env p
       | None -> assert false)
       ~name:"assemble-lookups"
       (fun () ->
         for _ = 1 to 100 do
           let key = Rng.int rng md in
           let origin = match nodes.(Rng.int rng n) with Some p -> p | None -> assert false in
           match Apps.Pastry.lookup origin key with
           | Some (owner, hops) ->
               incr checked;
               Alcotest.(check int) "routes to the numerically closest node"
                 (pastry_owner ids key ~modulus:md)
                 owner.Apps.Node.id;
               Alcotest.(check bool) "hop count bounded by table depth" true
                 (hops <= 2 * Apps.Pastry.digits config)
           | None -> Alcotest.fail "lookup failed on a failure-free assembled overlay"
         done));
  ignore (Engine.run ~until:3600.0 eng);
  Alcotest.(check int) "all lookups ran" 100 !checked;
  (match nodes.(3) with
  | Some p ->
      Alcotest.(check int) "leafset is the nearest ring neighbours"
        config.Apps.Pastry.leaf_size
        (List.length (Apps.Pastry.leafset p));
      Alcotest.(check bool) "routing table populated" true
        (List.length (Apps.Pastry.table_entries p) >= Apps.Pastry.digits config)
  | None -> Alcotest.fail "node 3 not registered");
  (* assembled overlays start no maintenance: the queue must drain *)
  Alcotest.(check int) "assemble started no periodic processes" 0 (Engine.pending_events eng)

(* {2 Pastry hot-path kernels against their reference definitions} *)

(* A small id space, so distance ties and nodes sitting in both leafset
   halves are common. *)
let kernel_config = { Apps.Pastry.default_config with bits = 8 }

let kernel_modulus = 1 lsl kernel_config.Apps.Pastry.bits

(* One id, one node: a repeated id is the same peer learned again. *)
let kernel_node id = Apps.Node.make ~id ~addr:(Addr.make (id mod 64) (1000 + id))

(* A lone assembled node (empty leafset), to be fed with [learn]. *)
let lone_pastry self_id =
  let eng = Engine.create ~seed:3 () in
  let net = Net.create eng (Testbed.synthetic ~hosts:64 (Engine.rng eng)) in
  let self = kernel_node self_id in
  let node = ref None in
  Apps.Pastry.assemble ~config:kernel_config ~ring:[| self |] ~index:0
    ~register:(fun p -> node := Some p)
    (Env.create net ~me:self.Apps.Node.addr);
  Option.get !node

let ring_dist a b = Misc.ring_distance a b ~modulus:kernel_modulus

(* Reference leafset insert: put the node in, stable sort by distance,
   keep the nearest [half]. *)
let ref_insert ~d ~half n lst =
  if List.exists (Apps.Node.equal n) lst then lst
  else
    List.sort (fun a b -> Int.compare (d a.Apps.Node.id) (d b.Apps.Node.id)) (n :: lst)
    |> Misc.take half

(* Reference replica set: self, then the leafset sorted and deduplicated
   by (distance, id) under polymorphic compare, cut to [k - 1]. *)
let ref_replica_set self leafset key ~k =
  let dist i = Int.min (ring_dist i key) (ring_dist key i) in
  let d n = (dist n.Apps.Node.id, n.Apps.Node.id) in
  self :: Misc.take (k - 1) (List.sort_uniq (fun a b -> compare (d a) (d b)) leafset)

let prop_pastry_learn_and_replica_set =
  QCheck.Test.make ~name:"learn = sort + take half; replica_set = sort_uniq + take" ~count:300
    QCheck.(
      triple (int_bound (kernel_modulus - 1))
        (list_of_size Gen.(0 -- 40) (int_bound (kernel_modulus - 1)))
        (* k past the leafset size, up to max_int, as a peer's p.route may send *)
        (oneof [ int_range 1 9; int_range 17 40; always max_int ]))
    (fun (self_id, ids, k) ->
      let p = lone_pastry self_id in
      let half = kernel_config.Apps.Pastry.leaf_size / 2 in
      let left = ref [] and right = ref [] in
      let leafset_ok =
        List.for_all
          (fun id ->
            let n = kernel_node id in
            Apps.Pastry.learn p n;
            if id <> self_id then begin
              right := ref_insert ~d:(fun i -> ring_dist self_id i) ~half n !right;
              left := ref_insert ~d:(fun i -> ring_dist i self_id) ~half n !left
            end;
            List.equal Apps.Node.equal (Apps.Pastry.leafset p) (!left @ !right))
          ids
      in
      leafset_ok
      && List.for_all
           (fun key ->
             List.equal Apps.Node.equal
               (Apps.Pastry.replica_set p key ~k)
               (ref_replica_set (kernel_node self_id) (!left @ !right) key ~k))
           (List.init kernel_modulus Fun.id))

let prop_node_value_roundtrip =
  QCheck.Test.make ~name:"Node.of_value (to_value n) = n, also through the wire" ~count:1000
    QCheck.(triple int (oneof [ small_nat; pos_int ]) (oneof [ small_nat; pos_int ]))
    (fun (id, host, port) ->
      let n = Apps.Node.make ~id ~addr:(Addr.make host port) in
      Apps.Node.equal n (Apps.Node.of_value (Apps.Node.to_value n))
      && Apps.Node.equal n (Apps.Node.of_value (Codec.decode (Codec.encode (Apps.Node.to_value n)))))

(* Node addresses arrive from other processes on the live backend: only
   "digits:digits" may become an address. *)
let test_node_of_value_addresses () =
  let parse a = Apps.Node.of_value (Codec.Assoc [ ("id", Codec.Int 7); ("a", Codec.String a) ]) in
  List.iter
    (fun (a, host, port) ->
      let n = parse a in
      Alcotest.(check (pair int int)) a (host, port) (n.Apps.Node.addr.Addr.host, n.Apps.Node.addr.Addr.port))
    [ ("0:0", 0, 0); ("12:9000", 12, 9000); ("007:010", 7, 10) ];
  List.iter
    (fun a ->
      match parse a with
      | exception Codec.Parse_error _ -> ()
      | _ -> Alcotest.failf "%S accepted as a node address" a)
    [
      "-3:9000"; "3:-9000"; "0x10:1"; "+5:1"; "1_0:2"; ""; ":"; "1:"; ":1"; "1:2:3"; " 1:2"; "1 :2";
      "1:2 "; "12"; "99999999999999999999:1"; "1:99999999999999999999";
    ]

(* {2 Cyclon} *)

let test_cyclon_mixes () =
  with_platform (fun _ _ ctl ->
      let n = 30 in
      let nodes = ref [] in
      let config = { Apps.Cyclon.default_config with period = 2.0; cache_size = 8; shuffle_length = 4 } in
      ignore
        (Controller.deploy ctl ~name:"cyclon"
           ~main:(Apps.Cyclon.app ~config ~register:(fun c -> nodes := c :: !nodes))
           (Descriptor.make ~bootstrap:(Descriptor.Head 1) n));
      Env.sleep 120.0;
      Alcotest.(check int) "all registered" n (List.length !nodes);
      List.iter
        (fun c ->
          Alcotest.(check bool) "shuffled" true (Apps.Cyclon.shuffles_done c > 5);
          let nb = Apps.Cyclon.neighbors c in
          Alcotest.(check bool) "cache bounded" true (List.length nb <= 8);
          Alcotest.(check bool) "cache non-trivial" true (List.length nb >= 4);
          List.iter
            (fun x ->
              Alcotest.(check bool) "no self-loop" false
                (Addr.equal x.Apps.Node.addr (Apps.Cyclon.self c).Apps.Node.addr))
            nb)
        !nodes;
      (* the union graph is connected: BFS over undirected edges *)
      let addr_key a = Addr.to_string a in
      let adj = Hashtbl.create 64 in
      let add_edge a b =
        let add x y =
          let l = Option.value ~default:[] (Hashtbl.find_opt adj x) in
          if not (List.mem y l) then Hashtbl.replace adj x (y :: l)
        in
        add a b;
        add b a
      in
      List.iter
        (fun c ->
          let me = addr_key (Apps.Cyclon.self c).Apps.Node.addr in
          List.iter (fun x -> add_edge me (addr_key x.Apps.Node.addr)) (Apps.Cyclon.neighbors c))
        !nodes;
      let visited = Hashtbl.create 64 in
      let rec bfs = function
        | [] -> ()
        | x :: rest ->
            if Hashtbl.mem visited x then bfs rest
            else begin
              Hashtbl.replace visited x ();
              bfs (Option.value ~default:[] (Hashtbl.find_opt adj x) @ rest)
            end
      in
      bfs [ addr_key (Apps.Cyclon.self (List.hd !nodes)).Apps.Node.addr ];
      Alcotest.(check int) "overlay connected" n (Hashtbl.length visited))

(* {2 Epidemic} *)

let test_epidemic_coverage () =
  with_platform (fun _ _ ctl ->
      let n = 40 in
      let nodes = ref [] in
      ignore
        (Controller.deploy ctl ~name:"epidemic"
           ~main:
             (Apps.Epidemic.app
                ~config:{ Apps.Epidemic.fanout = 6; rpc_timeout = 5.0; oneway = false }
                ~register:(fun c -> nodes := c :: !nodes))
           (Descriptor.make ~bootstrap:(Descriptor.Random_subset 12) n));
      Env.sleep 5.0;
      Apps.Epidemic.broadcast (List.hd !nodes) "rumor-1";
      Env.sleep 30.0;
      let covered =
        List.length (List.filter (fun c -> Apps.Epidemic.has_received c "rumor-1") !nodes)
      in
      Alcotest.(check bool)
        (Printf.sprintf "epidemic covers nearly everyone (%d/%d)" covered n)
        true
        (covered >= n - 2);
      (* duplicate rumors are not re-forwarded *)
      Apps.Epidemic.broadcast (List.hd !nodes) "rumor-1";
      Env.sleep 10.0;
      List.iter
        (fun c ->
          Alcotest.(check int) "no duplicate delivery" 1
            (List.length (List.filter (String.equal "rumor-1") (Apps.Epidemic.received c))))
        !nodes)

(* One-way mode: same coverage as the RPC path, but every forward is a
   single notify — no reply traffic, no parked caller fiber per target. *)
let test_epidemic_oneway_coverage () =
  let n = 300 in
  let eng = Engine.create ~seed:91 () in
  let tb = Testbed.synthetic ~hosts:n (Engine.rng eng) in
  let net = Net.create eng tb in
  let addrs = Array.init n (fun i -> Addr.make i 9000) in
  let config = { Apps.Epidemic.fanout = 6; rpc_timeout = 5.0; oneway = true } in
  let nodes = Array.make n None in
  let env0 = ref None in
  for i = 0 to n - 1 do
    (* ring + three long chords: connected, sparse, fixed degree *)
    let peers = List.map (fun s -> addrs.((i + s) mod n)) [ 1; 7; 29; 113 ] in
    let env = Env.create net ~me:addrs.(i) ~nodes:peers in
    if i = 0 then env0 := Some env;
    Apps.Epidemic.app ~config ~register:(fun x -> nodes.(i) <- Some x) env
  done;
  (match (nodes.(0), !env0) with
  | Some origin, Some env ->
      ignore
        (Env.thread env ~name:"rumor-origin" (fun () ->
             Apps.Epidemic.broadcast origin "one-way"))
  | _ -> Alcotest.fail "origin not registered");
  ignore (Engine.run eng);
  let covered =
    Array.fold_left
      (fun acc nd ->
        match nd with
        | Some x when Apps.Epidemic.has_received x "one-way" -> acc + 1
        | _ -> acc)
      0 nodes
  in
  Alcotest.(check bool)
    (Printf.sprintf "one-way flood covers nearly everyone (%d/%d)" covered n)
    true
    (covered >= n - 3);
  (* fire-and-forget really is one-way: every message is a request, so the
     delivered count can't exceed nodes * fanout (no reply packets) *)
  let delivered = Net.messages_sent net - Net.messages_dropped net in
  Alcotest.(check bool)
    (Printf.sprintf "no reply traffic (%d msgs <= %d)" delivered (n * config.fanout))
    true
    (delivered <= n * config.fanout)

(* {2 Distribution trees} *)

let test_trees_structure_and_completion () =
  with_platform (fun _ _ ctl ->
      let n = 15 in
      let nodes = ref [] in
      let config =
        { Apps.Trees.default_config with block_size = 64 * 1024; start_delay = 5.0 }
      in
      ignore
        (Controller.deploy ctl ~name:"trees"
           ~main:
             (Apps.Trees.app ~config ~file_size:(1024 * 1024)
                ~register:(fun c -> nodes := c :: !nodes))
           (Descriptor.make ~bootstrap:Descriptor.All n));
      Env.sleep 60.0;
      Alcotest.(check int) "all registered" n (List.length !nodes);
      (* every non-source node appears exactly once as a child in each tree *)
      for tree = 0 to 1 do
        let child_count = Hashtbl.create 32 in
        List.iter
          (fun t ->
            List.iter
              (fun a ->
                let k = Addr.to_string a in
                Hashtbl.replace child_count k (1 + Option.value ~default:0 (Hashtbl.find_opt child_count k)))
              (Apps.Trees.children t ~tree))
          !nodes;
        Alcotest.(check int)
          (Printf.sprintf "tree %d spans all non-source nodes" tree)
          (n - 1) (Hashtbl.length child_count);
        Hashtbl.iter
          (fun _ c -> Alcotest.(check int) "each node has one parent" 1 c)
          child_count
      done;
      (* everyone finished and the source finished first *)
      List.iter
        (fun t ->
          Alcotest.(check int) "all blocks" (Apps.Trees.total_blocks t) (Apps.Trees.blocks_received t);
          Alcotest.(check bool) "completed" true (Apps.Trees.completion_time t <> None))
        !nodes;
      let source = List.find Apps.Trees.is_source !nodes in
      let t_source = Option.get (Apps.Trees.completion_time source) in
      List.iter
        (fun t ->
          if not (Apps.Trees.is_source t) then
            Alcotest.(check bool) "receivers complete after source" true
              (Option.get (Apps.Trees.completion_time t) >= t_source))
        !nodes)

(* {2 Scribe} *)

let scribe_platform n f =
  with_platform (fun eng net ctl ->
      let pastries = ref [] in
      let scribes = ref [] in
      let main env =
        Apps.Pastry.app ~config:pastry_test_config
          ~register:(fun p ->
            pastries := p :: !pastries;
            scribes := Apps.Scribe.create p :: !scribes)
          env
      in
      ignore
        (Controller.deploy ctl ~name:"scribe" ~main
           (Descriptor.make ~bootstrap:(Descriptor.Head 1) n));
      Env.sleep (Float.of_int n *. 0.3 +. 120.0);
      f eng net ctl !scribes)

let test_scribe_pubsub () =
  scribe_platform 20 (fun _ _ _ scribes ->
      let topic = Apps.Scribe.topic_of_name (List.hd scribes) "news" in
      let subscribers = List.filteri (fun i _ -> i < 10) scribes in
      List.iter (fun s -> Apps.Scribe.subscribe s ~topic) subscribers;
      Env.sleep 10.0;
      let publisher = List.nth scribes 15 in
      Apps.Scribe.publish publisher ~topic ~payload:"hello-world";
      Env.sleep 20.0;
      List.iteri
        (fun i s ->
          let got = List.exists (fun (t, p) -> t = topic && p = "hello-world") (Apps.Scribe.delivered s) in
          if i < 10 then
            Alcotest.(check bool) (Printf.sprintf "subscriber %d delivered" i) true got
          else
            Alcotest.(check bool) (Printf.sprintf "non-subscriber %d silent" i) false got)
        scribes)

let test_scribe_callback_and_unsubscribe () =
  scribe_platform 12 (fun _ _ _ scribes ->
      let topic = Apps.Scribe.topic_of_name (List.hd scribes) "feed" in
      let s = List.nth scribes 3 in
      let got = ref [] in
      Apps.Scribe.on_deliver s (fun ~topic:_ ~payload -> got := payload :: !got);
      Apps.Scribe.subscribe s ~topic;
      Env.sleep 5.0;
      Apps.Scribe.publish (List.nth scribes 7) ~topic ~payload:"a";
      Env.sleep 10.0;
      Apps.Scribe.unsubscribe s ~topic;
      Apps.Scribe.publish (List.nth scribes 7) ~topic ~payload:"b";
      Env.sleep 10.0;
      Alcotest.(check (list string)) "only pre-unsubscribe events" [ "a" ] !got)

(* {2 SplitStream} *)

let test_splitstream_delivers_content () =
  with_platform (fun _ _ ctl ->
      let n = 16 in
      let streams = ref [] in
      let main env =
        Apps.Pastry.app
          ~config:{ pastry_test_config with bits = 32 }
          ~register:(fun p ->
            let sc = Apps.Scribe.create p in
            streams := Apps.Splitstream.create sc ~stripes:4 ~name:"video" :: !streams)
          env
      in
      ignore
        (Controller.deploy ctl ~name:"splitstream" ~main
           (Descriptor.make ~bootstrap:(Descriptor.Head 1) n));
      Env.sleep (Float.of_int n *. 0.3 +. 120.0);
      let subscribers = List.filteri (fun i _ -> i > 0) !streams in
      List.iter Apps.Splitstream.subscribe_all subscribers;
      Env.sleep 15.0;
      let content = String.init 4096 (fun i -> Char.chr (65 + (i mod 26))) in
      Apps.Splitstream.send (List.hd !streams) ~content ~block_size:256;
      Env.sleep 30.0;
      let ok = ref 0 in
      List.iter
        (fun s ->
          match Apps.Splitstream.reassembled s with
          | Some c when String.equal c content -> incr ok
          | _ -> ())
        subscribers;
      Alcotest.(check bool)
        (Printf.sprintf "most subscribers got the exact content (%d/%d)" !ok (n - 1))
        true
        (!ok >= n - 3))

(* {2 Web cache} *)

let test_webcache_hits_and_lru () =
  with_platform (fun _ _ ctl ->
      let n = 12 in
      let caches = ref [] in
      let wc_config =
        { Apps.Webcache.default_config with max_entries = 20; ttl = 1200.0; origin_delay_mean = 1.0 }
      in
      let main env =
        Apps.Pastry.app ~config:pastry_test_config
          ~register:(fun p -> caches := Apps.Webcache.create ~config:wc_config p :: !caches)
          env
      in
      ignore
        (Controller.deploy ctl ~name:"webcache" ~main
           (Descriptor.make ~bootstrap:(Descriptor.Head 1) n));
      Env.sleep (Float.of_int n *. 0.3 +. 120.0);
      let client = List.hd !caches in
      (* first access misses and is slow; the repeat hits and is fast *)
      let _, k1, d1 = Apps.Webcache.get client "http://example.org/a" in
      let v2, k2, d2 = Apps.Webcache.get client "http://example.org/a" in
      (match k1 with `Miss -> () | _ -> Alcotest.fail "expected first-access miss");
      (match k2 with `Hit -> () | _ -> Alcotest.fail "expected repeat hit");
      Alcotest.(check bool) "hit faster than miss" true (d2 < d1 /. 2.0);
      Alcotest.(check bool) "content served" true
        (String.length v2 > 0 && String.sub v2 0 11 = "content-of:");
      (* LRU bound holds under many distinct URLs *)
      for i = 0 to 99 do
        ignore (Apps.Webcache.get client (Printf.sprintf "http://example.org/%d" i))
      done;
      List.iter
        (fun c ->
          Alcotest.(check bool) "per-node cache bounded" true (Apps.Webcache.cached_entries c <= 20))
        !caches)

let test_webcache_ttl_expiry () =
  with_platform (fun _ _ ctl ->
      let n = 8 in
      let caches = ref [] in
      let wc_config = { Apps.Webcache.default_config with ttl = 60.0; origin_delay_mean = 0.5 } in
      let main env =
        Apps.Pastry.app ~config:pastry_test_config
          ~register:(fun p -> caches := Apps.Webcache.create ~config:wc_config p :: !caches)
          env
      in
      ignore
        (Controller.deploy ctl ~name:"webcache" ~main
           (Descriptor.make ~bootstrap:(Descriptor.Head 1) n));
      Env.sleep (Float.of_int n *. 0.3 +. 120.0);
      let client = List.hd !caches in
      let _, k1, _ = Apps.Webcache.get client "u" in
      let _, k2, _ = Apps.Webcache.get client "u" in
      Env.sleep 120.0;
      let _, k3, _ = Apps.Webcache.get client "u" in
      (match (k1, k2, k3) with
      | `Miss, `Hit, `Miss -> ()
      | _ -> Alcotest.fail "TTL expiry did not force a refetch"))

(* {2 BitTorrent} *)

let test_bittorrent_swarm_completes () =
  with_platform ~hosts:12 (fun _ _ ctl ->
      let n = 12 in
      let nodes = ref [] in
      let config =
        {
          Apps.Bittorrent.default_config with
          piece_size = 64 * 1024;
          choke_interval = 5.0;
          optimistic_interval = 10.0;
          tracker_interval = 20.0;
          rpc_timeout = 20.0;
        }
      in
      ignore
        (Controller.deploy ctl ~name:"bittorrent"
           ~main:
             (Apps.Bittorrent.app ~config ~file_size:(2 * 1024 * 1024)
                ~register:(fun c -> nodes := c :: !nodes))
           (Descriptor.make ~bootstrap:(Descriptor.Head 1) n));
      (* poll: stop as soon as the swarm is done, cap at 600 s *)
      let rec wait budget =
        if budget > 0.0 then begin
          Env.sleep 30.0;
          let all_done =
            List.length !nodes = n && List.for_all Apps.Bittorrent.complete !nodes
          in
          if not all_done then wait (budget -. 30.0)
        end
      in
      wait 600.0;
      Alcotest.(check int) "all registered" n (List.length !nodes);
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Printf.sprintf "complete (%d/%d pieces)" (Apps.Bittorrent.pieces_have c)
               (Apps.Bittorrent.total_pieces c))
            true (Apps.Bittorrent.complete c);
          Alcotest.(check bool) "pieces on disk" true (Apps.Bittorrent.file_on_disk c))
        !nodes;
      let seed = List.find Apps.Bittorrent.is_initial_seed !nodes in
      Alcotest.(check bool) "seed uploaded" true (Apps.Bittorrent.uploaded_bytes seed > 0);
      (* leechers exchanged among themselves, not only with the seed *)
      let leecher_upload =
        List.fold_left
          (fun acc c -> if Apps.Bittorrent.is_initial_seed c then acc else acc + Apps.Bittorrent.uploaded_bytes c)
          0 !nodes
      in
      Alcotest.(check bool) "peer-to-peer exchange happened" true (leecher_upload > 0))


(* {2 Vivaldi network coordinates} *)

let test_vivaldi_predicts_rtts () =
  (* deploy coordinates on a wide-area testbed; after convergence the
     coordinate distance must predict true RTTs far better than a constant
     predictor *)
  let eng = Engine.create ~seed:71 () in
  let tb0 = Testbed.planetlab ~n:30 (Engine.rng eng) in
  let tb, ctl_host = Testbed.with_extra_host tb0 in
  let net = Net.create eng tb in
  let ctl = Controller.create net ~host:ctl_host in
  let daemons = Controller.boot_daemons ctl (List.init 30 Fun.id) in
  let nodes = ref [] in
  ignore
    (Env.thread (Controller.env ctl) (fun () ->
         Fun.protect
           ~finally:(fun () ->
             List.iter Daemon.shutdown daemons;
             ignore (Engine.schedule eng ~delay:0.0 (fun () -> Env.stop (Controller.env ctl))))
           (fun () ->
             let config = { Apps.Vivaldi.default_config with period = 2.0 } in
             ignore
               (Controller.deploy ctl ~name:"vivaldi"
                  ~main:(Apps.Vivaldi.app ~config ~register:(fun v -> nodes := v :: !nodes))
                  (Descriptor.make ~bootstrap:Descriptor.All 30));
             (* plenty of probe rounds to converge *)
             Env.sleep 600.0;
             List.iter
               (fun v -> Alcotest.(check bool) "nodes kept probing" true (Apps.Vivaldi.samples v > 50))
               !nodes;
             (* individual confidences bounce on jittery links; the median
                across the population must be low *)
             let errs = List.sort Float.compare (List.map Apps.Vivaldi.confidence_error !nodes) in
             let med_err = List.nth errs (List.length errs / 2) in
             Alcotest.(check bool)
               (Printf.sprintf "median confidence error %.2f below 0.6" med_err)
               true (med_err < 0.6);
             (* compare predicted vs true RTT over all pairs *)
             let arr = Array.of_list !nodes in
             let n = Array.length arr in
             let rel_errors = ref [] in
             for i = 0 to n - 1 do
               for j = i + 1 to n - 1 do
                 let predicted =
                   Apps.Vivaldi.distance
                     (Apps.Vivaldi.coordinate arr.(i))
                     (Apps.Vivaldi.coordinate arr.(j))
                 in
                 let actual =
                   Net.base_rtt net (Apps.Vivaldi.addr arr.(i)).Addr.host
                     (Apps.Vivaldi.addr arr.(j)).Addr.host
                 in
                 rel_errors := (Float.abs (predicted -. actual) /. actual) :: !rel_errors
               done
             done;
             let sorted = List.sort Float.compare !rel_errors in
             let median = List.nth sorted (List.length sorted / 2) in
             Alcotest.(check bool)
               (Printf.sprintf "median relative error %.0f%% below 40%%" (100.0 *. median))
               true (median < 0.40))));
  ignore (Engine.run ~until:100_000.0 eng);
  match Engine.crashed eng with
  | [] -> ()
  | (p, e) :: _ ->
      Alcotest.failf "process %s crashed: %s" (Engine.proc_name p) (Printexc.to_string e)


(* {2 DHT storage (replicated key-value on Pastry)} *)

let dht_platform n f =
  with_platform ~hosts:12 (fun eng net ctl ->
      let members = ref [] in
      let config = { pastry_test_config with bits = 16 } in
      let kv_config =
        { Apps.Dht_store.default_config with republish_interval = 10.0; entry_ttl = 3600.0; rpc_timeout = 3.0 }
      in
      let main env =
        Apps.Pastry.app ~config
          ~register:(fun p -> members := (p, Apps.Dht_store.create ~config:kv_config p) :: !members)
          env
      in
      let dep =
        Controller.deploy ctl ~name:"dht-store" ~main
          (Descriptor.make ~bootstrap:(Descriptor.Head 1) n)
      in
      Env.sleep (Float.of_int n *. 0.3 +. 120.0);
      f eng net ctl dep !members)

let test_dht_put_get_roundtrip () =
  dht_platform 16 (fun _ _ _ _ members ->
      let stores = List.map snd members in
      let writer = List.hd stores and reader = List.nth stores 9 in
      let acks = Apps.Dht_store.put writer ~key:"alpha" ~value:"42" in
      Alcotest.(check int) "all replicas stored" 3 acks;
      (* PAST placement: the holders are the 3 live ids closest to the key *)
      let kid = Crypto.hash_to_id "alpha" ~bits:16 in
      let d id = min (Misc.ring_distance id kid ~modulus:65536) (Misc.ring_distance kid id ~modulus:65536) in
      let ids = List.map (fun (p, _) -> Apps.Pastry.id p) members in
      let closest = Misc.take 3 (List.sort (fun a b -> compare (d a, a) (d b, b)) ids) in
      let holders =
        List.filter_map
          (fun (p, s) -> if Apps.Dht_store.stored_entries s > 0 then Some (Apps.Pastry.id p) else None)
          members
      in
      Alcotest.(check (list int)) "holders are the 3 ids closest to the key"
        (List.sort compare closest) (List.sort compare holders);
      Alcotest.(check (option string)) "read from another node" (Some "42")
        (Apps.Dht_store.get reader ~key:"alpha");
      Alcotest.(check (option string)) "missing key" None
        (Apps.Dht_store.get reader ~key:"nonexistent");
      (* overwrite *)
      ignore (Apps.Dht_store.put writer ~key:"alpha" ~value:"43");
      Alcotest.(check (option string)) "overwritten" (Some "43")
        (Apps.Dht_store.get reader ~key:"alpha");
      (* replicas live on multiple physical nodes *)
      let holders = List.length (List.filter (fun s -> Apps.Dht_store.stored_entries s > 0) stores) in
      Alcotest.(check bool) (Printf.sprintf "replicas spread (%d holders)" holders) true (holders >= 2))

let test_dht_survives_owner_crashes () =
  dht_platform 20 (fun _ _ _ dep members ->
      let stores = List.map snd members in
      let writer = List.hd stores in
      for i = 0 to 19 do
        ignore (Apps.Dht_store.put writer ~key:(Printf.sprintf "k%d" i) ~value:(Printf.sprintf "v%d" i))
      done;
      (* crash a quarter of the ring, wait for repair + republish *)
      List.iteri
        (fun i (_, a, _) -> if i mod 4 = 1 then Controller.crash_node dep a)
        (Controller.live_members dep);
      Env.sleep 60.0;
      let reader = List.find (fun s -> s != writer) stores in
      let found = ref 0 in
      for i = 0 to 19 do
        match Apps.Dht_store.get reader ~key:(Printf.sprintf "k%d" i) with
        | Some v when v = Printf.sprintf "v%d" i -> incr found
        | _ -> ()
      done;
      (* each key's 3 replicas are ring neighbours, so crashing every
         fourth member can take out a whole replica set before republish
         re-spreads it *)
      Alcotest.(check bool) (Printf.sprintf "data survives crashes (%d/20)" !found) true (!found >= 17))

let test_dht_delete () =
  dht_platform 12 (fun _ _ _ _ members ->
      let s = snd (List.hd members) in
      ignore (Apps.Dht_store.put s ~key:"gone" ~value:"soon");
      Alcotest.(check bool) "present" true (Apps.Dht_store.get s ~key:"gone" <> None);
      let acks = Apps.Dht_store.delete s ~key:"gone" in
      Alcotest.(check bool) "deletes acknowledged" true (acks >= 3);
      Alcotest.(check (option string)) "gone" None (Apps.Dht_store.get s ~key:"gone"))

let test_dht_data_migrates_on_join () =
  dht_platform 10 (fun _ _ _ dep members ->
      let s = snd (List.hd members) in
      for i = 0 to 9 do
        ignore (Apps.Dht_store.put s ~key:(Printf.sprintf "m%d" i) ~value:"x")
      done;
      (* grow the ring; after republish rounds the data is still readable
         even though ownership boundaries moved *)
      for _ = 1 to 5 do
        ignore (Controller.add_node dep)
      done;
      Env.sleep 90.0;
      let ok = ref 0 in
      for i = 0 to 9 do
        if Apps.Dht_store.get s ~key:(Printf.sprintf "m%d" i) = Some "x" then incr ok
      done;
      Alcotest.(check int) "all keys readable after joins" 10 !ok)

(* An assembled (warm) ring of [n] stores, member [i] at address host [i]. *)
let assembled_stores ?(p2c = false) n =
  let eng = Engine.create ~seed:41 () in
  let net = Net.create eng (Testbed.synthetic ~hosts:n (Engine.rng eng)) in
  let spacing = Misc.pow2 32 / n in
  let ring = Array.init n (fun i -> Apps.Node.make ~id:(i * spacing) ~addr:(Addr.make i 9000)) in
  let envs = Array.map (fun nd -> Env.create net ~me:nd.Apps.Node.addr) ring in
  let pastries = Array.make n None in
  Array.iteri
    (fun i env -> Apps.Pastry.assemble ~ring ~index:i ~register:(fun p -> pastries.(i) <- Some p) env)
    envs;
  let config = { Apps.Dht_store.default_config with republish_interval = 0.0; p2c } in
  (eng, envs, Array.map (fun p -> Apps.Dht_store.create ~config (Option.get p)) pastries, pastries)

(* One route per operation: a get (p2c or not) costs the route plus one
   fetch, a put or delete the route plus one call per replica. The route's
   own cost is measured by routing to the key's replica set directly. *)
let test_dht_one_route_per_op () =
  let n = 200 and k = 3 in
  let count = ref 0 in
  List.iter
    (fun p2c ->
      let eng, envs, stores, pastries = assembled_stores ~p2c n in
      let calls () = Array.fold_left (fun a e -> a + Rpc.calls_issued e) 0 envs in
      let cost f =
        let c0 = calls () in
        f ();
        calls () - c0
      in
      let gw = Option.get pastries.(0) in
      ignore
        (Env.thread envs.(0) (fun () ->
             for i = 1 to 30 do
               let key = Printf.sprintf "key%d" i in
               let kid = Crypto.hash_to_id key ~bits:32 in
               let set = ref [] in
               let route =
                 cost (fun () ->
                     set := fst (Option.get (Apps.Pastry.lookup_set gw kid ~k)))
               in
               (* the gateway is not a replica: every replica call is remote *)
               if not (List.exists (Apps.Node.equal (Apps.Pastry.self_node gw)) !set) then begin
                 incr count;
                 Alcotest.(check int) "put: one route plus k stores" (route + k)
                   (cost (fun () -> ignore (Apps.Dht_store.put stores.(0) ~key ~value:"v")));
                 Alcotest.(check int)
                   (Printf.sprintf "get (p2c %b): one route plus one fetch" p2c)
                   (route + 1)
                   (cost (fun () ->
                        Alcotest.(check (option string)) "read back" (Some "v")
                          (Apps.Dht_store.get stores.(0) ~key)));
                 Alcotest.(check int) "delete: one route plus k deletes" (route + k)
                   (cost (fun () -> ignore (Apps.Dht_store.delete stores.(0) ~key)))
               end
             done));
      ignore (Engine.run eng);
      (* a failed check inside the fiber surfaces as a crashed process *)
      match Engine.crashed eng with [] -> () | (_, e) :: _ -> raise e)
    [ false; true ];
  Alcotest.(check bool) "keys exercised" true (!count > 40);
  (* a replica set larger than owner + one leafset half cannot be found *)
  let _, _, _, pastries = assembled_stores 20 in
  let half = Apps.Pastry.default_config.Apps.Pastry.leaf_size / 2 in
  List.iter
    (fun replicas ->
      match
        Apps.Dht_store.create
          ~config:{ Apps.Dht_store.default_config with replicas }
          (Option.get pastries.(0))
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "replicas = %d accepted" replicas)
    [ 0; half + 2 ]

let () =
  Alcotest.run "splay_apps"
    [
      ( "chord",
        [
          Alcotest.test_case "ring converges" `Quick test_chord_ring_converges;
          Alcotest.test_case "lookup correct" `Quick test_chord_lookup_correct;
          Alcotest.test_case "hops logarithmic" `Quick test_chord_hops_logarithmic;
          Alcotest.test_case "finger invariant" `Quick test_chord_fingers_exact;
          Alcotest.test_case "assemble routes correctly" `Quick
            test_chord_assemble_routes_correctly;
        ] );
      ( "chord_ft",
        [
          Alcotest.test_case "converges with leafsets" `Quick test_chord_ft_converges_and_replicates;
          Alcotest.test_case "survives failures" `Quick test_chord_ft_survives_failures;
        ] );
      ( "pastry",
        [
          Alcotest.test_case "converges" `Quick test_pastry_converges;
          Alcotest.test_case "lookup correct" `Quick test_pastry_lookup_correct;
          Alcotest.test_case "survives churn" `Quick test_pastry_survives_churn;
          Alcotest.test_case "proximity tables" `Quick test_pastry_proximity_prefers_close_entries;
          Alcotest.test_case "assemble routes correctly" `Quick
            test_pastry_assemble_routes_correctly;
          Alcotest.test_case "node address parsing" `Quick test_node_of_value_addresses;
          QCheck_alcotest.to_alcotest prop_pastry_learn_and_replica_set;
          QCheck_alcotest.to_alcotest prop_node_value_roundtrip;
        ] );
      ("cyclon", [ Alcotest.test_case "mixes and stays connected" `Quick test_cyclon_mixes ]);
      ( "epidemic",
        [
          Alcotest.test_case "coverage" `Quick test_epidemic_coverage;
          Alcotest.test_case "one-way coverage" `Quick test_epidemic_oneway_coverage;
        ] );
      ("trees", [ Alcotest.test_case "structure and completion" `Quick test_trees_structure_and_completion ]);
      ( "scribe",
        [
          Alcotest.test_case "pubsub" `Quick test_scribe_pubsub;
          Alcotest.test_case "callbacks and unsubscribe" `Quick test_scribe_callback_and_unsubscribe;
        ] );
      ("splitstream", [ Alcotest.test_case "delivers content" `Quick test_splitstream_delivers_content ]);
      ( "webcache",
        [
          Alcotest.test_case "hits and lru" `Quick test_webcache_hits_and_lru;
          Alcotest.test_case "ttl expiry" `Quick test_webcache_ttl_expiry;
        ] );
      ("bittorrent", [ Alcotest.test_case "swarm completes" `Quick test_bittorrent_swarm_completes ]);
      ("vivaldi", [ Alcotest.test_case "predicts rtts" `Quick test_vivaldi_predicts_rtts ]);
      ( "dht_store",
        [
          Alcotest.test_case "put get roundtrip" `Quick test_dht_put_get_roundtrip;
          Alcotest.test_case "survives owner crashes" `Quick test_dht_survives_owner_crashes;
          Alcotest.test_case "delete" `Quick test_dht_delete;
          Alcotest.test_case "data migrates on join" `Quick test_dht_data_migrates_on_join;
          Alcotest.test_case "one route per operation" `Quick test_dht_one_route_per_op;
        ] );
    ]
