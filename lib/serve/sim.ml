module Dense = Granii_tensor.Dense

type load = {
  clients : int;
  requests : int;
  tenants : int;
  graph : string;
  model : string;
  k_in : int;
  k_out : int;
  seed : int;
}

type result = {
  wall : float;
  throughput : float;
  p50 : float;
  p99 : float;
  mean_latency : float;
  mean_width : float;
  retries : int;
  stats : Serve.stats;
  breach_rate : float;
  first_breach_s : float option;
}

let percentile xs p =
  match xs with
  | [] -> nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let run server load =
  if load.clients < 1 then invalid_arg "Sim.run: clients must be >= 1";
  if load.requests < 1 then invalid_arg "Sim.run: requests must be >= 1";
  if load.tenants < 1 then invalid_arg "Sim.run: tenants must be >= 1";
  let rows = Serve.graph_nodes server load.graph in
  let feats =
    Array.init load.clients (fun c ->
        Dense.random ~seed:(load.seed + c) rows load.k_in)
  in
  let tenant_of c = Printf.sprintf "t%d" (c mod load.tenants) in
  (* closed loop: each client keeps one request in flight *)
  let outstanding : (Serve.ticket * float) option array =
    Array.make load.clients None
  in
  let issued = ref 0 in
  let completed = ref 0 in
  let retries = ref 0 in
  let latencies = ref [] in
  let manual = Serve.workers server = 0 in
  let t0 = Granii_hw.Timer.wall () in
  while !completed < load.requests do
    let progressed = ref false in
    for c = 0 to load.clients - 1 do
      match outstanding.(c) with
      | Some (ticket, _) -> (
          match Serve.poll server ticket with
          | Some resp ->
              outstanding.(c) <- None;
              incr completed;
              latencies := resp.Serve.latency :: !latencies;
              progressed := true
          | None -> ())
      | None ->
          if !issued < load.requests then (
            match
              Serve.submit server ~tenant:(tenant_of c) ~graph:load.graph
                ~model:load.model ~k_out:load.k_out ~features:feats.(c)
            with
            | Ok ticket ->
                incr issued;
                outstanding.(c) <- Some (ticket, Granii_hw.Timer.wall ());
                progressed := true
            | Error (Serve.Queue_full _) -> incr retries
            | Error Serve.Shutdown ->
                invalid_arg "Sim.run: server shut down mid-run")
    done;
    if manual then ignore (Serve.pump server : bool)
    else if not !progressed then Unix.sleepf 50e-6
  done;
  let wall = Granii_hw.Timer.wall () -. t0 in
  let stats = Serve.stats server in
  let lat = !latencies in
  let mean_latency =
    List.fold_left ( +. ) 0. lat /. float_of_int (List.length lat)
  in
  let mean_width =
    if stats.Serve.batches = 0 then 0.
    else float_of_int stats.Serve.sum_width /. float_of_int stats.Serve.batches
  in
  let breach_rate =
    if stats.Serve.completed = 0 then 0.
    else
      float_of_int stats.Serve.slo_breaches
      /. float_of_int stats.Serve.completed
  in
  { wall;
    throughput = float_of_int !completed /. wall;
    p50 = percentile lat 50.;
    p99 = percentile lat 99.;
    mean_latency;
    mean_width;
    retries = !retries;
    stats;
    breach_rate;
    first_breach_s = Option.map (fun ts -> ts -. t0) stats.Serve.first_breach }
