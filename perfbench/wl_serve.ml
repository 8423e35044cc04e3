(* serve: the production serving path under small mixed requests that recur.

   A threaded server (two worker domains, 200 us batch window, default
   max_batch and plan cache) holds three graphs of 600-1024 nodes from
   different families. Requests mix four models with two (K_in, K_out)
   pairs over three tenants: 24 coalescing keys under a skewed popularity,
   few enough that the plan cache hits and requests coalesce. The run
   alternates two phases: an open loop of Poisson arrivals, each request
   timed from when it was due, and a closed loop holding a fixed window of
   requests in flight. Both phases come from this one generator thread,
   which preallocates every feature matrix: a minor GC in OCaml 5 stops
   every domain.

   Most of the time goes to the scheduler, batching and small-shape
   kernels; featurization and selection are cached per graph and shape. *)

open Granii_core
module Serve = Granii_serve.Serve
module Plan_cache = Granii_core.Plan_cache
module Dense = Granii_tensor.Dense
module Prng = Granii_tensor.Prng
module G = Granii_graph

(* Open-loop arrival rate: about a fifth of the closed-loop throughput this
   workload reaches on a 2-core x86 host (~280 requests/s), so the open-loop
   latency is mostly service time. Nearer half, queueing amplifies the
   host's own speed drift into latency swings wider than the benchmark's
   bounds. *)
let open_rate = 60.

(* Share of the run given to the open loop; the closed loop gets the rest.
   The run alternates the two [replays] times, each time replaying the same
   open-loop schedule, so both phases sample the host over the whole run
   and a request's latency is the best of its replays: a replay slowed by
   the shared host measures the host, not the server. *)
let open_share = 0.8
let replays = 6
let window = 16

(* Per-tenant admission bound, far above what a run keeps queued: a host
   stall of a few seconds shows as latency, not as rejected requests. The
   workload measures latency and throughput, not backpressure. *)
let queue_bound = 4096
let feature_pool = 8
let models = [| "gcn"; "gat"; "gin"; "sage" |]
let pairs = [| (32, 16); (16, 32) |]
let tenants = [| "tenant-a"; "tenant-b"; "tenant-c" |]
let graph_specs = [| (Inputs.Er, 800); (Inputs.Rmat, 1024); (Inputs.Ba, 600) |]

type key = { gi : int; model : string; ki : int (* index into [pairs] *) }

(* A request stream: key, tenant and feature-pool index per request. *)
type stream = { key : int array; tenant : int array; feat : int array }

(* The open-loop schedule of [m] requests: the keys are a fixed multiset in
   proportion to [weight] and the gaps between arrivals the quantiles of an
   exponential at [open_rate], both put in a seeded order; tenants and
   feature matrices are drawn. Every seed so offers the same work at the
   same mean rate. Returns each request's offset from the start and the
   stream. *)
let schedule rng ~weight m =
  let total = Array.fold_left ( +. ) 0. weight in
  let share = Array.map (fun w -> float_of_int m *. w /. total) weight in
  let count = Array.map int_of_float share in
  (* the largest remainders take the requests the floors left over *)
  let rem k = share.(k) -. float_of_int count.(k) in
  let order = Array.init (Array.length weight) Fun.id in
  Array.stable_sort (fun a b -> Float.compare (rem b) (rem a)) order;
  for j = 0 to m - Array.fold_left ( + ) 0 count - 1 do
    count.(order.(j)) <- count.(order.(j)) + 1
  done;
  let key = Array.concat (Array.to_list (Array.mapi (fun k c -> Array.make c k) count)) in
  Prng.shuffle_in_place rng key;
  let gaps =
    Array.init m (fun j ->
        -.log (1. -. ((float_of_int j +. 0.5) /. float_of_int m)) /. open_rate)
  in
  Prng.shuffle_in_place rng gaps;
  let offsets = Array.make m 0. in
  for j = 1 to m - 1 do
    offsets.(j) <- offsets.(j - 1) +. gaps.(j - 1)
  done;
  let tenant = Array.init m (fun _ -> Prng.int rng (Array.length tenants)) in
  let feat = Array.init m (fun _ -> Prng.int rng feature_pool) in
  (offsets, { key; tenant; feat })

type pass = {
  e2e : Stats.buf array;  (* open loop, per request, per replay: due -> completion *)
  server : Stats.buf;  (* open loop: response.latency *)
  submit : Stats.buf;  (* open loop: wall time inside Serve.submit *)
  late : Stats.buf;  (* open loop: generator lateness against the schedule *)
  wait : Stats.buf;  (* open loop: server latency - the key's exec_ref *)
  batched : int;  (* open-loop responses from a batch of width >= 2 *)
  requests : int;  (* submitted in both phases *)
  throughput : float;  (* closed loop: completions per second, best of replays *)
  stats : Serve.stats * Serve.stats;  (* before and after the pass *)
  minor_words : float;
}

let run r ~seed ~seconds ~trace ~tiny =
  let fp = Inputs.fingerprint () in
  let graphs =
    Array.mapi
      (fun gi (fam, n) ->
        let n = if tiny then n / 4 else n in
        let g = Inputs.graph fam ~seed:(Inputs.seed_of ~seed gi) ~n in
        Inputs.add_graph fp g;
        g)
      graph_specs
  in
  let gname gi = Inputs.family_name (fst graph_specs.(gi)) in
  let keys =
    Array.of_list
      (List.concat_map
         (fun gi ->
           List.concat_map
             (fun model -> List.init (Array.length pairs) (fun ki -> { gi; model; ki }))
             (Array.to_list models))
         (List.init (Array.length graphs) Fun.id))
  in
  (* features.(gi).(ki).(f): every request's input, allocated up front *)
  let features =
    Array.mapi
      (fun gi g ->
        Array.mapi
          (fun ki (k_in, _) ->
            Array.init feature_pool (fun f ->
                let d =
                  Inputs.features
                    ~seed:(Inputs.seed_of ~seed (1000 + (100 * gi) + (10 * ki) + f))
                    ~n:(G.Graph.n_nodes g) ~k:k_in
                in
                Inputs.add_dense fp d;
                d))
          pairs)
      graphs
  in
  let rng = Prng.create (Inputs.seed_of ~seed 7) in
  (* Skewed popularity, weight 1/(rank+1), over a fixed ranking that strides
     through the keys so graphs, models and pairs alternate down the ranks.
     The ranking does not depend on the seed: the seed varies the graphs and
     the order of arrivals, not the work mix. *)
  let nk = Array.length keys in
  let weight = Array.make nk 0. in
  for rank = 0 to nk - 1 do
    weight.(rank * 7 mod nk) <- 1. /. float_of_int (rank + 1)
  done;
  let m = max 1 (int_of_float (open_rate *. open_share *. seconds /. float_of_int replays)) in
  let offsets, open_stream = schedule rng ~weight m in
  Inputs.add_string fp (Marshal.to_string (offsets, open_stream) []);
  Inputs.report fp ~what:"graphs, feature matrices and the request schedule";
  let request_of stream i =
    let k = keys.(stream.key.(i)) in
    (k, tenants.(stream.tenant.(i)), features.(k.gi).(k.ki).(stream.feat.(i)))
  in
  let submit s (k, tenant, x) =
    Serve.submit s ~tenant ~graph:(gname k.gi) ~model:k.model
      ~k_out:(snd pairs.(k.ki)) ~features:x
  in
  let server, zoo =
    Report.setup r ~reps:(if tiny then 1 else 7) ~release:(fun (s, _) -> Serve.shutdown s) (fun () ->
        let zoo = Common.compile_all () in
        let s =
          Serve.create
            { Serve.default_config with workers = 2; batch_window = 200; queue_bound }
        in
        Array.iteri (fun gi g -> Serve.register_graph s ~name:(gname gi) g) graphs;
        (* warm-up: every key once — models compile, parameters are drawn and
           every plan enters the cache *)
        Array.map (fun k -> submit s (k, tenants.(0), features.(k.gi).(k.ki).(0))) keys
        |> Array.iter (function
             | Ok tk -> ignore (Serve.await s tk)
             | Error e -> failwith (Serve.reject_to_string e));
        (s, zoo))
  in
  (* The single-request reference: each key's output on feature matrices 0
     and 1 and its time with no queues (Serve.oracle), outside any timed
     phase. *)
  let oracle k f =
    Serve.oracle server ~graph:(gname k.gi) ~model:k.model ~k_out:(snd pairs.(k.ki))
      ~features:features.(k.gi).(k.ki).(f)
  in
  let reference =
    Array.map
      (fun k ->
        let t =
          Stats.median_of
            (List.init 3 (fun _ -> snd (Granii_hw.Timer.measure_wall (fun () -> oracle k 0))))
        in
        ([| oracle k 0; oracle k 1 |], t))
      keys
  in
  (* A pass of [seconds] replays the part of the schedule due in its share
     of them: a half-length traced pass replays the first half. The closed
     loop cycles through the same schedule's requests. *)
  let measure ~seconds spans =
    let st0 = Serve.stats server and mw0 = Report.minor_words () in
    let server_lat = Stats.buf () and submit_t = Stats.buf () and late = Stats.buf ()
    and wait = Stats.buf () and throughput = Stats.buf () in
    let batched = ref 0 and rejected = ref 0 in
    let open_len = open_share *. seconds /. float_of_int replays in
    let closed_len = (1. -. open_share) *. seconds /. float_of_int replays in
    let n =
      let k = ref 0 in
      while !k < m && offsets.(!k) < open_len do incr k done;
      !k
    in
    let e2e = Array.init n (fun _ -> Stats.buf ()) in
    let due = Array.make n 0. and before = Array.make n 0. and after = Array.make n 0. in
    let tickets = Array.make n None in
    (* open-loop responses are harvested in submission order as they
       complete, so the run holds only the requests in flight *)
    let head = ref 0 and replay = ref 0 in
    let harvest ~upto ~block =
      let continue = ref true in
      while !continue && !head < upto do
        let i = !head in
        match tickets.(i) with
        | None -> incr head
        | Some tk -> (
            match if block then Some (Serve.await server tk) else Serve.poll server tk with
            | None -> continue := false
            | Some resp ->
                tickets.(i) <- None;
                incr head;
                let done_ = after.(i) +. resp.Serve.latency in
                Stats.add e2e.(i) (done_ -. due.(i));
                Stats.add server_lat resp.Serve.latency;
                Stats.add submit_t (after.(i) -. before.(i));
                Stats.add late (before.(i) -. due.(i));
                Stats.add wait (resp.Serve.latency -. snd reference.(open_stream.key.(i)));
                if resp.Serve.width >= 2 then incr batched;
                let id = (!replay * n) + i in
                let req = Spans.add spans ~id "request" due.(i) done_ in
                ignore (Spans.add spans ~parent:req ~id "late" due.(i) before.(i));
                ignore (Spans.add spans ~parent:req ~id "submit" before.(i) after.(i));
                ignore (Spans.add spans ~parent:req ~id "server" after.(i) done_))
      done
    in
    let ring = Array.make window None in
    let next = ref 0 in
    let refill j =
      let res = submit server (request_of open_stream (!next mod m)) in
      incr next;
      ring.(j) <- Result.to_option res;
      if Result.is_error res then incr rejected
    in
    for k = 0 to replays - 1 do
      replay := k;
      head := 0;
      (* open loop: the schedule, from now *)
      let t0 = Report.now () +. 0.001 in
      for k = 0 to n - 1 do
        due.(k) <- t0 +. offsets.(k);
        let ahead = due.(k) -. Report.now () in
        if ahead > 0. then Unix.sleepf ahead;
        before.(k) <- Report.now ();
        let res = submit server (request_of open_stream k) in
        after.(k) <- Report.now ();
        (match res with Ok tk -> tickets.(k) <- Some tk | Error _ -> incr rejected);
        harvest ~upto:k ~block:false
      done;
      harvest ~upto:n ~block:true;
      (* closed loop: [window] requests in flight *)
      let c0 = Report.now () in
      for j = 0 to window - 1 do refill j done;
      let completed = ref 0 and j = ref 0 in
      while Report.now () -. c0 < closed_len do
        Option.iter (fun tk -> ignore (Serve.await server tk); incr completed) ring.(!j);
        refill !j;
        j := (!j + 1) mod window
      done;
      Stats.add throughput (float_of_int !completed /. (Report.now () -. c0));
      let this = Stats.buf () in
      Array.iter (fun b -> if Stats.count b > k then Stats.add this (Stats.to_array b).(k)) e2e;
      Report.info "replay %d: open-loop p50 %.3f ms, p90 %.3f ms; closed loop %.1f/s" k
        (Report.ms (Stats.percentile this 0.5)) (Report.ms (Stats.percentile this 0.9))
        (Stats.to_array throughput).(k);
      Array.iteri
        (fun j tk ->
          Option.iter (fun tk -> ignore (Serve.await server tk)) tk;
          ring.(j) <- None)
        ring
    done;
    Report.failures r ~attempted:((n * replays) + !next) ~failed:!rejected
      (Printf.sprintf "%d requests rejected" !rejected);
    { e2e; server = server_lat; submit = submit_t; late; wait; batched = !batched;
      requests = (n * replays) + !next;
      throughput = Stats.percentile throughput 1.;
      stats = (st0, Serve.stats server);
      minor_words = Report.minor_words () -. mw0 }
  in
  let seconds = if trace then seconds /. 2. else seconds in
  let p = measure ~seconds (Spans.create false) in
  let e2e = Stats.best p.e2e in
  Report.latencies r ~what:"open-loop requests (best of replays), due -> completion" e2e;
  Report.e2e r "throughput_per_s" p.throughput;
  let report_layers (q : pass) =
    let st0, st1 = q.stats in
    let d f = f st1 - f st0 in
    let batches = d (fun s -> s.Serve.batches) in
    let hits = d (fun s -> s.Serve.plan_cache.Plan_cache.hits) in
    let misses = d (fun s -> s.Serve.plan_cache.Plan_cache.misses) in
    let us s = 1e6 *. s in
    Report.layer r "serve.submit_us_p50" (us (Stats.percentile q.submit 0.5));
    Report.layer r "serve.submit_us_p99" (us (Stats.percentile q.submit 0.99));
    Report.layer r "serve.server_ms_p50" (Report.ms (Stats.percentile q.server 0.5));
    Report.layer r "serve.server_ms_p99" (Report.ms (Stats.percentile q.server 0.99));
    Report.layer r "serve.wait_ms_p50" (Report.ms (Stats.percentile q.wait 0.5));
    Report.layer r "serve.wait_ms_p99" (Report.ms (Stats.percentile q.wait 0.99));
    Report.layer r "serve.batch_width_mean"
      (float_of_int (d (fun s -> s.Serve.sum_width)) /. float_of_int (max 1 batches));
    Report.layer r "serve.batches" (float_of_int batches);
    Report.layer r "serve.widened_steps" (float_of_int (d (fun s -> s.Serve.widened_steps)));
    Report.layer r "serve.plan_cache_hit_frac"
      (float_of_int hits /. float_of_int (max 1 (hits + misses)));
    Report.layer r "serve.rejected" (float_of_int (d (fun s -> s.Serve.rejected)));
    Report.layer r "serve.minor_words_per_req"
      (q.minor_words /. float_of_int (max 1 q.requests));
    Report.layer r "serve.batched_frac"
      (float_of_int q.batched /. float_of_int (max 1 (Stats.count q.server)));
    Report.layer r "gen.late_ms_p99" (Report.ms (Stats.percentile q.late 0.99));
    Array.iteri
      (fun ki (k_in, k_out) ->
        Array.iter
          (fun model ->
            let ts =
              List.filter_map
                (fun (k, (_, t)) -> if k.model = model && k.ki = ki then Some t else None)
                (Array.to_list (Array.map2 (fun k x -> (k, x)) keys reference))
            in
            Report.layer r
              (Printf.sprintf "serve.exec_ref_ms.%s_%d_%d" model k_in k_out)
              (Report.ms (Stats.median_of ts)))
          models)
      pairs
  in
  if trace then begin
    let spans = Spans.create true in
    let q = measure ~seconds spans in
    report_layers q;
    Report.layer r "trace.overhead_ratio"
      (Stats.percentile (Stats.best q.e2e) 0.5 /. Stats.percentile e2e 0.5);
    r.Report.spans <- Some spans
  end;
  let pc = (Serve.stats server).Serve.plan_cache in
  Report.info
    "serve: %d open-loop requests at %.0f/s, %d requests in all; %d distinct coalescing \
     keys vs plan-cache capacity %d (%d evictions); %.1f%% of open-loop requests served \
     in a batch of width >= 2"
    (Stats.count p.server) open_rate p.requests (Array.length keys)
    Serve.default_config.Serve.plan_cache pc.Plan_cache.evictions
    (100. *. float_of_int p.batched /. float_of_int (max 1 (Stats.count p.server)));
  (* output check: a fixed burst of two requests per key with different
     features from different tenants, so it coalesces; every response
     bitwise against the single-request oracle *)
  let burst =
    Array.concat
      (List.init 2 (fun f ->
           Array.mapi
             (fun i k -> (i, f, submit server (k, tenants.(f), features.(k.gi).(k.ki).(f))))
             keys))
  in
  Array.iter
    (fun (i, f, res) ->
      match res with
      | Error e ->
          Report.check r false (fun () -> "check request rejected: " ^ Serve.reject_to_string e)
      | Ok tk ->
          let resp = Serve.await server tk in
          let k = keys.(i) in
          Report.check r
            (Report.value_equal resp.Serve.value (fst reference.(i)).(f))
            (fun () ->
              Printf.sprintf "serve %s/%s %dx%d (width %d) differs from Serve.oracle"
                (gname k.gi) k.model (fst pairs.(k.ki)) (snd pairs.(k.ki)) resp.Serve.width))
    burst;
  Serve.shutdown server;
  (* selection regret per coalescing key, as the server selects: analytic
     oracle of its profile, one iteration, default layout *)
  let profile = Serve.default_config.Serve.profile in
  let oracle = Cost_oracle.analytic profile in
  let feats = Array.map Featurizer.extract graphs in
  let regrets = Stats.buf () in
  Array.iter
    (fun k ->
      let k_in, k_out = pairs.(k.ki) in
      let env = Common.env_of graphs.(k.gi) ~k_in ~k_out in
      let c = snd (List.assoc k.model zoo) in
      let lc =
        Selector.select_localized ~oracle ~feats:feats.(k.gi) ~env ~iterations:1
          ~configs:[ Locality.default ] c
      in
      Common.regret r regrets ~profile ~env ~iterations:1 c lc.Selector.lchoice.Selector.candidate)
    keys;
  Common.report_regret r regrets
