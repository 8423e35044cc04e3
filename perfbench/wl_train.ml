(* train: pipelined mini-batch training, the only workload that samples,
   runs backward passes and writes parameters.

   One RMAT graph of 8192 nodes; GCN and GAT are each trained for a few
   epochs with fanouts [10; 5] through Trainer.train_minibatch in Pipelined
   mode, where a loader domain samples and featurizes batch i+1 while batch
   i executes. The executor's kernels run at mid-size shapes, forward and
   backward. Every run's batch losses are compared bitwise with a
   Loader.Sequential run made once per process outside the timed phase. *)

open Granii_core
module G = Granii_graph
module Gnn = Granii_gnn
module Trainer = Granii_gnn.Trainer
module Prng = Granii_tensor.Prng

let models = [ "gcn"; "gat" ]
let fanouts = [ 10; 5 ]
let epochs = 3
let batch_size = 512
let k_in = 32
let classes = 8
let profile = Granii_hw.Hw_profile.cpu

type pass = {
  round : Stats.buf;  (* one training run of every model *)
  per_model : Stats.buf array;  (* per model, per round: one training run *)
  mutable runs : (string * Trainer.minibatch_history * float) list;
  mutable minor_words : float;
}

let run r ~seed ~seconds ~trace ~tiny =
  let fp = Inputs.fingerprint () in
  let graph = Inputs.graph Inputs.Rmat ~seed:(Inputs.seed_of ~seed 0) ~n:(if tiny then 512 else 8192) in
  let n = G.Graph.n_nodes graph in
  let rng = Prng.create (Inputs.seed_of ~seed 1) in
  let labels = Array.init n (fun _ -> Prng.int rng classes) in
  let features =
    Granii_tensor.Dense.init n k_in (fun i j ->
        Prng.normal rng +. if j = labels.(i) then 1.5 else 0.)
  in
  Inputs.add_graph fp graph;
  Inputs.add_dense fp features;
  Inputs.add_string fp (Marshal.to_string labels []);
  Inputs.report fp ~what:"graph, features and labels";
  let epochs = if tiny then 1 else epochs in
  let batch_size = if tiny then 128 else batch_size in
  let setups =
    Report.setup r ~reps:(if tiny then 1 else 7) ~release:ignore (fun () ->
        let zoo = Common.compile_all () in
        List.map
          (fun m ->
            let low, compiled = List.assoc m zoo in
            let env = Common.env_of graph ~k_in ~k_out:classes in
            (m, compiled, Gnn.Layer.init_params ~seed ~env low))
          models)
  in
  let oracle = Cost_oracle.analytic profile in
  let train mode (_, compiled, params) =
    Trainer.train_minibatch ~seed ~mode ~fanouts ~epochs ~batch_size
      ~optimizer:(Gnn.Optimizer.adam ~lr:0.01 ()) ~oracle ~compiled ~graph ~features
      ~labels ~params ()
  in
  let reference = List.map (fun s -> (s, (train Gnn.Loader.Sequential s).Trainer.batch_losses)) setups in
  let measure ~seconds spans =
    let p =
      { round = Stats.buf (); per_model = Array.map (fun _ -> Stats.buf ()) (Array.of_list models);
        runs = []; minor_words = 0. }
    in
    let id = ref 0 in
    let round _ =
      let r0 = Report.now () in
      List.iteri
        (fun mi (((m, _, _) as s), ref_losses) ->
          let mw0 = Report.minor_words () in
          let c0 = Report.now () in
          let h = train Gnn.Loader.Pipelined s in
          let c1 = Report.now () in
          p.minor_words <- p.minor_words +. (Report.minor_words () -. mw0);
          p.runs <- (m, h, c1 -. c0) :: p.runs;
          Stats.add p.per_model.(mi) (c1 -. c0);
          Report.check r
            (Array.for_all2 Report.bits_equal h.Trainer.batch_losses ref_losses)
            (fun () -> Printf.sprintf "train %s: pipelined losses differ from sequential" m);
          (* history phases: the trainer's own thread laid end to end, the
             loader domain on its own lane *)
          let root = Spans.add spans ~id:!id "train_minibatch" c0 c1 in
          let lay lane t phases =
            ignore
              (List.fold_left
                 (fun t (name, d) ->
                   ignore (Spans.add spans ~parent:root ~lane ~id:!id name t (t +. d));
                   t +. d)
                 t phases)
          in
          lay 0 c0
            [ ("train.select", h.Trainer.selection_time); ("train.exec", h.Trainer.exec_time);
              ("train.stall", h.Trainer.stall_time) ];
          lay 1 c0 [ ("train.sample", h.Trainer.sample_time); ("train.featurize", h.Trainer.featurize_time) ];
          incr id)
        reference;
      Stats.add p.round (Report.now () -. r0)
    in
    Report.rounds ~seconds round;
    p
  in
  let seconds = if trace then seconds /. 2. else seconds in
  let p = measure ~seconds (Spans.create false) in
  let sum f = List.fold_left (fun a (_, h, t) -> a +. f h t) 0. p.runs in
  (* A training run repeats the same batches in every round, so its time is
     the best of its rounds: a slower round measures the shared host. The
     latency percentiles run over the models' training runs. *)
  let runs = Stats.best p.per_model in
  Report.latencies r ~what:"pipelined training runs, one per model (best of rounds)" runs;
  Report.e2e r "throughput_per_s"
    (float_of_int (n * epochs * List.length models) /. Stats.sum runs);
  (* selection regret and subgraph sizes over one epoch of the batches the
     trainer sees, selected as it selects: analytic oracle, one iteration,
     default layout *)
  let regrets = Stats.buf () and sub_n = ref [] and sub_nnz = ref [] in
  let loader =
    Gnn.Loader.create ~seed ~mode:Gnn.Loader.Sequential ~fanouts ~batch_size ~epochs:1 ~graph
      ~features ~labels ()
  in
  let rec batches () =
    match Gnn.Loader.next loader with
    | None -> ()
    | Some b ->
        let sub = b.Gnn.Loader.sample.G.Sampling.subgraph in
        sub_n := G.Graph.n_nodes sub :: !sub_n;
        sub_nnz := G.Graph.n_edges sub :: !sub_nnz;
        let env = Common.env_of sub ~k_in ~k_out:classes in
        List.iter
          (fun (_, c, _) ->
            let lc =
              Selector.select_localized ~oracle ~feats:b.Gnn.Loader.feats ~env ~iterations:1
                ~configs:[ Locality.default ] c
            in
            Common.regret r regrets ~profile ~env ~iterations:1 c
              lc.Selector.lchoice.Selector.candidate)
          setups;
        batches ()
  in
  batches ();
  Gnn.Loader.shutdown loader;
  Common.report_regret r regrets;
  let hits = sum (fun h _ -> float_of_int h.Trainer.cache_stats.Plan_cache.hits) in
  let lookups =
    hits +. sum (fun h _ -> float_of_int h.Trainer.cache_stats.Plan_cache.misses)
  in
  Report.info
    "train: %d runs of %d epochs on n=%d nnz=%d; sampled subgraph nodes min/median/max %s, \
     nnz %s; plan-cache hit share %.3f"
    (List.length p.runs) epochs n (G.Graph.n_edges graph) (Inputs.spread !sub_n)
    (Inputs.spread !sub_nnz) (hits /. lookups);
  if trace then begin
    let spans = Spans.create true in
    let q = measure ~seconds spans in
    let runs = float_of_int (List.length q.runs) in
    let mean f = List.fold_left (fun a (_, h, _) -> a +. f h) 0. q.runs /. runs in
    let batches = mean (fun h -> float_of_int h.Trainer.n_batches) *. runs in
    let hits = mean (fun h -> float_of_int h.Trainer.cache_stats.Plan_cache.hits) in
    let misses = mean (fun h -> float_of_int h.Trainer.cache_stats.Plan_cache.misses) in
    Report.layer r "train.sample_s" (mean (fun h -> h.Trainer.sample_time));
    Report.layer r "train.featurize_s" (mean (fun h -> h.Trainer.featurize_time));
    Report.layer r "train.select_s" (mean (fun h -> h.Trainer.selection_time));
    Report.layer r "train.exec_s" (mean (fun h -> h.Trainer.exec_time));
    Report.layer r "train.stall_s" (mean (fun h -> h.Trainer.stall_time));
    Report.layer r "train.plan_cache_hit_frac" (hits /. (hits +. misses));
    Report.layer r "train.minor_words_per_batch" (q.minor_words /. batches);
    Report.layer r "trace.overhead_ratio"
      (Stats.percentile q.round 0.5 /. Stats.percentile p.round 0.5);
    r.Report.spans <- Some spans
  end
