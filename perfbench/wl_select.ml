(* select: the paper's online stage alone — featurize a graph never seen
   before, then select a composition for it under many (model, size pair,
   hardware profile) tuples.

   The inputs are 36 graphs from six generator families at sizes spread
   evenly on a log scale over 1k-16k nodes; the seed draws their edges,
   while the families and sizes stay fixed so every seed measures the same
   mix. They are generated before timing, then featurized and selected in
   rounds until the run ends; nothing in the library caches per graph, so
   each round decides each graph afresh, and a graph's time is the best
   of its rounds. The cost oracles are GBRT models trained at set-up from a
   small fixed profiling pool, one per fixed hardware profile; nothing
   executes and no plan cache is involved, so the featurizer, selector,
   cost oracle and GBRT do all the work. Large graphs load the featurizer; TAGCN and
   SGC, with the most candidates, load the selector. *)

open Granii_core
module G = Granii_graph
module Hw = Granii_hw.Hw_profile

let families = [| Inputs.Er; Inputs.Ba; Inputs.Rmat; Inputs.Grid; Inputs.Blocked; Inputs.Overlap |]
let n_graphs = 36
let pairs = [ (64, 16); (16, 64) ]
let profiles = [ Hw.cpu; Hw.a100; Hw.h100 ]
let iterations = 100

(* Graph [i]: family i mod 6, and 1024 * 16^((i + 1/2) / n_graphs) nodes,
   so the sizes fill 1k-16k evenly on a log scale and the latency
   percentiles fall between close neighbours, not between size classes. *)
let spec ~tiny i =
  let n = 1024. *. (16. ** ((float_of_int i +. 0.5) /. float_of_int n_graphs)) in
  (families.(i mod Array.length families), int_of_float n / if tiny then 16 else 1)

(* The cost models' training pool: fixed, so every run selects with the
   same oracles and the seed changes only the inputs. *)
let training_pool () =
  [ Inputs.graph Inputs.Er ~seed:42 ~n:1024;
    Inputs.graph Inputs.Rmat ~seed:43 ~n:1024;
    Inputs.graph Inputs.Ba ~seed:44 ~n:1024 ]

let train_oracles ~tiny =
  let graphs = if tiny then [ List.hd (training_pool ()) ] else training_pool () in
  let sizes = if tiny then [ 16; 256 ] else [ 16; 64; 256; 1024 ] in
  List.map
    (fun profile ->
      let data = Profiling.collect ~seed:1 ~graphs ~sizes ~profile () in
      (profile, Cost_oracle.of_model (Cost_model.train ~profile data)))
    profiles

type pass = {
  decide : Stats.buf array;  (* per graph, per round: featurize + all its selections *)
  featurize : Stats.buf;
  select : Stats.buf;  (* per selection *)
  regret : Stats.buf;
  mutable considered : int;
  mutable nnz : int;
}

let run r ~seed ~seconds ~trace ~tiny =
  let (compiled, oracles), train_s =
    let times = ref [] in
    let sys =
      (* three set-ups, not seven as elsewhere: each trains the oracles *)
      Report.setup r ~reps:(if tiny then 1 else 3) ~release:ignore (fun () ->
          let compiled = List.map (fun (_, (_, c)) -> c) (Common.compile_all ()) in
          let oracles, t = Granii_hw.Timer.measure_wall (fun () -> train_oracles ~tiny) in
          times := t :: !times;
          (compiled, oracles))
    in
    (sys, Stats.median_of !times)
  in
  let tuples =
    List.concat_map
      (fun c ->
        List.concat_map (fun (k_in, k_out) -> List.map (fun o -> (c, k_in, k_out, o)) oracles) pairs)
      compiled
  in
  let fp = Inputs.fingerprint () in
  let graphs =
    Array.init n_graphs (fun i ->
        let family, n = spec ~tiny i in
        let g = Inputs.graph family ~seed:(Inputs.seed_of ~seed i) ~n in
        Inputs.add_graph fp g;
        g)
  in
  let n_sel = float_of_int (n_graphs * List.length tuples) in
  (* every pass decides the same graphs, so the traced and untraced passes
     are comparable; regret and candidate counts come from round 0 *)
  let measure ~seconds spans =
    let p =
      { decide = Array.init n_graphs (fun _ -> Stats.buf ()); featurize = Stats.buf ();
        select = Stats.buf (); regret = Stats.buf (); considered = 0; nnz = 0 }
    in
    let decide round i g =
      let id = (round * n_graphs) + i in
      let t0 = Report.now () in
      let feats = Featurizer.extract g in
      let t1 = Report.now () in
      let root = Spans.add spans ~id "graph" t0 t0 in
      ignore (Spans.add spans ~parent:root ~id "featurize" t0 t1);
      let choices =
        List.map
          (fun (c, k_in, k_out, (_, oracle)) ->
            let env = Common.env_of g ~k_in ~k_out in
            let s0 = Report.now () in
            let lc = Selector.select_localized ~oracle ~feats ~env ~iterations c in
            let s1 = Report.now () in
            ignore (Spans.add spans ~parent:root ~id "select" s0 s1);
            Stats.add p.select (s1 -. s0);
            (env, lc))
          tuples
      in
      let t2 = Report.now () in
      Spans.close spans root t2;
      Stats.add p.decide.(i) (t2 -. t0);
      Stats.add p.featurize (t1 -. t0);
      p.nnz <- p.nnz + G.Graph.n_edges g;
      if round = 0 then
        List.iter2
          (fun (c, _, _, (profile, _)) (env, lc) ->
            p.considered <- p.considered + lc.Selector.lchoice.Selector.considered;
            Common.regret r p.regret ~profile ~env ~iterations c
              lc.Selector.lchoice.Selector.candidate)
          tuples choices
    in
    Report.rounds ~seconds (fun round -> Array.iteri (decide round) graphs);
    p
  in
  let seconds = if trace then seconds /. 2. else seconds in
  let p = measure ~seconds (Spans.create false) in
  let decide = Stats.best p.decide in
  Report.latencies r ~what:"graphs (best of rounds), featurize + all selections" decide;
  Report.e2e r "throughput_per_s" (n_sel /. Stats.sum decide);
  Common.report_regret r p.regret;
  let prop f = Inputs.spread (Array.to_list (Array.map f graphs)) in
  Report.info "select: %d graphs x %d tuples; nodes min/median/max %s, nnz %s"
    n_graphs (List.length tuples) (prop G.Graph.n_nodes) (prop G.Graph.n_edges);
  if trace then begin
    let spans = Spans.create true in
    let q = measure ~seconds spans in
    Report.layer r "featurize.ms_p50" (Report.ms (Stats.percentile q.featurize 0.5));
    Report.layer r "featurize.ms_p90" (Report.ms (Stats.percentile q.featurize 0.9));
    Report.layer r "featurize.ns_per_nnz" (1e9 *. Stats.sum q.featurize /. float_of_int q.nnz);
    Report.layer r "select.ms_p50" (Report.ms (Stats.percentile q.select 0.5));
    Report.layer r "select.ms_p99" (Report.ms (Stats.percentile q.select 0.99));
    Report.layer r "select.us_per_candidate"
      (1e6 *. Stats.sum q.select /. float_of_int q.considered
      *. n_sel /. float_of_int (Stats.count q.select));
    Report.layer r "select.considered"
      (float_of_int q.considered /. n_sel);
    Report.layer r "costmodel.train_s" train_s;
    Report.layer r "trace.overhead_ratio"
      (Stats.percentile (Stats.best q.decide) 0.5 /. Stats.percentile decide 0.5);
    r.Report.spans <- Some spans
  end;
  Inputs.report fp ~what:"graphs"
