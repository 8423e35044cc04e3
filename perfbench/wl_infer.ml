(* infer: full-graph inference on new 4k-16k-node inputs, the only workload
   where reordering, the non-CSR formats (CBM, hybrid, BSR) and the pooled
   kernels do most of the work.

   The 15 inputs cross blocked, community-overlap, RMAT, grid and ER graphs
   with GCN/GAT/GIN, alternate the size pairs 64->16 and 16->64, and spread
   their sizes evenly on a log scale over 4k-16k nodes; the seed draws the
   edges, features and parameters, while the mix stays fixed. They are
   generated before timing and run in rounds until the run ends; an
   input's time is the best of its rounds. Per input: decide (featurize +
   joint layout x candidate selection on the analytic CPU oracle, two
   threads), build the engine the decision asks for (two threads,
   workspace), and run a fixed number of iterations. Each
   output is compared bitwise with the same plan on Engine.default
   (identity layout, CSR, one thread). *)

open Granii_core
module G = Granii_graph
module Dense = Granii_tensor.Dense

let families = [| Inputs.Blocked; Inputs.Overlap; Inputs.Rmat; Inputs.Grid; Inputs.Er |]
let models = [| "gcn"; "gat"; "gin" |]
let pairs = [| (64, 16); (16, 64) |]
let n_inputs = 15
let threads = 2
let iterations = 3
let profile = Granii_hw.Hw_profile.cpu

(* Input [i]: family i mod 5, model i mod 3 (every family x model once),
   pair i mod 2, and 4096 * 4^((i + 1/2) / n_inputs) nodes. *)
let spec i =
  ( families.(i mod Array.length families),
    models.(i mod Array.length models),
    int_of_float (4096. *. (4. ** ((float_of_int i +. 0.5) /. float_of_int n_inputs))),
    pairs.(i mod Array.length pairs) )

type input = {
  family : Inputs.family;
  model : string;
  compiled : Codegen.t;
  graph : G.Graph.t;
  bindings : (string * Executor.value) list;
  k_in : int;
  k_out : int;
}

type pass = {
  result : Stats.buf array;  (* per input, per round: decide + engine + all iterations *)
  decide : Stats.buf;
  layout : Stats.buf;
  setup : Stats.buf;
  iter : Stats.buf;
  regret : Stats.buf;
  kernel : (string, float) Hashtbl.t;  (* summed seconds per primitive *)
  formats : (string, int) Hashtbl.t;  (* round 0 *)
  chosen : string array;  (* per input, round 0: the layout decided *)
  mutable minor_words : float;
  mutable runs : int;
}

let run r ~seed ~seconds ~trace ~tiny =
  let compiled, oracle =
    Report.setup r ~reps:(if tiny then 1 else 7) ~release:ignore (fun () ->
        let zoo = Common.compile_all () in
        let compiled = Array.map (fun m -> List.assoc m zoo) models in
        (compiled, Cost_oracle.analytic profile))
  in
  let fp = Inputs.fingerprint () in
  let inputs =
    Array.init n_inputs (fun i ->
        let family, model, n, (k_in, k_out) = spec i in
        let n = if tiny then n / 16 else n in
        let low, c = compiled.(i mod Array.length models) in
        let s = Inputs.seed_of ~seed i in
        let graph = Inputs.graph family ~seed:s ~n in
        let h = Inputs.features ~seed:(s + 1) ~n:(G.Graph.n_nodes graph) ~k:k_in in
        Inputs.add_graph fp graph;
        Inputs.add_dense fp h;
        let env = Common.env_of graph ~k_in ~k_out in
        let bindings =
          Granii_gnn.Layer.bindings ~graph ~h (Granii_gnn.Layer.init_params ~seed:s ~env low)
        in
        { family; model; compiled = c; graph; bindings; k_in; k_out })
  in
  (* Each input's output is checked once per process, in its first run. *)
  let checked = Array.make n_inputs false in
  let measure ~seconds spans =
    let p =
      { result = Array.init n_inputs (fun _ -> Stats.buf ()); decide = Stats.buf ();
        layout = Stats.buf (); setup = Stats.buf (); iter = Stats.buf ();
        regret = Stats.buf (); kernel = Hashtbl.create 16; formats = Hashtbl.create 4;
        chosen = Array.make n_inputs "";
        minor_words = 0.; runs = 0 }
    in
    let infer round i x =
      let id = (round * n_inputs) + i in
      let graph = x.graph in
      let t0 = Report.now () in
      let ld =
        Granii.optimize_localized ~oracle ~graph ~k_in:x.k_in ~k_out:x.k_out ~threads x.compiled
      in
      let t1 = Report.now () in
      let engine = Engine.create_exn (Granii.engine_config ~threads ~workspace:true ld) in
      let t2 = Report.now () in
      let plan = ld.Granii.ldecision.Granii.choice.Selector.candidate.Codegen.plan in
      let mw0 = Report.minor_words () in
      let rep =
        Executor.exec_iterations ~engine ~timing:Executor.Measure ~graph
          ~bindings:x.bindings ~iterations plan
      in
      let t3 = Report.now () in
      p.minor_words <- p.minor_words +. (Report.minor_words () -. mw0);
      Engine.shutdown engine;
      let root = Spans.add spans ~id "input" t0 t3 in
      ignore (Spans.add spans ~parent:root ~id "decide" t0 t1);
      ignore (Spans.add spans ~parent:root ~id "engine" t1 t2);
      ignore (Spans.add spans ~parent:root ~id "exec" t2 t3);
      Stats.add p.result.(i) (t3 -. t0);
      Stats.add p.decide (t1 -. t0);
      Stats.add p.layout rep.Executor.layout_time;
      Stats.add p.setup rep.Executor.setup_time;
      Stats.add p.iter rep.Executor.iteration_time;
      p.runs <- p.runs + 1;
      List.iter
        (fun (prim, _, t) ->
          let k = Primitive.name prim in
          Hashtbl.replace p.kernel k (t +. Option.value ~default:0. (Hashtbl.find_opt p.kernel k)))
        rep.Executor.per_step;
      if round = 0 then begin
        let fmt = Locality.format_to_string ld.Granii.config.Locality.format in
        Hashtbl.replace p.formats fmt (1 + Option.value ~default:0 (Hashtbl.find_opt p.formats fmt));
        p.chosen.(i) <- Locality.config_to_string ld.Granii.config;
        let env = Common.env_of graph ~k_in:x.k_in ~k_out:x.k_out in
        Common.regret r p.regret ~profile ~env ~iterations:100 x.compiled
          ld.Granii.ldecision.Granii.choice.Selector.candidate
      end;
      if not checked.(i) then begin
        checked.(i) <- true;
        let reference =
          Executor.exec ~engine:(Engine.default ()) ~timing:Executor.Measure ~graph
            ~bindings:x.bindings plan
        in
        Report.check r
          (Report.value_equal rep.Executor.output reference.Executor.output)
          (fun () ->
            Printf.sprintf "infer %s %s n=%d %d->%d under %s differs from Engine.default"
              (Inputs.family_name x.family) x.model (G.Graph.n_nodes graph) x.k_in x.k_out
              (Locality.config_to_string ld.Granii.config))
      end
    in
    Report.rounds ~seconds (fun round -> Array.iteri (infer round) inputs);
    p
  in
  let seconds = if trace then seconds /. 2. else seconds in
  let p = measure ~seconds (Spans.create false) in
  let result = Stats.best p.result in
  Report.latencies r ~what:"inputs (best of rounds), decide + engine + all iterations" result;
  Report.e2e r "throughput_per_s"
    (float_of_int (iterations * n_inputs) /. Stats.sum result);
  Common.report_regret r p.regret;
  Array.iteri
    (fun i x ->
      Report.info "input %2d: %-8s %-4s n=%-6d nnz=%-7d %2d->%-2d %-40s best %9.3f ms" i
        (Inputs.family_name x.family) x.model (G.Graph.n_nodes x.graph) (G.Graph.n_edges x.graph)
        x.k_in x.k_out p.chosen.(i) (Report.ms (Stats.to_array result).(i)))
    inputs;
  let histogram (q : pass) =
    List.map
      (fun f ->
        let f = Locality.format_to_string f in
        (f, Option.value ~default:0 (Hashtbl.find_opt q.formats f)))
      Locality.all_formats
  in
  let chosen = histogram p in
  let prop f = Inputs.spread (Array.to_list (Array.map (fun x -> f x.graph) inputs)) in
  Report.info "infer: %d inputs; nodes min/median/max %s, nnz %s; layouts chosen: %s%s"
    n_inputs (prop G.Graph.n_nodes) (prop G.Graph.n_edges)
    (String.concat ", " (List.map (fun (f, k) -> Printf.sprintf "%s %d" f k) chosen))
    (if List.assoc "bsr" chosen = 0 then " (BSR was never chosen)" else "");
  if trace then begin
    let spans = Spans.create true in
    let q = measure ~seconds spans in
    let runs = float_of_int q.runs in
    Report.layer r "decide.ms" (Report.ms (Stats.percentile q.decide 0.5));
    Report.layer r "layout.ms" (Report.ms (Stats.percentile q.layout 0.5));
    Report.layer r "exec.setup_ms" (Report.ms (Stats.percentile q.setup 0.5));
    Report.layer r "exec.iter_ms" (Report.ms (Stats.percentile q.iter 0.5));
    Report.layer r "exec.minor_words_per_iter" (q.minor_words /. (runs *. float_of_int iterations));
    List.iter
      (fun (f, k) -> Report.layer r ("layout.format." ^ f) (float_of_int k))
      (histogram q);
    Hashtbl.iter
      (fun k t -> Report.layer r (Printf.sprintf "kernel.%s_ms" k) (Report.ms (t /. runs)))
      q.kernel;
    Report.layer r "trace.overhead_ratio"
      (Stats.percentile (Stats.best q.result) 0.5 /. Stats.percentile result 0.5);
    r.Report.spans <- Some spans
  end;
  Inputs.report fp ~what:"graphs and feature matrices"
