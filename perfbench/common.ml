(* Library entry points shared by the workloads: model compilation and
   selection regret. *)

open Granii_core
module Mp = Granii_mp

let compile (m : Mp.Mp_ast.model) =
  let low = Mp.Lower.lower m in
  let compiled, _ =
    Granii.compile ~name:m.Mp.Mp_ast.name
      ~degree_leaves:(Mp.Lower.degree_leaves low ~binned:false)
      low.Mp.Lower.ir
  in
  (low, compiled)

(* Granii's offline stage for the whole model zoo, the set-up every
   workload starts with; models by lower-case name. *)
let compile_all () =
  List.map
    (fun (m : Mp.Mp_ast.model) -> (String.lowercase_ascii m.Mp.Mp_ast.name, compile m))
    Mp.Mp_models.all

(* compile.ms.<model>: median of three compilations of every model. *)
let compile_times r =
  List.iter
    (fun (m : Mp.Mp_ast.model) ->
      let times =
        List.init 3 (fun _ -> snd (Granii_hw.Timer.measure_wall (fun () -> compile m)))
      in
      Report.layer r
        ("compile.ms." ^ String.lowercase_ascii m.Mp.Mp_ast.name)
        (Report.ms (Stats.median_of times)))
    Mp.Mp_models.all

let env_of graph ~k_in ~k_out =
  let n = Granii_graph.Graph.n_nodes graph in
  { Dim.n; nnz = Granii_graph.Graph.n_edges graph + n; k_in; k_out }

let plan_cost ~profile ~env ~iterations plan =
  let setup, iteration = Executor.estimate ~profile ~env plan in
  Executor.total_time ~setup ~iteration ~iterations

(* Records one decision's regret: the chosen candidate's estimated cost
   over the cheapest scenario-compatible candidate's, on the same profile.
   It is 1 when the selection was optimal, and below 1 only if the choice
   was not a candidate at all, which fails the decision. *)
let regret r b ~profile ~env ~iterations compiled (chosen : Codegen.ccand) =
  let cost c = plan_cost ~profile ~env ~iterations c.Codegen.plan in
  let cands =
    Codegen.for_scenario compiled
      (Selector.scenario_of ~k_in:env.Dim.k_in ~k_out:env.Dim.k_out)
  in
  let x = cost chosen /. List.fold_left (fun m c -> Float.min m (cost c)) infinity cands in
  Report.check r (Float.is_finite x && x >= 1.) (fun () ->
      Printf.sprintf "%s: regret %g is not finite and >= 1" compiled.Codegen.model_name x);
  Stats.add b x

let report_regret r b =
  let g = Stats.geomean b in
  Report.e2e r "regret_geomean" g;
  Report.info "regret: geomean %.6f over %d decisions, worst %.4f" g (Stats.count b)
    (Stats.percentile b 1.)
