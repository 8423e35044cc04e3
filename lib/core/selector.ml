module Obs = Granii_obs.Obs

type choice = {
  candidate : Codegen.ccand;
  predicted_cost : float;
  selection_time : float;
  considered : int;
  used_cost_models : bool;
}

let scenario_of ~k_in ~k_out = if k_in >= k_out then Dim.Shrinking else Dim.Growing

let measure ?seed ?pool ?obs ~timing ~graph ~bindings ~env ~iterations
    (compiled : Codegen.t) =
  let scenario = scenario_of ~k_in:env.Dim.k_in ~k_out:env.Dim.k_out in
  let cands = Codegen.for_scenario compiled scenario in
  (* One cache-enabled engine across every candidate: plans of the same
     model overlap heavily (the reuse-vs-recompute structure differs in a
     few steps), so each common subexpression executes once per input
     instead of once per plan. Valid because all candidates run on the same
     (graph, bindings) — the engine's cache fingerprints the graph. *)
  let engine =
    Engine.create_exn ?pool ?obs
      { Engine.default_config with cache = true; keep_intermediates = false }
  in
  let timed =
    List.map
      (fun (c : Codegen.ccand) ->
        let report =
          Executor.exec ?seed ~engine ~timing ~graph ~bindings c.Codegen.plan
        in
        ( c,
          Executor.total_time ~setup:report.Executor.setup_time
            ~iteration:report.Executor.iteration_time ~iterations ))
      cands
  in
  let stats =
    match Engine.cache engine with
    | Some c -> Engine.cache_stats c
    | None -> (0, 0)
  in
  (List.sort (fun (_, a) (_, b) -> compare a b) timed, stats)

type localized_choice = {
  lchoice : choice;
  config : Locality.config;
  base_cost : float;
      (* predicted cost of the same candidate under the default config *)
}

(* Joint {ordering × format × candidate} argmin. The base prediction only
   depends on the candidate; each configuration's analytic layout
   adjustment is applied as a {e relative} factor — the analytic model is
   consulted for how much the layout changes the plan, and that ratio
   scales the cost model's own base prediction. For the [Analytic] model
   the two scales coincide and this reduces to [base + adjustment]; for a
   [Learned] model (GBRT log-runtime scale) an absolute analytic delta
   could dwarf the base and go negative. The profile-less Flops model has
   no layout terms at all — the minimum is then the legacy choice. The
   ranking is a stable sort with the default configuration enumerated
   first, so a configuration must be predicted strictly cheaper to
   displace the legacy path. Plain [select]/[rank] are the
   [[Locality.default]] case: its adjustment is exactly [0.], so the
   analytic base is not computed at all. *)
let rank_localized ~oracle ~feats ~env ~iterations ~configs
    (compiled : Codegen.t) =
  let scenario = scenario_of ~k_in:env.Dim.k_in ~k_out:env.Dim.k_out in
  let cands = Codegen.for_scenario compiled scenario in
  let profile =
    if List.for_all Locality.is_default configs then None
    else Cost_oracle.profile oracle
  in
  let threads = feats.Featurizer.threads in
  let stats = feats.Featurizer.stats in
  let scored =
    List.concat_map
      (fun (c : Codegen.ccand) ->
        let base =
          Cost_oracle.predict_plan oracle feats ~env ~iterations
            c.Codegen.plan
        in
        let analytic_base =
          match profile with
          | None -> 0.
          | Some p ->
              Cost_oracle.analytic_plan ~threads p ~env ~iterations
                c.Codegen.plan
        in
        List.map
          (fun config ->
            let adjusted =
              match profile with
              | None -> base
              | Some p ->
                  let adj =
                    Cost_oracle.plan_adjustment ~threads p ~stats ~env
                      ~iterations config c.Codegen.plan
                  in
                  if adj = 0. then base
                  else if analytic_base > 0. then
                    (* layout effects never flip a cost's sign: floor the
                       relative change well above zero *)
                    base
                    *. Float.max 0.05
                         ((analytic_base +. adj) /. analytic_base)
                  else base +. adj
            in
            (c, config, base, adjusted))
          configs)
      cands
  in
  List.stable_sort (fun (_, _, _, a) (_, _, _, b) -> compare a b) scored

(* Selection telemetry: a retro-dated "select" span carrying the measured
   selection_time (so trace and [choice.selection_time] agree exactly) plus
   the candidates-considered counter. *)
let record_selection obs ~name ~plan ~considered ~selection_time =
  match obs with
  | None -> ()
  | Some o ->
      (match o.Obs.trace with
      | None -> ()
      | Some t ->
          let sp = Obs.Trace.enter t ~cat:"engine" name in
          Obs.Trace.exit_ t ~dur:selection_time
            ~attrs:[ ("plan", plan); ("considered", string_of_int considered) ]
            sp);
      Obs.count o "select.runs" 1;
      Obs.count o "select.candidates.considered" considered;
      (match o.Obs.metrics with
      | None -> ()
      | Some m -> Obs.Metrics.observe m "select.time" selection_time)

let rank ~oracle ~feats ~env ~iterations compiled =
  List.map
    (fun (c, _, _, cost) -> (c, cost))
    (rank_localized ~oracle ~feats ~env ~iterations
       ~configs:[ Locality.default ] compiled)

(* The argmin itself: the head of the stable ranking, which is the strict
   minimum with the earliest candidate and configuration winning ties. *)
let argmin ?obs ~name ~oracle ~feats ~env ~iterations ~configs compiled =
  let result, selection_time =
    Granii_hw.Timer.measure_wall (fun () ->
        match
          rank_localized ~oracle ~feats ~env ~iterations ~configs compiled
        with
        | [] ->
            invalid_arg
              (Printf.sprintf "Selector.%s: no candidate for scenario in %s"
                 name compiled.Codegen.model_name)
        | ((c, cfg, base, cost) :: _) as ranked ->
            (c, cfg, base, cost, List.length ranked))
  in
  let candidate, config, base_cost, predicted_cost, considered = result in
  record_selection obs ~name ~plan:candidate.Codegen.plan.Plan.name
    ~considered ~selection_time;
  { lchoice =
      { candidate;
        predicted_cost;
        selection_time;
        considered;
        used_cost_models = considered > 1 };
    config;
    base_cost }

let select_localized ?obs ~oracle ~feats ~env ~iterations
    ?(configs = Locality.all_configs) compiled =
  argmin ?obs ~name:"select_localized" ~oracle ~feats ~env ~iterations
    ~configs compiled

let select ?obs ~oracle ~feats ~env ~iterations compiled =
  (argmin ?obs ~name:"select" ~oracle ~feats ~env ~iterations
     ~configs:[ Locality.default ] compiled)
    .lchoice
