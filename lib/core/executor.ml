module Dense = Granii_tensor.Dense
module Workspace = Granii_tensor.Workspace
module K = Granii_hw.Kernel_model
module Timer = Granii_hw.Timer
module Obs = Granii_obs.Obs

type value = Dispatch.value =
  | Vdense of Granii_tensor.Dense.t
  | Vsparse of Granii_sparse.Csr.t
  | Vdiag of Granii_tensor.Vector.t

type timing = Measure | Simulate of Granii_hw.Hw_profile.t

type report = {
  output : value;
  setup_time : float;
  iteration_time : float;
  layout_time : float;
  per_step : (Primitive.t * Plan.phase * float) list;
  intermediates : (int * value) list;
}

type batch_report = { outputs : value list; widened_steps : int }

exception Execution_error = Dispatch.Execution_error

let err fmt = Format.kasprintf (fun s -> raise (Execution_error s)) fmt

let shape_of = Dispatch.shape_of
let pp_value = Dispatch.pp_value

let apply ?pool ?ws prim graph args =
  Dispatch.exec { Dispatch.pool; ws; localize = None } prim graph
    (Array.of_list args)

(* Analytic time of one executed step: the kernel-model prediction for its
   instantiated kernels, with deterministic jitter seeded per step index. *)
let analytic_time ~threads ~seed profile (s : Plan.step) graph args v =
  List.fold_left
    (fun acc k ->
      acc +. K.time_noisy ~threads profile ~seed:(seed + s.Plan.idx) k)
    0.
    (Dispatch.kernels_of_step s.Plan.prim graph args v)

(* ---- telemetry helpers ----

   Everything below is guarded on the sink's components, so a disabled
   engine pays one option match per use and allocates nothing. *)

let phase_name = function
  | Plan.Setup -> "setup"
  | Plan.Per_iteration -> "iteration"

let step_attrs ~threads ~ctx (s : Plan.step) args v =
  let r, c = Dispatch.shape_of v in
  let attrs =
    [ ("prim", Primitive.name s.Plan.prim);
      ("phase", phase_name s.Plan.phase);
      ("format",
       Locality.format_to_string (Dispatch.format_of ctx s.Plan.prim args));
      ("shape", Printf.sprintf "%dx%d" r c);
      ("threads", string_of_int threads) ]
  in
  match v with
  | Vsparse m -> ("nnz", string_of_int (Granii_sparse.Csr.nnz m)) :: attrs
  | _ -> attrs

let step_span_enter tr (s : Plan.step) =
  match tr with
  | None -> None
  | Some t -> Some (Obs.Trace.enter t ~cat:"step" (Primitive.name s.Plan.prim))

(* Whether this engine's measured steps feed (predicted, measured) pairs to
   its oracle: when telemetry is on (the pairs back the accuracy report) or
   the oracle calibrates from them. *)
let feeds_oracle engine =
  (Engine.config engine).Engine.telemetry
  || Cost_oracle.calibration (Engine.oracle engine) <> Cost_oracle.Off

(* Every sink of one executed step. [paired] marks a step that was really
   executed and wall-clock timed: its raw (uncorrected) analytic prediction
   under the oracle's base profile goes to the oracle with the measurement,
   before the span closes, so a calibration pass it triggers nests inside
   the step. Then the step's span, journal record and histogram, each
   guarded first on its component so a disabled sink costs one option
   match and allocates nothing. *)
let step_done ~engine ~paired sp ~threads ~ctx (s : Plan.step) graph args v
    elapsed =
  let obs = Engine.obs engine in
  if paired then begin
    let oracle = Engine.oracle engine in
    let predicted =
      Cost_oracle.predict_kernels oracle ~threads
        (Dispatch.kernels_of_step s.Plan.prim graph args v)
    in
    Cost_oracle.observe oracle ~prim:(Primitive.name s.Plan.prim) ~predicted
      ~measured:elapsed
  end;
  (match (obs.Obs.trace, sp) with
  | Some t, Some sp ->
      Obs.Trace.exit_ t ~dur:elapsed ~attrs:(step_attrs ~threads ~ctx s args v)
        sp
  | _ -> ());
  (match obs.Obs.journal with
  | None -> ()
  | Some j ->
      Obs.Journal.record j Obs.Journal.Step
        ~tag:(Primitive.name s.Plan.prim) ~v:elapsed);
  match obs.Obs.metrics with
  | None -> ()
  | Some m ->
      Obs.Metrics.observe m ("step." ^ Primitive.name s.Plan.prim) elapsed

let bracket_span tr ~cat name =
  match tr with None -> None | Some t -> Some (Obs.Trace.enter t ~cat name)

let bracket_exit tr sp ?attrs () =
  match (tr, sp) with
  | Some t, Some sp -> Obs.Trace.exit_ t ?attrs sp
  | _ -> ()

(* Post-run metrics: workspace arena deltas plus a GC snapshot. *)
let run_metrics (obs : Obs.t) ws before =
  match obs.Obs.metrics with
  | None -> ()
  | Some m ->
      (match (ws, before) with
      | Some w, Some (b : Workspace.stats) ->
          let s = Workspace.stats w in
          Obs.Metrics.add m "workspace.alloc.hits"
            (s.Workspace.hits - b.Workspace.hits);
          Obs.Metrics.add m "workspace.alloc.misses"
            (s.Workspace.misses - b.Workspace.misses);
          Obs.Metrics.set_gauge m "workspace.bytes.held"
            (float_of_int (8 * s.Workspace.held_words));
          Obs.Metrics.set_gauge m "workspace.bytes.issued"
            (float_of_int (8 * s.Workspace.issued_words))
      | _ -> ());
      let g = Gc.quick_stat () in
      Obs.Metrics.set_gauge m "gc.major_words" g.Gc.major_words;
      Obs.Metrics.add m "engine.runs" 1

(* ---- request width ----

   A batched run ([exec_batch] over B > 1 feature matrices) executes the
   plan once for all B requests. A value that does not depend on the input
   leaf is [Shared] (a width-1 run has no other kind); one that does is a
   [Dep]: per-request blocks, one wide [n x (B*k)] block, or both, each
   materialized on first demand so a wide producer feeding both a widened
   and a scattered consumer pays each conversion once. *)

type dep = {
  mutable wide : Dense.t option;  (* [n x (B*k)] column concatenation *)
  mutable per : value array option;  (* request-order blocks *)
}

type slot = Empty | Shared of value | Dep of dep

(* The batching legality rule (executor.mli): a column-independent kernel
   whose dependent operands are all batch-dependent and whose other
   operands are shared verbatim. *)
let widenable (prim : Primitive.t) (args : slot array) =
  match prim with
  | Primitive.Spmm _ | Primitive.Row_broadcast _ -> (
      match args with [| Shared _; Dep _ |] -> true | _ -> false)
  | Primitive.Dense_add _
  | Primitive.Dense_map
      { kind = Matrix_ir.Relu | Matrix_ir.Leaky_relu | Matrix_ir.Sigmoid; _ }
    ->
      Array.length args > 0
      && Array.for_all (function Dep _ -> true | _ -> false) args
  | _ -> false

(* ---- the step loop ----

   One interpreter serves [exec], [exec_iterations] and [exec_batch]. The
   engine owns every policy (pool, workspace, cache, layout) and was
   validated at construction; what remains here is: enter the layout
   bracket, resolve arguments, run each step's kernel, time it, and leave
   the bracket.

   [iterations = None] is a one-pass run ([exec]): every step in plan
   order, served from the subtree cache when the engine has one, and with
   each intermediate's buffer recycled at its last use under a workspace
   with [keep_intermediates = false] ({!Liveness}).

   [iterations = Some k] is the steady-state driver: setup steps run once,
   then [k] passes over the per-iteration steps, each in its own
   [iteration] span, after returning the previous pass's buffers to the
   workspace arena. Argument arrays are preallocated and input bindings
   resolved once, so with a workspace engine the loop body performs no
   per-step minor allocation beyond what the kernels themselves do. The
   subtree cache is not consulted: per-iteration steps recompute identical
   values by construction, so cache hits would fake the steady state this
   driver measures.

   [batch = Some input] is a one-pass run over B > 1 requests whose
   [bindings] carry B entries named [input], in request order. Steps that
   do not depend on [input] run once, as in [exec]; every other step runs
   once over the wide operand when {!widenable}, once per request on its
   slice otherwise, each kernel invocation with its own span and sinks. A
   batched run skips the subtree cache (step keys are the same across
   requests), recycles nothing before the run ends and reports no
   intermediates. *)

let run ~seed ~engine ~timing ~graph ~bindings ~batch ~iterations
    (plan : Plan.t) =
  let one_pass = iterations = None in
  let batched = batch <> None in
  let pool = Engine.pool engine and ws = Engine.workspace engine in
  let obs = Engine.obs engine in
  let tr = obs.Obs.trace in
  let exec_span = bracket_span tr ~cat:"engine" "execute" in
  let cache = if one_pass && not batched then Engine.cache engine else None in
  Option.iter (fun c -> Engine.cache_bind_graph c graph) cache;
  let orig_n = Granii_graph.Graph.n_nodes graph in
  let layout_span = bracket_span tr ~cat:"engine" "layout" in
  let lstate, graph, bindings =
    Layout.enter ~locality:(Engine.locality engine) ~graph ~bindings
  in
  List.iter (fun (_, v) -> Layout.register lstate v) bindings;
  bracket_exit tr layout_span ~attrs:[ ("stage", "enter") ] ();
  let ctx = { Dispatch.pool; ws; localize = Layout.form_of lstate } in
  (match ws with Some w -> Workspace.reclaim w | None -> ());
  let ws_before = Option.map Workspace.stats ws in
  let steps = Array.of_list plan.Plan.steps in
  let n = Array.length steps in
  let slots = Array.make n Empty in
  let graph_token = Vsparse graph.Granii_graph.Graph.adj in
  let resolve name =
    (* [__graph__] is the token argument of Degree steps; its value is
       never inspected *)
    if String.equal name "__graph__" then graph_token
    else
      match List.assoc_opt name bindings with
      | Some v -> v
      | None -> err "unbound input %s" name
  in
  (* the batch: its input's request blocks (permuted by the bracket like
     any node-indexed binding) and the steps that depend on them *)
  let is_input name =
    match batch with Some input -> String.equal name input | None -> false
  in
  let requests =
    Array.of_list
      (List.filter_map
         (fun (name, v) -> if is_input name then Some v else None)
         bindings)
  in
  let width = if batched then Array.length requests else 1 in
  let input_dep = { wide = None; per = Some requests } in
  let dep_step = Array.make n false in
  if batched then
    Array.iter
      (fun (s : Plan.step) ->
        dep_step.(s.Plan.idx) <-
          List.exists
            (function
              | Plan.Input name -> is_input name
              | Plan.Computed i -> dep_step.(i))
            s.Plan.args)
      steps;
  let lookup = function
    | Plan.Computed i -> (
        match slots.(i) with
        | Shared v -> v
        | Empty -> err "step t%d used before being computed" i
        | Dep _ -> err "step t%d is batch-dependent" i)
    | Plan.Input name -> resolve name
  in
  let slot_of = function
    | Plan.Input name when is_input name -> Dep input_dep
    | Plan.Input name -> Shared (resolve name)
    | Plan.Computed i -> (
        match slots.(i) with
        | Empty -> err "step t%d used before being computed" i
        | sl -> sl)
  in
  let per_of d =
    match d.per with
    | Some a -> a
    | None ->
        let blocks = Dense.split_cols (Option.get d.wide) width in
        let a = Array.of_list (List.map (fun m -> Vdense m) blocks) in
        d.per <- Some a;
        a
  in
  (* every widenable kernel reads its dependent operands as dense *)
  let wide_of d =
    match d.wide with
    | Some w -> w
    | None ->
        let dense = function Vdense m -> m | v -> err "widen %a" pp_value v in
        let w =
          Dense.concat_cols (List.map dense (Array.to_list (Option.get d.per)))
        in
        d.wide <- Some w;
        w
  in
  let args_src =
    Array.map (fun (s : Plan.step) -> Array.of_list s.Plan.args) steps
  in
  (* input operands never change across passes: resolve them once; the
     placeholder in Computed positions is overwritten before first use *)
  let args_val =
    Array.map
      (Array.map (function
        | Plan.Input name -> resolve name
        | Plan.Computed _ -> graph_token))
      args_src
  in
  let refresh_args i =
    let src = args_src.(i) and dst = args_val.(i) in
    for j = 0 to Array.length src - 1 do
      match Array.unsafe_get src j with
      | Plan.Computed _ as c -> Array.unsafe_set dst j (lookup c)
      | Plan.Input _ -> ()
    done;
    dst
  in
  let live =
    if
      one_pass && (not batched) && ws <> None
      && not (Engine.keep_intermediates engine)
    then Some (Liveness.analyze plan)
    else None
  in
  let free_dead_after i =
    match live with
    | None -> ()
    | Some lv ->
        List.iter
          (fun d ->
            match slots.(d) with
            | Empty | Dep _ -> ()
            | Shared v ->
                List.iter
                  (fun a ->
                    (* a fold that degenerates to the identity can make two
                       slots (or a slot and a binding) share one backing
                       array — never recycle an array a live slot still
                       reads. Bindings are safe automatically: the workspace
                       only takes back buffers it issued. *)
                    let shared = ref false in
                    Array.iteri
                      (fun j s ->
                        match s with
                        | Shared sv when j <> d && Dispatch.shares_backing a sv
                          ->
                            shared := true
                        | _ -> ())
                      slots;
                    if not !shared then Workspace.give_back ws a)
                  (Dispatch.backing_arrays v);
                slots.(d) <- Empty)
          (Liveness.dead_after lv i)
  in
  let threads = Engine.threads engine in
  let feed =
    match timing with Measure -> feeds_oracle engine | Simulate _ -> false
  in
  let per_step_time = Array.make n 0. in
  let setup_time = ref 0. and iteration_time = ref 0. in
  let widened = ref 0 in
  (* One kernel run: its value, with its time under [timing] left in
     [elapsed_cell] (a flat float cell, so the step loop boxes nothing
     beyond what it reports). A run that really executed feeds the oracle
     iff [feed]. *)
  let elapsed_cell = [| 0. |] in
  let kernel (s : Plan.step) args =
    match timing with
    | Measure ->
        let t0 = Timer.wall () in
        let v = Dispatch.exec ctx s.Plan.prim graph args in
        elapsed_cell.(0) <- Timer.wall () -. t0;
        v
    | Simulate profile ->
        let v = Dispatch.exec ctx s.Plan.prim graph args in
        elapsed_cell.(0) <- analytic_time ~threads ~seed profile s graph args v;
        v
  in
  (* one kernel invocation of a batch-dependent step, with every sink *)
  let invoke i (s : Plan.step) args =
    let sp = step_span_enter tr s in
    let v = kernel s args in
    let elapsed = elapsed_cell.(0) in
    step_done ~engine ~paired:feed sp ~threads ~ctx s graph args v elapsed;
    per_step_time.(i) <- per_step_time.(i) +. elapsed;
    v
  in
  let dep_step_run i (s : Plan.step) =
    let args = Array.map slot_of args_src.(i) in
    (* the operands with each dependent one in the form [pick] gives *)
    let operands pick =
      Array.map
        (function Shared v -> v | Dep d -> pick d | Empty -> assert false)
        args
    in
    slots.(i) <-
      (if widenable s.Plan.prim args then begin
         incr widened;
         match invoke i s (operands (fun d -> Vdense (wide_of d))) with
         | Vdense w -> Dep { wide = Some w; per = None }
         | v ->
             err "widened step %s produced a non-dense %a"
               (Primitive.name s.Plan.prim) pp_value v
       end
       else
         let per r = invoke i s (operands (fun d -> (per_of d).(r))) in
         Dep { wide = None; per = Some (Array.init width per) })
  in
  let step i =
    let s = Array.unsafe_get steps i in
    if dep_step.(i) then dep_step_run i s
    else begin
      let args = refresh_args i in
      let sp = step_span_enter tr s in
      let cached =
        match cache with
        | None -> None
        | Some c ->
            let hit = Engine.cache_find c s.Plan.skey in
            Obs.count obs
              (match hit with Some _ -> "cache.hits" | None -> "cache.misses")
              1;
            hit
      in
      let value, elapsed, paired =
        match (cached, timing) with
        | Some (v, measured), Measure ->
            (* the work is genuinely skipped; charge what it cost when it
               ran *)
            (v, measured, false)
        | Some (v, _), Simulate profile ->
            (* simulated jitter is seeded per step index, which differs
               between plans — recompute the analytic time for THIS step
               so a cache hit is timing-transparent in Simulate mode *)
            (v, analytic_time ~threads ~seed profile s graph args v, false)
        | None, _ ->
            let v = kernel s args in
            (v, elapsed_cell.(0), feed)
      in
      (match (cache, cached) with
      | Some _, None -> Engine.cache_insert engine s.Plan.skey value elapsed
      | _ -> ());
      step_done ~engine ~paired sp ~threads ~ctx s graph args value elapsed;
      slots.(i) <- Shared value;
      per_step_time.(i) <- elapsed;
      (* setup outputs are iteration-stable: candidates for the localized
         form *)
      if s.Plan.phase = Plan.Setup then Layout.register lstate value
    end;
    (match s.Plan.phase with
    | Plan.Setup -> setup_time := !setup_time +. per_step_time.(i)
    | Plan.Per_iteration ->
        iteration_time := !iteration_time +. per_step_time.(i));
    free_dead_after i
  in
  (match iterations with
  | None ->
      for i = 0 to n - 1 do
        step i
      done
  | Some iterations ->
      let is_iter =
        Array.map
          (fun (s : Plan.step) -> s.Plan.phase = Plan.Per_iteration)
          steps
      in
      for i = 0 to n - 1 do
        if not is_iter.(i) then step i
      done;
      (* arrays backing setup values must survive every iteration, even
         when a per-iteration step's value degenerates to sharing one *)
      let setup_backing =
        List.concat
          (List.init n (fun i ->
               match slots.(i) with
               | Shared v when not is_iter.(i) -> Dispatch.backing_arrays v
               | _ -> []))
      in
      let release_iteration_slots () =
        for i = 0 to n - 1 do
          if is_iter.(i) then begin
            (match slots.(i) with
            | Shared v ->
                List.iter
                  (fun a ->
                    if not (List.exists (fun sb -> sb == a) setup_backing)
                    then Workspace.give_back ws a)
                  (Dispatch.backing_arrays v)
            | Empty | Dep _ -> ());
            slots.(i) <- Empty
          end
        done
      in
      for it = 1 to iterations do
        if it > 1 then release_iteration_slots ();
        let it_span =
          match tr with
          | None -> None
          | Some t ->
              let sp = Obs.Trace.enter t ~cat:"engine" "iteration" in
              Obs.Trace.add_attrs sp [ ("i", string_of_int it) ];
              Some sp
        in
        for i = 0 to n - 1 do
          if is_iter.(i) then step i
        done;
        bracket_exit tr it_span ()
      done);
  let outputs =
    match slot_of plan.Plan.output with
    | Dep d -> Array.to_list (per_of d)
    | Shared v -> List.init width (fun _ -> v)
    | Empty -> assert false
  in
  let intermediates =
    if Engine.keep_intermediates engine && not batched then begin
      let acc = ref [] in
      for i = n - 1 downto 0 do
        match slots.(i) with
        | Shared v -> acc := (i, v) :: !acc
        | Empty | Dep _ -> ()
      done;
      !acc
    end
    else []
  in
  let exit_span = bracket_span tr ~cat:"engine" "layout" in
  let outputs, intermediates, layout_time =
    Layout.exit_ lstate ~n:orig_n outputs intermediates
  in
  bracket_exit tr exit_span ~attrs:[ ("stage", "exit") ] ();
  run_metrics obs ws ws_before;
  bracket_exit tr exec_span
    ~attrs:
      (("plan", plan.Plan.name)
      ::
      (match iterations with
      | None -> []
      | Some k -> [ ("iterations", string_of_int k) ]))
    ();
  ( { output = List.hd outputs;
      setup_time = !setup_time;
      iteration_time =
        !iteration_time /. float_of_int (Option.value iterations ~default:1);
      layout_time;
      per_step =
        List.init n (fun i ->
            let s = steps.(i) in
            (s.Plan.prim, s.Plan.phase, per_step_time.(i)));
      intermediates },
    outputs,
    !widened )

let exec ?(seed = 0) ~engine ~timing ~graph ~bindings plan =
  let r, _, _ =
    run ~seed ~engine ~timing ~graph ~bindings ~batch:None ~iterations:None
      plan
  in
  r

let exec_iterations ?(seed = 0) ~engine ~timing ~graph ~bindings ~iterations
    plan =
  if iterations < 1 then invalid_arg "Executor.exec_iterations: iterations < 1";
  let r, _, _ =
    run ~seed ~engine ~timing ~graph ~bindings ~batch:None
      ~iterations:(Some iterations) plan
  in
  r

let exec_batch ?(seed = 0) ~engine ~timing ~graph ~bindings ~input ~features
    plan =
  let n = Granii_graph.Graph.n_nodes graph in
  let bad fmt = Printf.ksprintf invalid_arg ("Executor.exec_batch: " ^^ fmt) in
  (match features with
  | [] -> bad "empty batch"
  | (f0 : Dense.t) :: _ ->
      List.iter
        (fun (f : Dense.t) ->
          if f.Dense.rows <> n then
            bad "feature rows %d do not match graph nodes %d" f.Dense.rows n;
          if f.Dense.cols <> f0.Dense.cols then
            bad "mixed feature widths in one batch")
        features);
  (* width 1 is plain [exec]: the input is one more binding *)
  let batch = match features with [ _ ] -> None | _ -> Some input in
  let bindings =
    List.map (fun f -> (input, Vdense f)) features
    @ List.filter (fun (name, _) -> not (String.equal name input)) bindings
  in
  let _, outputs, widened_steps =
    run ~seed ~engine ~timing ~graph ~bindings ~batch ~iterations:None plan
  in
  { outputs; widened_steps }

let estimate ?(seed = 0) ~profile ~env (plan : Plan.t) =
  let setup = ref 0. and iter = ref 0. in
  List.iter
    (fun (s : Plan.step) ->
      let t =
        List.fold_left
          (fun acc k -> acc +. K.time_noisy profile ~seed:(seed + s.Plan.idx) k)
          0.
          (Primitive.to_kernels env s.Plan.prim)
      in
      match s.Plan.phase with
      | Plan.Setup -> setup := !setup +. t
      | Plan.Per_iteration -> iter := !iter +. t)
    plan.Plan.steps;
  (!setup, !iter)

let total_time ~setup ~iteration ~iterations =
  setup +. (float_of_int iterations *. iteration)
