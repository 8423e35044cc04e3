(** Plan preparation as an explicit pass pipeline.

    What used to be inlined in the executor's body is a sequence of
    named, individually testable transforms over a {!prepared} plan:

    - {!lowering} — pre-resolve each step's argument sources into arrays
      (the shape the dispatch loop consumes);
    - {!liveness} — attach the {!Liveness} analysis so the executor can
      recycle each intermediate's buffer at its last use (enabled only
      under a workspace with [keep_intermediates:false]);
    - [locality-layout] — adopt the engine's {!Locality.config}, under
      which the run is bracketed by {!Layout.enter}/{!Layout.exit_};
    - {!cache_keying} — attach the per-step structural cache keys
      ({!Plan.step.skey}) consulted by the subtree cache.

    Each pass runs at most once ({!apply} is idempotent: a pass already in
    the trace is skipped) and only when its [enabled] predicate accepts the
    engine, so a pipeline over {!Engine.default_config} degenerates to
    lowering alone — the seed executor's behavior. The applied pass names
    are recorded in order in [trace] and surfaced in
    {!Executor.report.trace}. *)

type prepared = {
  plan : Plan.t;
  steps : Plan.step array;
  args : Plan.source array array option;
      (** per-step argument sources, pre-resolved by {!lowering};
          [None] means the executor falls back to the step's source list *)
  live : Liveness.t option;
  locality : Locality.config;
      (** layout the run executes under; {!Locality.default} until the
          [locality-layout] pass adopts the engine's *)
  cache_keys : string array option;
  trace : string list;  (** applied pass names, in application order *)
}

type pass = {
  name : string;
  enabled : Engine.t -> bool;
  transform : Engine.t -> prepared -> prepared;
}

val base : Plan.t -> prepared
(** The un-prepared plan: steps as an array, no analyses, default layout,
    empty trace. *)

val lowering : pass
val liveness : pass
val cache_keying : pass

val all : pass list
(** The full pipeline, in order: lowering, liveness, locality-layout,
    cache-keying. *)

val apply : Engine.t -> pass -> prepared -> prepared
(** Run one pass: skipped when already in the trace (idempotence) or when
    [pass.enabled] rejects the engine; otherwise transforms and appends the
    pass name to the trace. *)

val prepare : ?disable:string list -> Engine.t -> Plan.t -> prepared
(** [apply] every pass of {!all} in order, skipping names in [disable]
    (a debugging/ablation knob: with every pass disabled the executor
    reproduces the seed path bitwise). *)

(** Runtime half of the locality-layout pass: the permutation bracket the
    executor wraps around a run under a non-default layout. Graph and
    bindings are permuted on entry, the plan executes entirely in the new
    id space (optionally from the hybrid format), and outputs are
    inverse-permuted on exit; values are classified by shape (n-row dense /
    n×n sparse / length-n diagonal are node-indexed, everything else is
    id-free). All of it is timed into the report's [layout_time]. *)
module Layout : sig
  type state

  val enter :
    locality:Locality.config -> graph:Granii_graph.Graph.t ->
    bindings:(string * Dispatch.value) list ->
    state option * Granii_graph.Graph.t * (string * Dispatch.value) list

  val register : state option -> Dispatch.value -> unit
  (** Memoize the localized form (hybrid / BSR / CBM, per the config) of an
      iteration-stable square sparse value (bindings and setup-phase
      outputs), by physical identity. *)

  val form_of :
    state option ->
    (Granii_sparse.Csr.t -> Dispatch.form option) option
  (** The lookup handed to {!Dispatch.ctx}. *)

  val exit_ :
    state option -> n:int -> Dispatch.value -> (int * Dispatch.value) list ->
    Dispatch.value * (int * Dispatch.value) list * float
  (** Inverse-permute the output and intermediates back to the original
      vertex order; returns the accumulated layout time. *)
end
