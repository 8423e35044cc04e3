(** Kernel dispatch: concrete values and the primitive → kernel registry.

    This is the lowest layer of the execution stack
    ([Dispatch] < {!Engine} < {!Pass} < {!Executor}): it knows how to apply
    one {!Primitive.t} to concrete operand {!value}s and nothing about
    plans, phases, caching or timing. Implementations are looked up in a
    registry keyed by {e (backend, primitive name, operand format)} — the
    seam future accelerator backends and batched/sharded kernels plug into.
    The CPU kernels for every primitive (and the hybrid-format variants of
    the gather-bound g-kernels) are registered at module initialization. *)

type value =
  | Vdense of Granii_tensor.Dense.t
  | Vsparse of Granii_sparse.Csr.t
  | Vdiag of Granii_tensor.Vector.t

exception Execution_error of string
(** Raised on an argument-kind or arity mismatch (which would indicate an
    enumeration bug), and on unregistered primitives. *)

val shape_of : value -> int * int

val pp_value : Format.formatter -> value -> unit

val backing_arrays : value -> float array list
(** The float arrays backing a value — what the workspace arena pools.
    CSR structure arrays are ints shared with the mask/graph, so only the
    values array moves. *)

val shares_backing : float array -> value -> bool

(** {2 Execution context}

    What a kernel may use while running: the domain pool, the workspace
    arena, and the locality engine's localized-form lookup
    (physical-identity memo over iteration-stable sparse matrices). Built by
    {!Executor} from an {!Engine.t}; {!plain} is the bare sequential
    context. *)

type form =
  | Fhybrid of Granii_sparse.Hybrid.t
  | Fbsr of Granii_sparse.Bsr.t
  | Fcbm of Granii_sparse.Cbm.t
      (** A localized physical form of a sparse operand — what the [Pass]
          layout bracket converted a graph matrix into under the engine's
          locality config. *)

type ctx = {
  pool : Granii_tensor.Parallel.t option;
  ws : Granii_tensor.Workspace.t option;
  localize : (Granii_sparse.Csr.t -> form option) option;
}

val plain : ctx

(** {2 Registry} *)

type backend = Cpu

type fmt = Fmt_csr | Fmt_hybrid | Fmt_bsr | Fmt_cbm

type impl = ctx -> Granii_graph.Graph.t -> Primitive.t -> value array -> value
(** One kernel implementation. The primitive is passed through so one entry
    can serve a whole family (e.g. both [Diag_scale] sides). *)

val register : ?backend:backend -> ?fmt:fmt -> string -> impl -> unit
(** [register name impl] binds [impl] for primitives whose
    {!Primitive.name} is [name] (defaults: [Cpu], [Fmt_csr]). Re-registering
    replaces the previous implementation. *)

val lookup : ?backend:backend -> fmt:fmt -> string -> impl option
(** Non-CSR formats fall back to the [Fmt_csr] entry when no format-specific
    kernel is registered, so only primitives with a genuine localized
    variant need extra registrations. *)

val registered : ?backend:backend -> unit -> string list
(** Registry keys for a backend, sorted — a diagnostic view. *)

val fmt_to_string : fmt -> string

val format_of : ctx -> Primitive.t -> value array -> fmt
(** The operand format {!exec} would dispatch a step under — exposed so the
    telemetry layer can attribute a span to the kernel that actually ran. *)

val exec :
  ?backend:backend -> ctx -> Primitive.t -> Granii_graph.Graph.t ->
  value array -> value
(** Execute one primitive: pick the operand format (non-CSR when the context
    has a registered localized form for the step's sparse operand), look the
    implementation up and run it. Raises {!Execution_error} when no
    implementation is registered. *)

val kernels_of_step :
  Primitive.t -> Granii_graph.Graph.t -> value array -> value ->
  Granii_hw.Kernel_model.kernel list
(** The analytic kernels of one executed step, sized from the actual operand
    values (so sampling or precomputed sparse intermediates are charged
    their true nnz) — the basis of [Simulate]-mode timing. *)
