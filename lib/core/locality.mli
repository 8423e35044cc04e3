(** Locality configurations: {e data layout} as a cost-modeled decision.

    A configuration pairs a vertex ordering ({!Granii_graph.Reorder.strategy})
    with a sparse format for the g-kernels. The selector ranks
    {m \{ordering\} \times \{format\} \times \{primitive composition\}}
    jointly per input: each configuration contributes a one-time layout cost
    ({!layout_kernels}) and a per-kernel gather discount
    ({!gather_discount}) derived from the input's layout statistics
    (packing efficiency, degree skew, bandwidth) and the hardware profile's
    per-format terms.

    Execution under a non-default configuration is bitwise-transparent: the
    executor permutes the graph and bindings on entry, runs stable-permuted /
    hybrid kernels, and inverse-permutes the output (see {!Executor.exec}
    on an engine with a non-default [locality] axis). *)

type format = Csr | Hybrid | Bsr | Cbm

type config = { strategy : Granii_graph.Reorder.strategy; format : format }

val default : config
(** [identity + csr] — the legacy path; always considered first. *)

val is_default : config -> bool

val legal : config -> bool
(** Whether the pair can honor the bitwise contract. [Bsr] tiles accumulate
    each row in ascending column order — the CSR kernel order only under the
    identity ordering, because reordered matrices keep {e source} entry
    order ({!Granii_graph.Reorder.permute_csr}). [Hybrid] and [Cbm]
    preserve per-row storage order and compose with any strategy. *)

val all_configs : config list
(** Every {!legal} strategy × format pair, {!default} first. *)

val all_formats : format list

val format_to_string : format -> string

val format_of_string : string -> format option
(** Accepts ["csr"], ["hybrid"]/["ell"], ["bsr"], ["cbm"]. *)

val config_to_string : config -> string
(** E.g. ["degree+hybrid"]. *)

val gather_discount :
  Granii_hw.Hw_profile.t -> Granii_graph.Graph_features.t -> config -> float
(** Predicted fraction of g-kernel random-gather traffic removed, composing
    the format and ordering credits as independent survival probabilities. *)

val layout_kernels :
  n:int -> nnz:int -> config -> Granii_hw.Kernel_model.kernel list
(** The one-time counting-scatter passes the configuration requires. The
    timed counterparts ([layout_time], [plan_adjustment]) live on
    {!Cost_oracle} — this module only describes the structure. *)

val pp : Format.formatter -> config -> unit
