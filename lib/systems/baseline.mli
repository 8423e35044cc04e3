(** Default (hard-coded) primitive compositions of the baseline systems.

    For a (system, model) pair this module materializes the composition the
    framework's stock implementation uses, selected from the same
    enumeration space GRANII explores:

    - the {e dynamic-normalization} form (row-broadcasts + unweighted SpMM,
      Eq. 2) — what both frameworks hard-code for GCN-family models;
    - the update GEMM placed by embedding sizes when the implementation
      reorders by configuration, and at the model's fixed default position
      otherwise (Sec. VI-B/VI-C1);
    - GAT's reuse/recompute per the system's policy (Sec. III-B);
    - {e no hoisting} and the system's degree kernel (see {!System}). *)

type t

val make : System.t -> Granii_mp.Mp_ast.model -> t
(** Prepares the baseline for a model (enumerates the model's composition
    space once; memoized per model). *)

val plan : t -> k_in:int -> k_out:int -> Granii_core.Plan.t
(** The default composition the system would execute for this
    configuration. *)

val lowered : t -> Granii_mp.Lower.lowered

val system : t -> System.t

(** {1 Classification helpers (exposed for tests and oracles)} *)

val gemm_count : Granii_core.Assoc_tree.t -> int
