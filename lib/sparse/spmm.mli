(** Generalized sparse-matrix dense-matrix multiplication (g-SpMM).

    Computes {m C_{i,:} = \bigoplus_{j \in N(i)} A_{ij} \otimes B_{j,:}} for a
    CSR matrix [A] and dense [B] over a {!Granii_tensor.Semiring.t}
    (paper, Sec. II-B and Appendix A). The node-feature aggregation of every
    GNN model lowers to this primitive. *)

val run : ?semiring:Granii_tensor.Semiring.t -> ?pool:Granii_tensor.Parallel.t ->
  ?ws:Granii_tensor.Workspace.t -> ?tile_k:int ->
  Csr.t -> Granii_tensor.Dense.t -> Granii_tensor.Dense.t
(** [run a b] is {m A \cdot B}. Defaults to {!Granii_tensor.Semiring.plus_times}.
    When [a] is unweighted and the semiring multiplication is [plus_times] or
    [plus_rhs], the kernel skips reading edge values entirely — the paper's
    cheaper unweighted aggregation. Raises [Invalid_argument] on an inner
    dimension mismatch. With [?pool], output rows are chunked with the
    nonzero-balanced partitioner and computed in parallel. Wide feature
    dimensions are processed in cache-resident strips ([?tile_k] sets
    the strip width, mainly for testing). Tiled, untiled, and parallel
    kernels are all bitwise identical on every semiring. With [?ws], the
    output buffer comes from the workspace. *)

val run_transposed : ?pool:Granii_tensor.Parallel.t ->
  ?ws:Granii_tensor.Workspace.t -> Granii_tensor.Dense.t ->
  Csr.t -> Granii_tensor.Dense.t
(** [run_transposed b a] is the dense-times-sparse product {m B \cdot A} over
    the arithmetic semiring, evaluated without materializing [A]'s transpose
    (scatter along the stored entries). *)

val spmv : ?semiring:Granii_tensor.Semiring.t -> ?pool:Granii_tensor.Parallel.t ->
  Csr.t -> Granii_tensor.Vector.t -> Granii_tensor.Vector.t
(** Sparse matrix–vector product, the [k = 1] special case. *)
