(** Generalized sampled dense-dense matrix multiplication (g-SDDMM).

    Computes a dense-dense product only at the non-zero positions of a sparse
    mask: {m C_{ij} = M_{ij} \otimes (A \cdot B)_{ij}} for {m (i,j)} stored in
    [M] (paper, Sec. II-B and Appendix A). GAT's attention-score computation
    and GCN's pre-computed normalization {m \tilde D^{-1/2} \tilde A
    \tilde D^{-1/2}} (Eq. 3) are both SDDMM instances. *)

val run :
  ?semiring:Granii_tensor.Semiring.t -> ?pool:Granii_tensor.Parallel.t ->
  ?ws:Granii_tensor.Workspace.t -> ?tile_k:int ->
  Csr.t -> Granii_tensor.Dense.t -> Granii_tensor.Dense.t -> Csr.t
(** [run mask a b] evaluates {m (A \cdot B)} sampled at [mask]'s stored
    positions, each multiplied ({m \otimes}) by the mask value. [a] is
    [n_rows]x[k], [b] is [k]x[n_cols]. The result has [mask]'s structure and
    is weighted. Wide feature dimensions are accumulated in cache-resident
    strips ([?tile_k] sets the strip width); tiled and untiled kernels
    are bitwise identical. Raises [Invalid_argument] on dimension
    mismatches. *)

val rank1 : ?pool:Granii_tensor.Parallel.t -> ?ws:Granii_tensor.Workspace.t ->
  Csr.t -> Granii_tensor.Vector.t -> Granii_tensor.Vector.t -> Csr.t
(** [rank1 mask d_left d_right] is the rank-1 SDDMM
    {m C_{ij} = M_{ij} \cdot d^{L}_i \cdot d^{R}_j}: the kernel behind GCN's
    precomputation-based composition, where both dense factors are diagonal
    normalization vectors. *)

val dot_rows : ?pool:Granii_tensor.Parallel.t -> ?ws:Granii_tensor.Workspace.t ->
  ?tile_k:int -> Csr.t -> Granii_tensor.Dense.t -> Granii_tensor.Dense.t -> Csr.t
(** [dot_rows mask x y] computes, at each stored position {m (i,j)}, the dot
    product {m \langle x_{i,:}, y_{j,:}\rangle} scaled by the mask value —
    i.e. [run mask x (transpose y)] without materializing the transpose.
    This is the edge-score pattern of attention models. *)
