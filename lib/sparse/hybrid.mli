(** Hybrid row-split sparse format (ELL slab + CSR tail, SELL-C-σ-lite).

    The locality engine's second format: each row's first [width] entries are
    packed into a dense row-major slab ([ell_cols]/[ell_vals]); the remainder
    spills into a CSR [tail]. Both halves preserve the source row's entry
    order, so every kernel here accumulates each output element over exactly
    the same term sequence as the {!Csr} kernels — results are bitwise
    identical, which is what lets the selector switch formats per input
    without perturbing the numerics (and what the differential tests pin).

    Profitable when the degree distribution is skewed: the bulk of the (short)
    rows become branch-light slab walks whose column indices pack densely,
    while only the hubs pay the irregular tail. {!packing} quantifies how well
    a given width fits — the featurizer feeds it to the cost model. *)

type t = private {
  n_rows : int;
  n_cols : int;
  width : int;                   (** ELL slab width (columns per row) *)
  ell_len : int array;           (** per-row packed count, [min(degree, width)] *)
  ell_cols : int array;          (** [n_rows * width] row-major; padding slots unread *)
  ell_vals : float array option; (** [None] = unweighted *)
  tail : Csr.t;                  (** spill rows (entries beyond [width]) *)
  src : Csr.t;                   (** source matrix ([row_ptr] reused for chunking) *)
}

val of_csr : ?width:int -> Csr.t -> t
(** Splits a CSR matrix. Default [width] is the mean degree rounded up;
    [width] is clamped to at least 1. *)

val to_csr : t -> Csr.t
(** Reconstructs the CSR matrix from slab + tail. Exact round-trip:
    [to_csr (of_csr m)] equals [m] structurally and bitwise. *)

val nnz : t -> int

val ell_nnz : t -> int
(** Entries stored in the slab. *)

val tail_nnz : t -> int
(** Entries spilled to the CSR tail. *)

val packing : t -> float
(** Slab occupancy in [0, 1]: [ell_nnz / (n_rows * width)]. *)

val is_weighted : t -> bool

val spmm :
  ?pool:Granii_tensor.Parallel.t -> ?ws:Granii_tensor.Workspace.t ->
  t -> Granii_tensor.Dense.t -> Granii_tensor.Dense.t
(** Plus-times g-SpMM, bitwise identical to [Spmm.run src b]. Feature
    dimension register-blocked 4-wide; rows chunked nonzero-balanced. *)

val sddmm :
  ?pool:Granii_tensor.Parallel.t -> ?ws:Granii_tensor.Workspace.t ->
  t -> Granii_tensor.Dense.t -> Granii_tensor.Dense.t -> Csr.t
(** Plus-times g-SDDMM; the output values land in the source CSR layout, so
    the result is bitwise identical to [Sddmm.run src a b]. *)

val rank1 :
  ?pool:Granii_tensor.Parallel.t -> ?ws:Granii_tensor.Workspace.t ->
  t -> float array -> float array -> Csr.t
(** Rank-1 SDDMM (attention scores), bitwise identical to
    [Sddmm.rank1 src d_left d_right]. *)

val pp : Format.formatter -> t -> unit
