(** Compressed-sparse-row matrices.

    The computation format for all sparse primitives. A CSR matrix is either
    {e weighted} ([values = Some _]) or {e unweighted} ([values = None],
    every stored entry implicitly [1.]) — the distinction matters because the
    paper's cheaper aggregation for unweighted graphs (Appendix B) never
    touches edge values, and the matrix-IR sub-attributes
    [weighted]/[unweighted] (Table I) are exactly this flag. *)

type t = private {
  n_rows : int;
  n_cols : int;
  row_ptr : int array;        (** length [n_rows + 1] *)
  col_idx : int array;
      (** length [nnz], column indices. {!of_coo} and {!of_dense} give
          rows strictly increasing (sorted, no duplicates); {!make} does
          not check order, and {!Granii_graph.Reorder.permute_csr} keeps
          source entry order, so its rows are unsorted on purpose. {!get}
          and [Bsr.of_csr] need strictly increasing rows. *)
  values : float array option; (** [None] = unweighted (all entries 1.) *)
}

val of_coo : ?keep_values:bool -> Coo.t -> t
(** Converts from COO. With [keep_values:false] (default [true]) the values
    are dropped and the result is unweighted. *)

val make :
  n_rows:int -> n_cols:int -> row_ptr:int array -> col_idx:int array ->
  values:float array option -> t
(** Direct constructor; validates monotone [row_ptr], array lengths, and
    column bounds, but not the order of columns within a row. *)

val nnz : t -> int

val is_weighted : t -> bool

val value : t -> int -> float
(** [value m p] is the value of the [p]-th stored entry ([1.] when
    unweighted). *)

val with_values : t -> float array -> t
(** Replaces the value array (same structure). Raises [Invalid_argument] on a
    length mismatch. *)

val drop_values : t -> t
(** Forgets values, yielding the unweighted structure. *)

val row_degrees : t -> int array
(** Number of stored entries per row (out-degree). *)

val col_degrees : t -> int array
(** Number of stored entries per column (in-degree). *)

val transpose : t -> t
(** Structure-and-value transpose in O(nnz). *)

val counting_scatter :
  n_buckets:int -> bucket:(int -> int -> int) -> t ->
  int array * int array * int array
(** [counting_scatter ~n_buckets ~bucket m] distributes the stored entries
    into stable buckets with one counting pass. [bucket row p] names the
    destination bucket of the [p]-th stored entry (which lives in [row]).
    Returns [(ptr, order, src_row)]: [ptr] is the bucket prefix (length
    [n_buckets + 1]), and for each destination slot [q],
    [order.(q)] is the source entry position and [src_row.(q)] its source
    row. Entries are scattered in row-major storage order, so each bucket
    preserves that order — {!Csc.of_csr} gets per-column sorted rows and the
    reorder engine gets permuted rows whose entry (and FP accumulation)
    order matches the source bit for bit. *)

val get : t -> int -> int -> float
(** [get m i j] is the entry at [(i, j)], [0.] if not stored. Binary search
    within the row. *)

val to_dense : t -> Granii_tensor.Dense.t

val of_dense : ?eps:float -> Granii_tensor.Dense.t -> t
(** Sparsifies a dense matrix, keeping entries with magnitude above [eps]
    (default: keep exact non-zeros). *)

val map_values : (float -> float) -> t -> t
(** Applies [f] to every stored value (an unweighted matrix is materialized
    as weighted first). *)

val equal_structure : t -> t -> bool
(** Same dimensions and sparsity pattern. *)

val equal_approx : ?eps:float -> t -> t -> bool
(** Same structure and approximately equal values. *)

val iter : (int -> int -> float -> unit) -> t -> unit
(** [iter f m] calls [f row col value] for every stored entry. *)

val pp : Format.formatter -> t -> unit
