(** GRANII's matrix intermediate representation (paper, Sec. IV-B).

    A tree whose leaves are matrices carrying attributes (Table I) and whose
    internal nodes are matrix operations. Unlike a plain computation graph,
    {e associative multiplication chains are kept flat at a single level}
    ([Mult] of a list), which is what lets the enumeration stage walk all
    re-associations. Non-linear functions are barriers: re-association never
    crosses them (Sec. IV-B, "Code Translation"). *)

type dense_sub =
  | Data    (** activations / node features *)
  | Weight  (** learnable parameters *)

type sparse_sub =
  | Weighted    (** stored non-zero values are meaningful *)
  | Unweighted  (** only the non-zero positions matter *)
  | Diagonal    (** a diagonal matrix, stored as a vector at runtime *)

type attr = Dense of dense_sub | Sparse of sparse_sub

type nonlinear = Relu | Leaky_relu | Sigmoid | Edge_softmax | Log_softmax

type leaf = { name : string; rows : Dim.t; cols : Dim.t; attr : attr }

type expr =
  | Leaf of leaf
  | Mult of expr list
      (** flat associative multiplication chain; length at least 2 *)
  | Add of expr list
      (** elementwise sum of same-shaped operands; length at least 2 *)
  | Row_broadcast of expr * expr
      (** [(d, x)]: scale row [i] of dense [x] by the [i]-th diagonal entry
          of [d] (Eq. 1). Present before the rewrite pass; {!Rewrite}
          replaces it by a [Mult] with the diagonal. *)
  | Col_broadcast of expr * expr
      (** [(x, d)]: scale column [j] of [x] by [d]'s [j]-th entry *)
  | Nonlinear of nonlinear * expr  (** a re-association barrier *)
  | Edge_score of { mask : expr; feats : expr; attn_src : leaf; attn_dst : leaf }
      (** GAT attention scores: for every stored edge {m (i, j)} of [mask],
          {m a_{src}^\top \theta_i + a_{dst}^\top \theta_j} where
          {m \theta = } [feats]. Produces a weighted sparse matrix with
          [mask]'s structure. [feats] is an arbitrary sub-expression — the
          updated embeddings {m H W} — which is what the reuse-based GAT
          composition shares with aggregation (Sec. III-B). *)

(** {1 Leaf constructors} *)

val adjacency : ?weighted:bool -> string -> leaf
(** [N]x[N] sparse adjacency (unweighted by default). *)

val diagonal : string -> leaf
(** [N]x[N] diagonal, e.g. {m \tilde D^{-1/2}}. *)

val features : string -> leaf
(** [N]x[Kin] dense data (node embeddings). *)

val weight : ?rows:Dim.t -> ?cols:Dim.t -> string -> leaf
(** Dense learnable weight, [Kin]x[Kout] by default. *)

(** {1 Shape and attribute inference} *)

exception Ill_formed of string

val infer : expr -> (Dim.t * Dim.t) * attr
(** Shape and attribute of an expression. Raises {!Ill_formed} on
    inner-dimension mismatches, mis-shaped [Add] operands, non-diagonal
    broadcast operands, or chains shorter than two elements. *)

val shape : expr -> Dim.t * Dim.t

val is_diagonal : expr -> bool

val is_sparse : expr -> bool

val is_dense : expr -> bool

(** {1 Structure} *)

val leaves : expr -> leaf list
(** All leaves, left to right, duplicates preserved. *)

val key : expr -> string
(** Canonical structural key; equal keys = identical computations. Used for
    common-subexpression detection. *)

val equal : expr -> expr -> bool

val pp_nonlinear : Format.formatter -> nonlinear -> unit

val pp : Format.formatter -> expr -> unit
