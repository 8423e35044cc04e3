(** The message-passing front-end language (paper, Sec. IV-B).

    GNN models are written against this small typed surface, mirroring the
    message-passing APIs of DGL / WiseGraph that GRANII's rule-based parser
    consumes. Each combinator corresponds to a framework construct:

    {v
    combinator            framework construct
    ---------------------------------------------------------------
    Aggregate             g.update_all(copy_u, sum)        (g-SpMM)
    Scale_by_norm         feat * D^{-1/2} row-broadcast
    Scale_by_inv_degree   feat * D^{-1}   row-broadcast (mean agg)
    Linear                feat @ W                          (GEMM)
    Eps_scale             (1 + eps) * feat   (GIN's self term)
    Attention             g.apply_edges(...) + edge_softmax (GAT)
    Activation            torch.relu / leaky_relu / ...
    v}

    {!Lower} translates a program into the {!Granii_core.Matrix_ir}; the
    translation is the analogue of the paper's Python-AST parser. *)

type feat =
  | Input  (** the layer's input node features {m H^{(l-1)}} ([N]x[Kin]) *)
  | Linear of string * feat
      (** [Linear (w, f)]: update {m f \cdot W_w} *)
  | Aggregate of feat
      (** neighbor sum over {m \tilde A} (adjacency with self-loops) *)
  | Scale_by_norm of feat
      (** row-scale by {m \tilde D^{-1/2}} (GCN symmetric normalization) *)
  | Scale_by_inv_degree of feat
      (** row-scale by {m \tilde D^{-1}} (mean aggregation) *)
  | Eps_scale of feat
      (** scale by the constant {m (1 + \epsilon)} diagonal (GIN) *)
  | Sum of feat list
  | Activation of Granii_core.Matrix_ir.nonlinear * feat
  | Attention_aggregate of { value : feat }
      (** GAT: compute attention scores from [value] (the updated
          embeddings {m \Theta}), edge-softmax them into {m \alpha}, and
          aggregate [value] with {m \alpha}. The sub-expression is shared
          between scoring and aggregation — exactly the reuse opportunity of
          Sec. III-B. *)

(** Shapes of the learnable weights a program references. *)
type weight_spec = {
  w_name : string;
  w_rows : Granii_core.Dim.t;
  w_cols : Granii_core.Dim.t;
}

type model = {
  name : string;
  program : feat;
  weights : weight_spec list;
  attention : bool;  (** whether the model uses attention vectors *)
}

val validate : model -> unit
(** Checks that every [Linear] weight has a spec and vice versa; raises
    [Invalid_argument] otherwise. *)
