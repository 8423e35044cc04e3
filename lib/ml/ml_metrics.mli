(** Regression quality metrics for cost-model evaluation (Sec. VI-G). *)

val rmse : float array -> float array -> float
(** Root mean squared error. Raises [Invalid_argument] on length mismatch or
    empty input. *)

val mae : float array -> float array -> float

val r2 : float array -> float array -> float
(** Coefficient of determination w.r.t. the mean predictor. *)

val spearman : float array -> float array -> float
(** Spearman rank correlation — the metric that matters for GRANII, since
    selection only needs the cost {e ordering} to be right. Ties receive
    averaged ranks. *)

val pairwise_ranking_accuracy : float array -> float array -> float
(** Fraction of sample pairs whose predicted order matches the true order
    (ties in the truth are skipped). *)
