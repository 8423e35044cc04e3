(** Supervised regression datasets for the cost models. *)

type t = private {
  features : float array array;  (** row-major: one row per sample *)
  labels : float array;
  n_features : int;
}

val make : float array array -> float array -> t
(** Validates rectangularity and matching lengths. Raises [Invalid_argument]
    on empty or inconsistent data. *)

val n_samples : t -> int

val split : ?seed:int -> train_fraction:float -> t -> t * t
(** Random train/validation split (deterministic in [seed], default [0]).
    Each side is guaranteed at least one sample; raises [Invalid_argument]
    if the dataset has fewer than two samples. *)

val subset : t -> int array -> t
(** Rows selected by index (with repetition allowed — used for bootstrap
    subsampling). *)
