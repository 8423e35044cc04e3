(** Code generation for promoted candidates (paper, Sec. IV-D).

    The offline stage's output: each promoted association tree is lowered to
    an executable {!Plan.t}, and the whole set is wrapped in the runtime
    dispatch structure of Fig. 7 — candidates that can only win under one
    embedding-size scenario are guarded by a plain size comparison, and the
    remainder are discriminated by the cost models at runtime. *)

type ccand = {
  tree : Assoc_tree.t;
  scenarios : Dim.scenario list;
  plan : Plan.t;
}

type t = {
  model_name : string;
  candidates : ccand list;  (** promoted candidates, in enumeration order *)
}

val compile :
  ?hoist:bool -> ?degree_leaves:(string * Plan.degree_spec) list ->
  name:string -> Prune.result -> t
(** Lowers every promoted candidate. [hoist] and [degree_leaves] are passed
    to {!Plan.of_tree}; GRANII-generated code hoists by default. *)

val for_scenario : t -> Dim.scenario -> ccand list
(** Candidates whose annotation allows the scenario. *)

val pp : Format.formatter -> t -> unit
(** Fig. 7-style pseudocode of the generated conditional dispatch. *)
