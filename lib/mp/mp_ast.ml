type feat =
  | Input
  | Linear of string * feat
  | Aggregate of feat
  | Scale_by_norm of feat
  | Scale_by_inv_degree of feat
  | Eps_scale of feat
  | Sum of feat list
  | Activation of Granii_core.Matrix_ir.nonlinear * feat
  | Attention_aggregate of { value : feat }

type weight_spec = {
  w_name : string;
  w_rows : Granii_core.Dim.t;
  w_cols : Granii_core.Dim.t;
}

type model = {
  name : string;
  program : feat;
  weights : weight_spec list;
  attention : bool;
}

let rec used_weights = function
  | Input -> []
  | Linear (w, f) -> w :: used_weights f
  | Aggregate f | Scale_by_norm f | Scale_by_inv_degree f | Eps_scale f
  | Activation (_, f) ->
      used_weights f
  | Sum fs -> List.concat_map used_weights fs
  | Attention_aggregate { value } -> used_weights value

let validate model =
  let used = List.sort_uniq compare (used_weights model.program) in
  let declared = List.sort_uniq compare (List.map (fun s -> s.w_name) model.weights) in
  List.iter
    (fun w ->
      if not (List.mem w declared) then
        invalid_arg (Printf.sprintf "Mp_ast.validate: weight %s has no spec" w))
    used;
  List.iter
    (fun w ->
      if not (List.mem w used) then
        invalid_arg (Printf.sprintf "Mp_ast.validate: unused weight spec %s" w))
    declared
