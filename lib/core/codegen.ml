type ccand = {
  tree : Assoc_tree.t;
  scenarios : Dim.scenario list;
  plan : Plan.t;
}

type t = {
  model_name : string;
  candidates : ccand list;
}

let compile ?hoist ?degree_leaves ~name (pruned : Prune.result) =
  let candidates =
    List.mapi
      (fun i (c : Prune.candidate) ->
        { tree = c.Prune.tree;
          scenarios = c.Prune.scenarios;
          plan =
            Plan.of_tree ?hoist ?degree_leaves
              ~name:(Printf.sprintf "%s_a%d" name i)
              c.Prune.tree })
      pruned.Prune.promoted
  in
  { model_name = name; candidates }

let for_scenario t scenario =
  List.filter (fun c -> List.mem scenario c.scenarios) t.candidates

let pp ppf t =
  Format.fprintf ppf "@[<v>def %s(graph, feats, k_in, k_out):@," t.model_name;
  List.iter
    (fun scenario ->
      let guard =
        match scenario with
        | Dim.Shrinking -> "k_in >= k_out"
        | Dim.Growing -> "k_in < k_out"
      in
      Format.fprintf ppf "  if %s:@," guard;
      match for_scenario t scenario with
      | [] -> Format.fprintf ppf "    pass  # no candidate@,"
      | [ only ] ->
          Format.fprintf ppf "    return run(%s)  # decided by embedding sizes alone@,"
            only.plan.Plan.name
      | several ->
          Format.fprintf ppf "    costs = {@,";
          List.iter
            (fun c ->
              Format.fprintf ppf "      %s: %s,@," c.plan.Plan.name
                (String.concat " + "
                   (List.map
                      (fun p -> Format.asprintf "cost[%s]" (Primitive.name p))
                      (Plan.primitives c.plan))))
            several;
          Format.fprintf ppf "    }@,    return run(argmin(costs))@,")
    Dim.all_scenarios;
  Format.fprintf ppf "@]"
