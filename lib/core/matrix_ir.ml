type dense_sub = Data | Weight
type sparse_sub = Weighted | Unweighted | Diagonal
type attr = Dense of dense_sub | Sparse of sparse_sub

type nonlinear = Relu | Leaky_relu | Sigmoid | Edge_softmax | Log_softmax

type leaf = { name : string; rows : Dim.t; cols : Dim.t; attr : attr }

type expr =
  | Leaf of leaf
  | Mult of expr list
  | Add of expr list
  | Row_broadcast of expr * expr
  | Col_broadcast of expr * expr
  | Nonlinear of nonlinear * expr
  | Edge_score of { mask : expr; feats : expr; attn_src : leaf; attn_dst : leaf }

let adjacency ?(weighted = false) name =
  { name;
    rows = Dim.N;
    cols = Dim.N;
    attr = Sparse (if weighted then Weighted else Unweighted) }

let diagonal name = { name; rows = Dim.N; cols = Dim.N; attr = Sparse Diagonal }
let features name = { name; rows = Dim.N; cols = Dim.Kin; attr = Dense Data }

let weight ?(rows = Dim.Kin) ?(cols = Dim.Kout) name =
  { name; rows; cols; attr = Dense Weight }

exception Ill_formed of string

let ill fmt = Format.kasprintf (fun s -> raise (Ill_formed s)) fmt

let rec infer = function
  | Leaf l -> ((l.rows, l.cols), l.attr)
  | Mult es ->
      if List.length es < 2 then ill "Mult chain must have at least two elements";
      let shapes = List.map infer es in
      let rec check = function
        | ((_, c1), _) :: (((r2, _), _) as next) :: rest ->
            if not (Dim.equal c1 r2) then
              ill "Mult: inner dimension mismatch (%a vs %a)" Dim.pp c1 Dim.pp r2;
            check (next :: rest)
        | [ _ ] | [] -> ()
      in
      check shapes;
      let (r0, _), _ = List.hd shapes in
      let (_, cn), _ = List.nth shapes (List.length shapes - 1) in
      let attrs = List.map snd shapes in
      let result_attr =
        if List.exists (function Dense _ -> true | Sparse _ -> false) attrs then
          Dense Data
        else if List.for_all (function Sparse Diagonal -> true | _ -> false) attrs
        then Sparse Diagonal
        else Sparse Weighted
      in
      ((r0, cn), result_attr)
  | Add es ->
      if List.length es < 2 then ill "Add must have at least two operands";
      let shapes = List.map infer es in
      let (r0, c0), _ = List.hd shapes in
      List.iter
        (fun ((r, c), _) ->
          if not (Dim.equal r r0 && Dim.equal c c0) then
            ill "Add: operand shape mismatch")
        shapes;
      let attrs = List.map snd shapes in
      let result_attr =
        if List.exists (function Dense _ -> true | Sparse _ -> false) attrs then
          Dense Data
        else if List.for_all (function Sparse Diagonal -> true | _ -> false) attrs
        then Sparse Diagonal
        else Sparse Weighted
      in
      ((r0, c0), result_attr)
  | Row_broadcast (d, x) ->
      let (dr, _), dattr = infer d in
      let (xr, xc), xattr = infer x in
      (match dattr with
      | Sparse Diagonal -> ()
      | Dense _ | Sparse (Weighted | Unweighted) ->
          ill "Row_broadcast: first operand must be diagonal");
      (match xattr with
      | Dense _ -> ()
      | Sparse _ -> ill "Row_broadcast: second operand must be dense");
      if not (Dim.equal dr xr) then ill "Row_broadcast: row dimension mismatch";
      ((xr, xc), Dense Data)
  | Col_broadcast (x, d) ->
      let (xr, xc), xattr = infer x in
      let (dr, _), dattr = infer d in
      (match dattr with
      | Sparse Diagonal -> ()
      | Dense _ | Sparse (Weighted | Unweighted) ->
          ill "Col_broadcast: second operand must be diagonal");
      (match xattr with
      | Dense _ -> ()
      | Sparse _ -> ill "Col_broadcast: first operand must be dense");
      if not (Dim.equal xc dr) then ill "Col_broadcast: column dimension mismatch";
      ((xr, xc), Dense Data)
  | Nonlinear (kind, e) ->
      let shape, attr = infer e in
      (match (kind, attr) with
      | Edge_softmax, Sparse (Weighted | Unweighted) -> (shape, Sparse Weighted)
      | Edge_softmax, (Dense _ | Sparse Diagonal) ->
          ill "Edge_softmax applies to sparse edge scores"
      | (Relu | Leaky_relu | Sigmoid | Log_softmax), Dense _ -> (shape, Dense Data)
      | (Relu | Leaky_relu | Sigmoid | Log_softmax), Sparse _ ->
          ill "dense non-linearity applied to a sparse expression")
  | Edge_score { mask; feats; attn_src; attn_dst } ->
      let (mr, mc), mattr = infer mask in
      let (fr, fc), fattr = infer feats in
      (match mattr with
      | Sparse (Weighted | Unweighted) -> ()
      | Dense _ | Sparse Diagonal -> ill "Edge_score: mask must be sparse");
      (match fattr with
      | Dense _ -> ()
      | Sparse _ -> ill "Edge_score: feats must be dense");
      if not (Dim.equal mr fr && Dim.equal mc fr) then
        ill "Edge_score: mask and feature dimensions disagree";
      List.iter
        (fun (l : leaf) ->
          if not (Dim.equal l.rows fc && Dim.equal l.cols Dim.One) then
            ill "Edge_score: attention vector must be (feat-dim x 1)")
        [ attn_src; attn_dst ];
      ((mr, mc), Sparse Weighted)

let shape e = fst (infer e)
let attr_of e = snd (infer e)

let is_diagonal e = match attr_of e with Sparse Diagonal -> true | _ -> false
let is_sparse e = match attr_of e with Sparse _ -> true | Dense _ -> false
let is_dense e = match attr_of e with Dense _ -> true | Sparse _ -> false

let rec leaves = function
  | Leaf l -> [ l ]
  | Mult es | Add es -> List.concat_map leaves es
  | Row_broadcast (a, b) | Col_broadcast (a, b) -> leaves a @ leaves b
  | Nonlinear (_, e) -> leaves e
  | Edge_score { mask; feats; attn_src; attn_dst } ->
      leaves mask @ leaves feats @ [ attn_src; attn_dst ]

let pp_nonlinear ppf = function
  | Relu -> Format.fprintf ppf "relu"
  | Leaky_relu -> Format.fprintf ppf "leaky_relu"
  | Sigmoid -> Format.fprintf ppf "sigmoid"
  | Edge_softmax -> Format.fprintf ppf "edge_softmax"
  | Log_softmax -> Format.fprintf ppf "log_softmax"

let rec pp ppf = function
  | Leaf l -> Format.fprintf ppf "%s" l.name
  | Mult es ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " . ") pp)
        es
  | Add es ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " + ") pp)
        es
  | Row_broadcast (d, x) -> Format.fprintf ppf "(%a (x)r %a)" pp d pp x
  | Col_broadcast (x, d) -> Format.fprintf ppf "(%a (x)c %a)" pp x pp d
  | Nonlinear (k, e) -> Format.fprintf ppf "%a(%a)" pp_nonlinear k pp e
  | Edge_score { mask; feats; attn_src; attn_dst } ->
      Format.fprintf ppf "atten(%a, %a, %s, %s)" pp mask pp feats attn_src.name
        attn_dst.name

let key e = Format.asprintf "%a" pp e

let equal a b = String.equal (key a) (key b)
