module Vector = Granii_tensor.Vector
module Parallel = Granii_tensor.Parallel
module Workspace = Granii_tensor.Workspace

let scale_rows ?pool ?ws d (a : Csr.t) =
  if Array.length d <> a.Csr.n_rows then
    invalid_arg "Sparse_ops.scale_rows: dimension mismatch";
  let count = Csr.nnz a in
  let out = Workspace.alloc_uninit ws count in
  Parallel.rows_weighted ?pool ~prefix:a.Csr.row_ptr (fun lo hi ->
      for i = lo to hi - 1 do
        for p = a.Csr.row_ptr.(i) to a.Csr.row_ptr.(i + 1) - 1 do
          out.(p) <- d.(i) *. Csr.value a p
        done
      done);
  Csr.with_values a out

let scale_cols ?pool ?ws (a : Csr.t) d =
  if Array.length d <> a.Csr.n_cols then
    invalid_arg "Sparse_ops.scale_cols: dimension mismatch";
  let count = Csr.nnz a in
  let out = Workspace.alloc_uninit ws count in
  (* value-parallel, not row-parallel: the entry stream is the only index *)
  Parallel.rows ?pool ~n:count (fun lo hi ->
      for p = lo to hi - 1 do
        out.(p) <- Csr.value a p *. d.(a.Csr.col_idx.(p))
      done);
  Csr.with_values a out

let scale_bilateral ?pool ?ws dl (a : Csr.t) dr = Sddmm.rank1 ?pool ?ws a dl dr

let add (a : Csr.t) (b : Csr.t) =
  if a.Csr.n_rows <> b.Csr.n_rows || a.Csr.n_cols <> b.Csr.n_cols then
    invalid_arg "Sparse_ops.add: shape mismatch";
  let entries = ref [] in
  Csr.iter (fun i j v -> entries := (i, j, v) :: !entries) a;
  Csr.iter (fun i j v -> entries := (i, j, v) :: !entries) b;
  Csr.of_coo
    (Coo.make ~n_rows:a.Csr.n_rows ~n_cols:a.Csr.n_cols (Array.of_list !entries))

let row_softmax ?pool ?ws (a : Csr.t) =
  let count = Csr.nnz a in
  let out = Workspace.alloc ws count in
  (* read the value array directly: a [Csr.value] call per entry would box
     its float result on every inner-loop read *)
  let vals = a.Csr.values in
  Parallel.rows_weighted ?pool ~prefix:a.Csr.row_ptr (fun rlo rhi ->
      for i = rlo to rhi - 1 do
        let lo = a.Csr.row_ptr.(i) and hi = a.Csr.row_ptr.(i + 1) - 1 in
        if hi >= lo then
          match vals with
          | None ->
              (* unweighted: softmax of equal scores is uniform over the row *)
              let u = 1. /. float_of_int (hi - lo + 1) in
              for p = lo to hi do
                out.(p) <- u
              done
          | Some v ->
              let mx = ref neg_infinity in
              for p = lo to hi do
                if Array.unsafe_get v p > !mx then mx := Array.unsafe_get v p
              done;
              let total = ref 0. in
              for p = lo to hi do
                let e = exp (Array.unsafe_get v p -. !mx) in
                out.(p) <- e;
                total := !total +. e
              done;
              for p = lo to hi do
                out.(p) <- out.(p) /. !total
              done
      done);
  Csr.with_values a out

let row_sums (a : Csr.t) =
  Vector.init a.Csr.n_rows (fun i ->
      let acc = ref 0. in
      for p = a.Csr.row_ptr.(i) to a.Csr.row_ptr.(i + 1) - 1 do
        acc := !acc +. Csr.value a p
      done;
      !acc)

let binned_degrees (a : Csr.t) =
  (* Semantically a scatter-add over destination bins, exactly what
     WiseGraph's binning function computes. Sequentially there is no atomic
     cost; the hardware model charges contention for it on GPUs. *)
  let bins = Vector.zeros a.Csr.n_rows in
  for i = 0 to a.Csr.n_rows - 1 do
    for p = a.Csr.row_ptr.(i) to a.Csr.row_ptr.(i + 1) - 1 do
      ignore p;
      bins.(i) <- bins.(i) +. 1.
    done
  done;
  bins
