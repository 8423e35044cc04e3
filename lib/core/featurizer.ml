module Gf = Granii_graph.Graph_features

type t = {
  graph_features : float array;
  stats : Gf.t;
  extraction_time : float;
  threads : int;
}

let extract ?(threads = 1) graph =
  let stats, extraction_time =
    Granii_hw.Timer.measure_wall (fun () -> Gf.extract graph)
  in
  { graph_features = Gf.to_array stats;
    stats;
    extraction_time;
    threads = max 1 threads }

let of_features ?(threads = 1) f =
  { graph_features = Gf.to_array f;
    stats = f;
    extraction_time = 0.;
    threads = max 1 threads }

let log1 x = log (1. +. x)

let primitive_input t ~dims:(m, k, n) =
  Array.concat
    [ t.graph_features;
      [| log1 m; log1 k; log1 n; log1 (float_of_int t.threads) |] ]

let n_inputs = Array.length Gf.names + 4

let input_names =
  Array.concat
    [ Gf.names; [| "log_dim_m"; "log_dim_k"; "log_dim_n"; "log_threads" |] ]
