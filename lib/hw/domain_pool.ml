module Parallel = Granii_tensor.Parallel

type t = Parallel.t

let create = Parallel.create
let threads = Parallel.threads
let shutdown = Parallel.shutdown
let default_threads = Parallel.default_threads

(* The shared pool backing `--threads N` style entry points: created on first
   use at the requested width, torn down only with the process. Re-requesting
   a different width replaces it (executors hold no reference across calls). *)
let shared : t option ref = ref None

let for_threads = function
  | n when n <= 1 -> None
  | n -> (
      match !shared with
      | Some pool when Parallel.threads pool = n -> Some pool
      | existing ->
          Option.iter shutdown existing;
          let pool = create ~threads:n () in
          shared := Some pool;
          Some pool)
