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

let shared_pool ?threads () =
  let want =
    match threads with Some t -> max 1 t | None -> default_threads ()
  in
  match !shared with
  | Some pool when Parallel.threads pool = want -> pool
  | existing ->
      (match existing with Some pool -> shutdown pool | None -> ());
      let pool = create ~threads:want () in
      shared := Some pool;
      pool

let for_threads = function
  | n when n <= 1 -> None
  | n -> Some (shared_pool ~threads:n ())
