(** The multicore execution engine's domain pool.

    A thin hardware-layer front door over {!Granii_tensor.Parallel} (where
    the pool itself lives so the dense kernels can use it): pool lifecycle
    helpers and the process-wide shared pool that the CLI / bench [--threads]
    flags and {!Granii_core.Executor} use. See DESIGN.md, "Threading
    model". *)

type t = Granii_tensor.Parallel.t

val create : ?threads:int -> unit -> t
(** Spawn a fresh pool; see {!Granii_tensor.Parallel.create}. *)

val threads : t -> int

val shutdown : t -> unit

val default_threads : unit -> int
(** [GRANII_THREADS] if set, else [Domain.recommended_domain_count ()]. *)

val for_threads : int -> t option
(** [for_threads n] is [None] for [n <= 1] (sequential execution) and
    otherwise [Some] of the lazily-created process-wide pool at width [n] —
    the shape executors take. Requesting a different width replaces (and
    shuts down) the previous shared pool. *)
