(** Reusable domain pool for data-parallel CPU kernels (OCaml 5 Domains).

    Every parallel region is a {e static} partition of a row (or flat index)
    range into at most [threads] chunks; each chunk is processed sequentially
    by one domain and writes a disjoint slice of the output. There is no work
    stealing and there are no atomics, so for a fixed pool the result is
    bitwise-deterministic — and because all kernels keep whole rows inside a
    single chunk, it is bitwise identical to the sequential kernel. The
    differential suite in [test/test_parallel.ml] pins exactly that.

    The pool lives in the tensor layer (not [Granii_hw]) so the dense kernels
    can use it; {!Granii_hw.Domain_pool} re-exports it as the engine's public
    front door with hardware-aware sizing. *)

type t
(** A pool of [threads - 1] long-lived worker domains plus the calling
    domain. The pool is not reentrant: kernels must only launch parallel
    regions from the domain that created the pool. *)

val create : ?threads:int -> unit -> t
(** [create ~threads ()] spawns [threads - 1] workers ([threads] is clamped
    to at least 1). Without [threads], uses the [GRANII_THREADS] environment
    variable if set, else [Domain.recommended_domain_count ()]. *)

val threads : t -> int
(** Pool width, including the calling domain. *)

val shutdown : t -> unit
(** Terminates and joins the worker domains. Idempotent. Using the pool
    afterwards raises [Invalid_argument]. *)

val default_threads : unit -> int
(** The width {!create} uses when [?threads] is omitted. *)

(** {1 Partitioners} *)

val chunks : n:int -> parts:int -> (int * int) array
(** [chunks ~n ~parts] splits [0, n) into at most [parts] equal-size
    half-open ranges [(lo, hi)]. *)

val balanced_chunks : prefix:int array -> parts:int -> (int * int) array
(** Nonzero-balanced partitioner for skewed degree distributions:
    [prefix] is a monotone prefix-weight array of length [n + 1] (a CSR
    [row_ptr] is exactly that), and the returned row ranges each carry
    roughly [prefix.(n) / parts] weight. Degenerates to {!chunks} when the
    total weight is zero. *)

(** {1 Parallel iteration} *)

val rows : ?pool:t -> n:int -> (int -> int -> unit) -> unit
(** [rows ?pool ~n body] is [body 0 n] when [pool] is absent (or has width
    1), and otherwise partitions [0, n) with {!chunks} across the pool.
    [body lo hi] must only touch output indices derived from rows
    [lo..hi-1]. *)

val rows_weighted : ?pool:t -> prefix:int array -> (int -> int -> unit) -> unit
(** Like {!rows} with [n = Array.length prefix - 1], but partitions with
    {!balanced_chunks} — the right iterator for CSR kernels whose per-row
    cost is the row's nonzero count. *)
