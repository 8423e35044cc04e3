(** Size-classed float-buffer pool for allocation-free steady-state
    execution.

    Kernel output buffers must have exact lengths ([Dense.of_flat],
    [Csr.with_values] reject padding), so each size class is one exact
    length; plans only have a handful of distinct intermediate shapes, so
    the class count stays tiny.

    {2 Ownership rules}

    - A buffer obtained from {!alloc}/{!alloc_uninit} is {e issued} until it
      is returned by {!give_back} or the workspace is {!reclaim}ed.
    - {!give_back} is keyed by physical identity and ignores buffers this
      workspace did not issue, so callers may release conservatively (e.g.
      an executor freeing whatever backs a dead intermediate, bindings
      included).
    - {!reclaim} is the arena reset: {!Granii_core.Executor.exec} performs it
      on entry, so every value produced by the previous run on the same
      workspace (output and intermediates alike) is invalidated by the next
      run. Copy anything you need to keep.

    A workspace is {b not} domain-safe. Only the orchestrating thread may
    call into it; {!Parallel} worker domains merely write into buffers
    acquired before the parallel region. In steady state (all classes warm)
    an alloc/give_back cycle performs no allocation at all. *)

type t

type stats = {
  hits : int;          (** allocations served from a free list *)
  misses : int;        (** allocations that created a fresh buffer *)
  issued : int;        (** buffers currently handed out *)
  held_words : int;    (** words parked in free lists *)
  issued_words : int;  (** words currently handed out *)
}

val create : unit -> t

val alloc : t option -> int -> float array
(** [alloc ws len] is a zero-filled buffer of exactly [len] floats —
    behaviourally identical to [Array.make len 0.], pooled when
    [ws = Some _]. *)

val alloc_uninit : t option -> int -> float array
(** Like {!alloc} but the contents are unspecified — only for kernels that
    store to every slot before reading it. *)

val alloc_fill : t option -> float -> int -> float array
(** [alloc_fill ws x len] = [Array.make len x], pooled. *)

val give_back : t option -> float array -> unit
(** Return an issued buffer to its free list. No-op when [ws = None], when
    the buffer was not issued by this workspace, or when it was already
    given back. *)

val reclaim : t -> unit
(** Move every issued buffer back to the free lists (arena reset). *)

val clear : t -> unit
(** Drop all pooled buffers (free lists included), keeping counters. *)

val stats : t -> stats
