(** Mini-batch loader: layered neighbor sampling + featurization, optionally
    pipelined on a dedicated domain.

    The loader walks the masked node set in a seeded per-epoch shuffle,
    cutting it into seed batches of [batch_size]. Each batch draws its
    layered neighborhood ({!Granii_graph.Sampling.layered_fanout}), gathers
    feature/label rows through the sample's row-gather map and extracts the
    selection features of the sampled subgraph. Batch [k] is a pure function
    of [(seed, masked node set, fanouts, batch_size, k)] — both loader modes
    and any thread count produce bitwise-identical batches, which is what
    lets the trainer guarantee pipelined epoch losses equal sequential ones.

    In [Pipelined] mode a dedicated domain prepares batch [k+1] while the
    consumer trains on batch [k], handing results over through a one-deep
    slot (double buffering). The loader domain never touches the
    {!Granii_obs.Obs} sink
    (sinks are orchestrator-thread-only); instead each batch carries its own
    [sample_time]/[featurize_time] so the consumer can retro-date spans. *)

type batch = {
  epoch : int;
  index : int;  (** batch index within the epoch *)
  sample : Granii_graph.Sampling.layered;
  feats : Granii_core.Featurizer.t;  (** selection features of the subgraph *)
  features : Granii_tensor.Dense.t;  (** gathered node-feature rows *)
  labels : int array;  (** gathered labels, one per subgraph node *)
  mask : bool array;  (** [true] exactly on the seed rows [0..n_seeds-1] *)
  sample_time : float;  (** wall seconds spent in the sampler *)
  featurize_time : float;  (** wall seconds gathering rows + featurizing *)
}

type mode = Sequential | Pipelined

val mode_to_string : mode -> string

type t

val create :
  ?seed:int ->
  ?mask:bool array ->
  ?threads:int ->
  mode:mode ->
  fanouts:int list ->
  batch_size:int ->
  epochs:int ->
  graph:Granii_graph.Graph.t ->
  features:Granii_tensor.Dense.t ->
  labels:int array ->
  unit ->
  t
(** [create ~mode ~fanouts ~batch_size ~epochs ~graph ~features ~labels ()]
    plans [epochs] passes over the [mask]-selected nodes (default: all) and,
    in [Pipelined] mode, spawns the loader domain immediately. [threads]
    only parallelizes featurization (default [1]); it does not affect batch
    content. Raises [Invalid_argument] on a non-positive [batch_size] or
    [epochs], bad [fanouts], mismatched array lengths, or an all-[false]
    mask. *)

val next : t -> batch option
(** The next batch in epoch-major order, or [None] after the last one. In
    [Pipelined] mode, blocks until the loader domain fills the slot and
    accounts the wait in {!stall_time}. *)

val batches_per_epoch : t -> int

val stall_time : t -> float
(** Cumulative wall seconds {!next} spent waiting on the loader domain
    ([0.] in [Sequential] mode) — the pipeline's stall-fraction numerator. *)

val shutdown : t -> unit
(** Joins the loader domain (no-op in [Sequential] mode, idempotent). Call
    it even after draining the loader; abandoning a [Pipelined] loader
    leaks the domain. *)
