(** Startup auto-calibration: bounded micro-probes that re-anchor the
    analytic {!Hw_profile} constants to the actual host.

    The four probes each measure one roofline axis (dense flops, sparse
    indirect flops, streaming bandwidth, random-gather bandwidth) inside a
    quarter of the total time budget, so the whole pass is bounded: with the
    default budget it costs ~0.2 s once at startup. Probe rates are
    single-core; {!reanchor} extrapolates machine-level constants with the
    base profile's core count and clamps them into sane ranges, so a noisy
    probe can never yield a degenerate profile. *)

type measurement = {
  dense_gflops : float;   (** cache-resident GEMM rate, single core *)
  sparse_gflops : float;  (** indirect multiply-accumulate rate, single core *)
  stream_gbps : float;    (** sequential-read bandwidth, single core *)
  random_gbps : float;    (** dependent random-gather bandwidth, single core *)
  elapsed_s : float;      (** wall time the whole pass actually took *)
}

val measure : ?budget_s:float -> unit -> measurement
(** Run the four probes, each bounded by [budget_s /. 4] ([budget_s]
    defaults to [0.2] seconds; at least one
    repetition each, so the pass can overshoot a very small budget by one
    probe iteration). Raises [Invalid_argument] if [budget_s <= 0]. *)

val reanchor : ?base:Hw_profile.t -> measurement -> Hw_profile.t
(** [base] (default {!Hw_profile.cpu}) with its four rate constants replaced
    by machine-level extrapolations of the measured single-core rates,
    clamped to sane ranges; the name gains a ["-host"] suffix. All other
    fields (cache size, overheads, discounts, noise) are kept. *)

val profile : ?budget_s:float -> ?base:Hw_profile.t -> unit -> Hw_profile.t
(** [reanchor ?base (measure ?budget_s ())]. *)
