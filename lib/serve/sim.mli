(** Closed-loop load simulation against a {!Serve.t} — the engine behind
    [granii serve-sim] and the [@bench-serve] section.

    [clients] logical clients each keep exactly one request outstanding
    (closed loop: offered load rises with the client count and is throttled
    by server backpressure, never unbounded). Every client owns a fixed
    feature matrix (seeded per client) and submits under tenant
    [t<i mod tenants>]; a [Queue_full] rejection is retried on the next
    loop pass, so all [requests] completions are eventually collected. In
    manual mode ([workers = 0]) the loop pumps the scheduler itself;
    in threaded mode it only submits and polls. *)

type load = {
  clients : int;
  requests : int;   (** total completions to collect *)
  tenants : int;
  graph : string;   (** registered graph name *)
  model : string;
  k_in : int;
  k_out : int;
  seed : int;
}

type result = {
  wall : float;            (** seconds for the whole run *)
  throughput : float;      (** completions per second *)
  p50 : float;             (** median latency, seconds *)
  p99 : float;
  mean_latency : float;
  mean_width : float;      (** mean executor-invocation batch width *)
  retries : int;           (** submissions rejected by backpressure *)
  stats : Serve.stats;
  breach_rate : float;
      (** SLO breaches per completion ([0.] without an [slo_ms] target) *)
  first_breach_s : float option;
      (** seconds from run start to the first SLO breach — meaningful when
          the server runs on the default wall clock, which the simulator's
          own timestamps share *)
}

val run : Serve.t -> load -> result
(** Raises [Invalid_argument] on a non-positive [clients]/[requests]/
    [tenants] or an unregistered graph. *)

val percentile : float list -> float -> float
(** [percentile xs p] for [p] in [0, 100] (nearest-rank); [nan] on []. *)
