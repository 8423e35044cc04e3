(* What one run measures: metrics by name, output checks, the spans of the
   traced pass, and the human-readable lines printed before the result. *)

type t = {
  mutable e2e : (string * float) list;
  mutable layer : (string * float) list;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  mutable spans : Spans.t option;
}

let create () =
  { e2e = []; layer = []; attempted = 0; failed = 0; problems = []; spans = None }

let info fmt = Printf.ksprintf print_endline fmt
let e2e r name v = r.e2e <- (name, v) :: r.e2e
let layer r name v = r.layer <- (name, v) :: r.layer
let ms s = 1000. *. s

(* One checked operation; a failed check counts against [fail_frac]. *)
let check r ok what =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    if List.length r.problems < 8 then r.problems <- what () :: r.problems
  end

(* Operations that failed without an output to compare (rejections). *)
let failures r ~attempted ~failed what =
  r.attempted <- r.attempted + attempted;
  r.failed <- r.failed + failed;
  if failed > 0 then r.problems <- what :: r.problems

let now = Granii_hw.Timer.wall
let minor_words () = (Gc.quick_stat ()).Gc.minor_words

(* Set-up time: build the system [reps] times and report the median, so a
   change that moves work into set-up shows. Every build but the last is
   released; the last is returned. *)
let setup r ~reps ~release build =
  let rec go k times =
    let t0 = now () in
    let x = build () in
    let times = (now () -. t0) :: times in
    if k = 1 then (x, times)
    else begin
      release x;
      go (k - 1) times
    end
  in
  let x, times = go reps [] in
  e2e r "setup_s" (Stats.median_of times);
  info "setup_s samples: %s s"
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") times));
  x

(* How long a run measures: whole rounds over the same inputs until
   [seconds] have passed. A round starts only if, at the mean round time so
   far, it ends within [seconds], and the first round always starts. Every
   round measures the same mix of inputs whatever the host's speed, so a
   slower host runs fewer rounds, not a different mix. [f k] runs round
   [k]. *)
let rounds ~seconds f =
  let t0 = now () in
  let rec go k =
    let elapsed = now () -. t0 in
    if k = 0 || elapsed *. float_of_int (k + 1) /. float_of_int k <= seconds then begin
      f k;
      go (k + 1)
    end
    else k
  in
  let k = go 0 in
  info "rounds: %d in %.2f s" k (now () -. t0)

(* p50/p90/p99 of per-operation latencies given in seconds, with the sample
   count and the samples lying beyond each tail percentile. *)
let latencies r ~what b =
  let n = Stats.count b in
  List.iter
    (fun (name, p) -> e2e r name (ms (Stats.percentile b p)))
    [ ("p50_ms", 0.5); ("p90_ms", 0.9); ("p99_ms", 0.99) ];
  info "latency: %d samples of %s; beyond p90: %d, beyond p99: %d; tail with \
        >= 10 samples beyond it: %s"
    n what (Stats.beyond n 0.9) (Stats.beyond n 0.99)
    (match Stats.supported_tail n with
    | Some p -> Printf.sprintf "p%g" (100. *. p)
    | None -> "none (too few samples)")

(* Bitwise equality of two executor values. *)
let bits_equal (a : float array) (b : float array) =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri
    (fun i x -> if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then ok := false)
    a;
  !ok

let value_equal (a : Granii_core.Executor.value) (b : Granii_core.Executor.value) =
  let module D = Granii_tensor.Dense in
  match (a, b) with
  | Vdense x, Vdense y -> x.D.rows = y.D.rows && x.D.cols = y.D.cols && bits_equal x.D.data y.D.data
  | _ -> false
