(* Summary statistics over float samples: nearest-rank percentiles, means,
   geometric means, and a growable sample buffer that allocates only when it
   doubles. *)

type buf = { mutable a : float array; mutable n : int }

let buf () = { a = Array.make 64 0.; n = 0 }

let add b x =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n) 0. in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  b.a.(b.n) <- x;
  b.n <- b.n + 1

let count b = b.n
let to_array b = Array.sub b.a 0 b.n
let sum b = Array.fold_left ( +. ) 0. (to_array b)

let sorted b =
  let a = to_array b in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest sample with at least [p] of the samples at or
   below it. *)
let rank n p = max 1 (min n (int_of_float (Float.ceil (p *. float_of_int n))))

let percentile b p =
  if b.n = 0 then nan
  else
    let a = sorted b in
    a.(rank b.n p - 1)

let beyond n p = n - rank n p

(* The highest of the usual percentiles with at least ten samples beyond
   it — the tail this many samples can support. *)
let supported_tail n =
  List.find_opt (fun p -> beyond n p >= 10) [ 0.99; 0.95; 0.9; 0.75; 0.5 ]

let geomean b =
  if b.n = 0 then nan
  else exp (Array.fold_left (fun s x -> s +. log x) 0. (to_array b) /. float_of_int b.n)

let median_of xs =
  let b = buf () in
  List.iter (add b) xs;
  percentile b 0.5

(* One time per input measured over several rounds: the best of its
   rounds. The input's work is the same in every round, so a slower round
   measures the shared host (a neighbour's load, a descheduled core), not
   the program. *)
let best bufs =
  let b = buf () in
  Array.iter (fun x -> add b (percentile x 0.)) bufs;
  b
