let check name truth pred =
  let n = Array.length truth in
  if n = 0 then invalid_arg (name ^ ": empty input");
  if Array.length pred <> n then invalid_arg (name ^ ": length mismatch");
  n

let rmse truth pred =
  let n = check "Ml_metrics.rmse" truth pred in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    let d = truth.(i) -. pred.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt (!acc /. float_of_int n)

let mae truth pred =
  let n = check "Ml_metrics.mae" truth pred in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. Float.abs (truth.(i) -. pred.(i))
  done;
  !acc /. float_of_int n

let r2 truth pred =
  let n = check "Ml_metrics.r2" truth pred in
  let mean = Granii_tensor.Vector.mean truth in
  let ss_res = ref 0. and ss_tot = ref 0. in
  for i = 0 to n - 1 do
    let r = truth.(i) -. pred.(i) and t = truth.(i) -. mean in
    ss_res := !ss_res +. (r *. r);
    ss_tot := !ss_tot +. (t *. t)
  done;
  if !ss_tot = 0. then if !ss_res = 0. then 1. else 0.
  else 1. -. (!ss_res /. !ss_tot)

(* Average ranks with ties sharing the mean of their positions. *)
let ranks xs =
  let n = Array.length xs in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare xs.(a) xs.(b)) order;
  let r = Array.make n 0. in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && xs.(order.(!j + 1)) = xs.(order.(!i)) do
      incr j
    done;
    let avg = float_of_int (!i + !j) /. 2. in
    for p = !i to !j do
      r.(order.(p)) <- avg
    done;
    i := !j + 1
  done;
  r

let spearman truth pred =
  let n = check "Ml_metrics.spearman" truth pred in
  if n < 2 then 1.
  else begin
    let rt = ranks truth and rp = ranks pred in
    let mt = Granii_tensor.Vector.mean rt and mp = Granii_tensor.Vector.mean rp in
    let cov = ref 0. and vt = ref 0. and vp = ref 0. in
    for i = 0 to n - 1 do
      let a = rt.(i) -. mt and b = rp.(i) -. mp in
      cov := !cov +. (a *. b);
      vt := !vt +. (a *. a);
      vp := !vp +. (b *. b)
    done;
    if !vt = 0. || !vp = 0. then 0. else !cov /. sqrt (!vt *. !vp)
  end

let pairwise_ranking_accuracy truth pred =
  let n = check "Ml_metrics.pairwise_ranking_accuracy" truth pred in
  let good = ref 0 and total = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if truth.(i) <> truth.(j) then begin
        incr total;
        let t = compare truth.(i) truth.(j) and p = compare pred.(i) pred.(j) in
        if (t < 0 && p < 0) || (t > 0 && p > 0) then incr good
      end
    done
  done;
  if !total = 0 then 1. else float_of_int !good /. float_of_int !total
