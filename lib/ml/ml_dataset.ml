type t = {
  features : float array array;
  labels : float array;
  n_features : int;
}

let make features labels =
  let n = Array.length features in
  if n = 0 then invalid_arg "Ml_dataset.make: empty dataset";
  if Array.length labels <> n then invalid_arg "Ml_dataset.make: label count mismatch";
  let n_features = Array.length features.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> n_features then
        invalid_arg "Ml_dataset.make: ragged feature rows")
    features;
  { features; labels; n_features }

let n_samples d = Array.length d.labels

let subset d idx =
  { d with
    features = Array.map (fun i -> d.features.(i)) idx;
    labels = Array.map (fun i -> d.labels.(i)) idx }

let split ?(seed = 0) ~train_fraction d =
  let n = n_samples d in
  if n < 2 then invalid_arg "Ml_dataset.split: need at least two samples";
  let order = Array.init n (fun i -> i) in
  Granii_tensor.Prng.shuffle_in_place (Granii_tensor.Prng.create (seed + 7)) order;
  let n_train =
    Stdlib.max 1 (Stdlib.min (n - 1) (int_of_float (float_of_int n *. train_fraction)))
  in
  (subset d (Array.sub order 0 n_train), subset d (Array.sub order n_train (n - n_train)))
