(* The host a result was measured on, printed with every result so numbers
   from different hosts are not compared as if alike. Informational only:
   nothing is gated on it. *)

(* The commit of a git checkout in the working directory, read from .git
   without running git; "unknown" elsewhere. *)
let commit () =
  let read path =
    try
      let ic = open_in path in
      let s = try String.trim (input_line ic) with End_of_file -> "" in
      close_in ic;
      Some s
    with Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
      let prefix = "ref: " in
      let pl = String.length prefix in
      if String.length head > pl && String.sub head 0 pl = prefix then
        Option.value ~default:"unknown"
          (read (Filename.concat ".git" (String.sub head pl (String.length head - pl))))
      else head

let describe () =
  let m = Granii_hw.Calibrate.measure () in
  [ ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("commit", commit ());
    ( "probe",
      Printf.sprintf "dense %.2f GFLOP/s, sparse %.2f GFLOP/s, stream %.2f GB/s, random %.2f GB/s"
        m.Granii_hw.Calibrate.dense_gflops m.Granii_hw.Calibrate.sparse_gflops
        m.Granii_hw.Calibrate.stream_gbps m.Granii_hw.Calibrate.random_gbps ) ]
