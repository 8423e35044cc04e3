(* In-memory span recorder for the traced run. Spans are recorded by the
   benchmark around its own calls into the library (nothing inside lib/ is
   instrumented) and written out as a Chrome trace when the run ends.

   A span has a name, start, end, the index of its parent span, the id of
   the request or input it belongs to, and a lane: the thread that did the
   work. A parent's self time is its duration minus the part of its
   interval covered by children on its own lane; what is left over is the
   share of the parent no child accounts for. *)

type span = {
  name : string;
  id : int;
  parent : int;
  lane : int;
  t0 : float;
  t1 : float;
}

type t = { on : bool; mutable spans : span array; mutable n : int }

let create on = { on; spans = [||]; n = 0 }

let dummy = { name = ""; id = 0; parent = -1; lane = 0; t0 = 0.; t1 = 0. }

(* Returns the new span's index (the [parent] of its children), or [-1]
   when recording is off. *)
let add t ?(parent = -1) ?(lane = 0) ~id name t0 t1 =
  if not t.on then -1
  else begin
    if t.n = Array.length t.spans then begin
      let a = Array.make (max 256 (2 * t.n)) dummy in
      Array.blit t.spans 0 a 0 t.n;
      t.spans <- a
    end;
    t.spans.(t.n) <- { name; id; parent; lane; t0; t1 };
    t.n <- t.n + 1;
    t.n - 1
  end

(* Sets the end of a span opened with [add] before its children. *)
let close t i t1 = if i >= 0 then t.spans.(i) <- { (t.spans.(i)) with t1 }

let dur s = s.t1 -. s.t0

(* Self time of every span: its duration minus the union of its same-lane
   children's intervals, clipped to it. *)
let self_times t =
  let kids = Array.make t.n [] in
  for i = t.n - 1 downto 0 do
    let s = t.spans.(i) in
    if s.parent >= 0 && s.lane = t.spans.(s.parent).lane then
      kids.(s.parent) <- (s.t0, s.t1) :: kids.(s.parent)
  done;
  Array.init t.n (fun i ->
      let s = t.spans.(i) in
      let ivs =
        List.sort compare
          (List.map (fun (a, b) -> (Float.max a s.t0, Float.min b s.t1)) kids.(i))
      in
      let covered, _ =
        List.fold_left
          (fun (acc, hi) (a, b) ->
            let a = Float.max a hi in
            if b > a then (acc +. (b -. a), b) else (acc, hi))
          (0., neg_infinity) ivs
      in
      dur s -. covered)

type summary = {
  sname : string;
  count : int;
  total : float;  (** summed duration, seconds *)
  self : float;  (** summed self time, seconds *)
  root : bool;
}

let summarize t =
  let self = self_times t in
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    let c, tot, sf =
      Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0., 0.)
    in
    Hashtbl.replace tbl s.name (c + 1, tot +. dur s, sf +. self.(i))
  done;
  let roots = Hashtbl.create 4 in
  for i = 0 to t.n - 1 do
    if t.spans.(i).parent < 0 then Hashtbl.replace roots t.spans.(i).name ()
  done;
  Hashtbl.fold
    (fun sname (count, total, self) acc ->
      { sname; count; total; self; root = Hashtbl.mem roots sname } :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.sname b.sname)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event JSON ("X" complete events, microseconds relative to
   the first span), with the host record as metadata. *)
let to_json t ~meta =
  let base = ref infinity in
  for i = 0 to t.n - 1 do
    base := Float.min !base t.spans.(i).t0
  done;
  let b = Buffer.create (256 + (160 * t.n)) in
  Buffer.add_string b "{\"metadata\": {";
  Buffer.add_string b
    (String.concat ", "
       (List.map (fun (k, v) -> json_string k ^ ": " ^ json_string v) meta));
  Buffer.add_string b "},\n\"traceEvents\": [\n";
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    Printf.bprintf b
      "%s{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \
       \"dur\": %.3f, \"args\": {\"id\": %d, \"span\": %d, \"parent\": %d}}"
      (if i = 0 then "" else ",\n")
      (json_string s.name) s.lane
      ((s.t0 -. !base) *. 1e6)
      (dur s *. 1e6) s.id i s.parent
  done;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
