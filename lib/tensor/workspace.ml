(* A size-classed pool of float buffers for steady-state plan execution.

   Kernels back their outputs with flat [float array]s whose length is
   load-bearing (Dense.of_flat and Csr.with_values reject padding), so a
   size class is an exact length: plans have a handful of distinct
   intermediate shapes, which keeps the class count tiny while still letting
   a GCN's [n*k_out] GEMM output be recycled into the SpMM output of the
   next iteration.

   Ownership model (DESIGN.md, "Memory model"):

   - [alloc]/[alloc_uninit] hand out a buffer and record it as issued.
   - [give_back] returns an issued buffer to its class's free list. It is
     keyed by physical identity and is a no-op on buffers the workspace did
     not issue (input bindings, caller-owned arrays), so callers may release
     conservatively.
   - [reclaim] returns {e every} issued buffer at once — the arena reset the
     executor performs when a new run begins. Anything produced by the
     previous run on the same workspace (report output, intermediates) is
     invalidated by the next run.

   The internal free lists and the issued set are flat grow-only vectors, so
   in steady state (every class warm) an alloc/give_back cycle allocates
   nothing. A workspace is NOT domain-safe: only the orchestrating thread
   may call it; worker domains of a {!Parallel} pool only ever write into
   buffers that were acquired before the parallel region started. *)

type vec = { mutable items : float array array; mutable len : int }

let vec_make () = { items = Array.make 8 [||]; len = 0 }

let vec_push v a =
  if v.len = Array.length v.items then begin
    let grown = Array.make (2 * Array.length v.items) [||] in
    Array.blit v.items 0 grown 0 v.len;
    v.items <- grown
  end;
  v.items.(v.len) <- a;
  v.len <- v.len + 1

let vec_pop v =
  if v.len = 0 then None
  else begin
    v.len <- v.len - 1;
    let a = v.items.(v.len) in
    v.items.(v.len) <- [||];
    Some a
  end

(* Physical-identity removal; swap with the last element so removal is O(1)
   after the scan. Returns [true] if the buffer was present. *)
let vec_remove v a =
  let found = ref false in
  let i = ref 0 in
  while (not !found) && !i < v.len do
    if v.items.(!i) == a then begin
      found := true;
      v.len <- v.len - 1;
      v.items.(!i) <- v.items.(v.len);
      v.items.(v.len) <- [||]
    end
    else incr i
  done;
  !found

type stats = {
  hits : int;            (* allocations served from a free list *)
  misses : int;          (* allocations that had to create a fresh buffer *)
  issued : int;          (* buffers currently handed out *)
  held_words : int;      (* words parked in free lists *)
  issued_words : int;    (* words currently handed out *)
}

type t = {
  classes : (int, vec) Hashtbl.t;
  out : vec;                       (* issued buffers, any class *)
  mutable hits : int;
  mutable misses : int;
  mutable held_words : int;
  mutable issued_words : int;
}

let create () =
  { classes = Hashtbl.create 16;
    out = vec_make ();
    hits = 0;
    misses = 0;
    held_words = 0;
    issued_words = 0 }

let class_of t len =
  match Hashtbl.find_opt t.classes len with
  | Some v -> v
  | None ->
      let v = vec_make () in
      Hashtbl.add t.classes len v;
      v

let acquire t len =
  let cls = class_of t len in
  let buf =
    match vec_pop cls with
    | Some a ->
        t.hits <- t.hits + 1;
        t.held_words <- t.held_words - len;
        a
    | None ->
        t.misses <- t.misses + 1;
        if len = 0 then [||] else Array.create_float len
  in
  vec_push t.out buf;
  t.issued_words <- t.issued_words + len;
  buf

(* Option-taking entry points so kernels can thread [?ws] straight through:
   without a workspace they behave exactly like [Array.make len 0.] /
   [Array.create_float len]. *)

let alloc ws len =
  match ws with
  | None -> Array.make len 0.
  | Some t ->
      let a = acquire t len in
      Array.fill a 0 len 0.;
      a

let alloc_uninit ws len =
  match ws with None -> Array.create_float len | Some t -> acquire t len

let alloc_fill ws x len =
  match ws with
  | None -> Array.make len x
  | Some t ->
      let a = acquire t len in
      Array.fill a 0 len x;
      a

let give_back ws a =
  match ws with
  | None -> ()
  | Some t ->
      if vec_remove t.out a then begin
        let len = Array.length a in
        t.issued_words <- t.issued_words - len;
        t.held_words <- t.held_words + len;
        vec_push (class_of t len) a
      end

let reclaim t =
  while t.out.len > 0 do
    match vec_pop t.out with
    | None -> ()
    | Some a ->
        let len = Array.length a in
        t.issued_words <- t.issued_words - len;
        t.held_words <- t.held_words + len;
        vec_push (class_of t len) a
  done

let clear t =
  reclaim t;
  Hashtbl.reset t.classes;
  t.held_words <- 0

let stats t =
  { hits = t.hits;
    misses = t.misses;
    issued = t.out.len;
    held_words = t.held_words;
    issued_words = t.issued_words }
