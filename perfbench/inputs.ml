(* Seeded input generation and input fingerprints. Every input is a pure
   function of the workload seed and its index in the stream. *)

module G = Granii_graph
module Gen = Granii_graph.Generators

type family = Er | Ba | Rmat | Grid | Blocked | Overlap

let family_name = function
  | Er -> "er"
  | Ba -> "ba"
  | Rmat -> "rmat"
  | Grid -> "grid"
  | Blocked -> "blocked"
  | Overlap -> "overlap"

let log2i n =
  let rec go k = if 1 lsl (k + 1) > n then k else go (k + 1) in
  go 0

(* [n] is the node count; rmat rounds it down to a power of two. *)
let graph family ~seed ~n =
  match family with
  | Er -> Gen.erdos_renyi ~seed ~n ~avg_degree:8. ()
  | Ba -> Gen.barabasi_albert ~seed ~n ~m:4 ()
  | Rmat -> Gen.rmat ~seed ~scale:(log2i n) ~edge_factor:8 ()
  | Grid ->
      let rows = int_of_float (Float.sqrt (float_of_int n)) in
      Gen.grid2d ~seed ~rows ~cols:(n / rows) ()
  | Blocked -> Gen.blocked ~seed ~n ~blocks_per_row:2 ()
  | Overlap -> Gen.community_overlap ~seed ~n ~groups:(max 1 (n / 128)) ~degree:12 ()

(* Seed of the [i]-th input of a stream. *)
let seed_of ~seed i = ((seed * 1_000_003) + (i * 7_919) + 17) land 0x3FFF_FFFF

let features ~seed ~n ~k = Granii_tensor.Dense.random ~seed n k

(* A running digest over the inputs a run generated, in order. *)
type fingerprint = { buf : Buffer.t; mutable inputs : int }

let fingerprint () = { buf = Buffer.create 256; inputs = 0 }

let add_string fp s =
  Buffer.add_string fp.buf (Digest.string s);
  fp.inputs <- fp.inputs + 1

let add_graph fp (g : G.Graph.t) =
  let a = g.G.Graph.adj in
  add_string fp
    (Marshal.to_string (a.Granii_sparse.Csr.row_ptr, a.Granii_sparse.Csr.col_idx) [])

let add_dense fp (d : Granii_tensor.Dense.t) =
  add_string fp (Marshal.to_string (d.Granii_tensor.Dense.rows, d.Granii_tensor.Dense.data) [])

let hex fp = Digest.to_hex (Digest.string (Buffer.contents fp.buf))

let report fp ~what =
  Report.info "inputs: %d %s, digest %s" fp.inputs what (hex fp)

(* "min/median/max" of an integer property over the inputs. *)
let spread xs =
  match List.sort compare xs with
  | [] -> "none"
  | s ->
      Printf.sprintf "%d/%d/%d" (List.hd s)
        (List.nth s ((List.length s - 1) / 2))
        (List.nth s (List.length s - 1))
