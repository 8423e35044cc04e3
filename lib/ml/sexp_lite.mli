(** A minimal S-expression reader/writer.

    Used to persist trained cost models to disk (the paper's one-time
    initialization script trains the models once per target machine;
    subsequent runs only load them). No external dependencies: atoms are
    whitespace-delimited tokens, parentheses nest, [;] starts a line
    comment. Atoms produced by {!to_string} never need quoting because
    every writer in this codebase emits only numbers and identifiers. *)

type t = Atom of string | List of t list

exception Parse_error of string
(** Raised by {!of_string} with a human-readable position message. *)

val to_string : t -> string
(** Renders with minimal spaces, nested lists on one line. *)

val of_string : string -> t
(** Parses exactly one S-expression (surrounding whitespace allowed).
    Raises {!Parse_error} on malformed input or trailing tokens. *)

(** {1 Typed helpers} *)

val atom : t -> string
(** Raises {!Parse_error} if the value is a list. *)

val float_atom : t -> float

val int_atom : t -> int

val list : t -> t list
(** Raises {!Parse_error} if the value is an atom. *)

val tagged : string -> t -> t list
(** [tagged tag v] checks that [v] is [List (Atom tag :: rest)] and returns
    [rest]; raises {!Parse_error} otherwise. *)

val of_float : float -> t
(** Full-precision float atom (round-trips exactly). *)

val of_int : int -> t
