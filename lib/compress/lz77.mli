(** LZ77 tokenization with a hash-chain matcher (DEFLATE-style window) and
    zlib-style lazy matching.

    Tokens live in a flat int buffer — one unboxed int per token — rather
    than a [token list]/[token array] of boxed variants: tokenization is
    the hot path of every checkpoint image encode. *)

type t = private { toks : int array; count : int; total_len : int }

val window_size : int
val min_match : int
val max_match : int

(** Accessors for the packed-int token encoding ([toks.(0 .. count-1)]).
    A token is a literal iff {!tok_is_literal}; then {!tok_char} is its
    byte. Otherwise {!tok_dist}/{!tok_len} give the match. *)

val tok_is_literal : int -> bool
val tok_char : int -> int
val tok_dist : int -> int
val tok_len : int -> int

(** Tokenize the whole input.  The hash-chain tables are allocated once
    per domain and reused, never cleared, so a call costs in proportion
    to its input; the tokens depend on the input alone, not on earlier
    calls.  Calls on different domains are independent; two systhreads
    of one domain must not tokenize at the same time. *)
val tokenize : string -> t

(** Fold over tokens in order. *)
val fold :
  t -> init:'a -> lit:('a -> char -> 'a) -> mtch:('a -> dist:int -> len:int -> 'a) -> 'a

(** Inverse of {!tokenize}; reconstructs the original string into a
    preallocated buffer ([total_len] is known). Raises [Invalid_argument]
    on tokens referencing before the start or overrunning the length. *)
val reconstruct : t -> string
