(** A minimal JSON tree, parser and printer — the one codec behind the
    [astg serve] wire protocol, the [astg fuzz --report] file and the
    [--trace] Chrome traces; no external dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** field order is preserved *)

exception Parse_error of string

(** A number that fits an [int] parses as [Int], any other as [Float].
    @raise Parse_error on malformed input, trailing garbage or a number
    that overflows to infinity. *)
val parse : string -> t

(** Compact rendering, fields in [Obj] order.  A [Float] prints in the
    fewer of 15 or 17 digits that read back to it, with [.0] kept on an
    integer value, so [parse (to_string v) = v] for finite floats.  Only
    the quote, the backslash and control bytes are escaped. *)
val to_string : t -> string

(** [member name j] — field of an object, [None] when absent or when
    [j] is not an object. *)
val member : string -> t -> t option
