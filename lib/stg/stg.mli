(** Signal Transition Graphs: Petri nets whose transitions are interpreted as
    signal edges.

    Transitions carry labels of the form [a+] (rising), [a-] (falling), [a~]
    (toggle, used by 2-phase refinements) or dummy events.  Several transition
    instances may share a label ([a+/1], [a+/2], ...).  Signals are
    partitioned into inputs (driven by the environment), outputs and internal
    signals (to be implemented). *)

module Signal : sig
  type kind = Input | Output | Internal | Dummy_kind

  type t = { name : string; kind : kind }

  val is_input : t -> bool
  val pp : Format.formatter -> t -> unit
  val pp_kind : Format.formatter -> kind -> unit
end

type dir = Plus | Minus | Toggle

(** Label of an STG transition: a signal edge or a dummy event. *)
type label = Edge of int * dir  (** signal id, direction *) | Dummy of string

type t = {
  net : Petri.t;
  signals : Signal.t array;
      (** Inputs, then outputs, then internal signals, each group in
          declaration order.  Every constructor keeps this order:
          {!of_net} and {!Io.parse} group the declared signals so,
          {!add_causality} keeps them, and [Csc.insert_signal] appends
          its new internal signal last, which is why that signal's id is
          the old signal count. *)
  labels : label array;  (** indexed by transition id *)
}

val n_signals : t -> int
val signal : t -> int -> Signal.t

(** [signal_of_name stg name] — id of the signal called [name].
    @raise Not_found if absent. *)
val signal_of_name : t -> string -> int

val label : t -> Petri.trans -> label

(** Printable form of a label: ["a+"], ["a-"], ["a~"], or the dummy name. *)
val label_name : t -> label -> string

(** Printable form of a transition instance, e.g. ["a+/2"] when several
    instances share the label and this is the second. *)
val trans_display : t -> Petri.trans -> string

(** [is_input_trans stg t] — [t] is an edge of an input signal. *)
val is_input_trans : t -> Petri.trans -> bool

(** Transitions carrying the given label. *)
val instances : t -> label -> Petri.trans list

(** All distinct labels that occur on some transition, in id order. *)
val all_labels : t -> label list

(** Parse a label out of a transition name: ["a+"] / ["a-"] / ["a~"] /
    ["a+/3"] (instance suffix ignored).  Anything else is a dummy. *)
val parse_label_name : string -> (string * dir) option

(** Build an STG from a Petri net by parsing transition names, given the
    signal partition.  Signals named in [inputs]/[outputs]/[internals] that
    never occur on a transition are still declared.  Transition names that do
    not parse as edges of declared signals become dummies.
    @raise Invalid_argument if a name parses as an edge of an undeclared
    signal. *)
val of_net :
  inputs:string list ->
  outputs:string list ->
  ?internals:string list ->
  Petri.t ->
  t

(** Textual [.g] (astg) format, as used by petrify.

    Supported subset: [.model], [.inputs], [.outputs], [.internal], [.dummy],
    [.graph] with [a/i] instance suffixes and implicit places
    ([t1 t2] arcs between transitions), explicit places ([p1]), [.marking]
    with [{p1 <t1,t2> ...}], [.end], and [#] comments. *)
module Io : sig
  (** @raise Parse_error on malformed input. *)
  exception Parse_error of string

  val parse : string -> t
  val parse_file : string -> t
  val print : t -> string

  (** Graphviz dot rendering: transitions as boxes (inputs shaded), places
      as circles (implicit 1-in/1-out places elided into labelled edges),
      tokens as bullets. *)
  val to_dot : t -> string
end

(** Structural helper: add causality place from [t1] to [t2] (a fresh empty
    place).  Returns a new STG sharing signals. *)
val add_causality : t -> Petri.trans -> Petri.trans -> t

val pp : Format.formatter -> t -> unit
