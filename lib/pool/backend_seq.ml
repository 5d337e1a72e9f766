(* Sequential fallback backend (OCaml < 5, no domains).

   Same interface as the domains backend: the pool is a plain FIFO that
   the caller drains itself at [shutdown]. *)

type t = { q : (unit -> unit) Queue.t; mutable closed : bool }

let backend = "sequential"
let default_jobs () = 1
let create ~jobs:_ = { q = Queue.create (); closed = false }

(* Effective parallelism — always 1 here, whatever was requested; callers
   use this to decide whether submitting is worth doing. *)
let jobs _ = 1

let submit t job =
  if t.closed then invalid_arg "Pool.submit: the pool is shut down";
  Queue.add job t.q

let shutdown t =
  t.closed <- true;
  while not (Queue.is_empty t.q) do
    try (Queue.pop t.q) () with _ -> ()
  done

(* "Domain-local" storage on the sequential backend: there is only one
   domain, so a lazily created single instance has the same semantics. *)
module Dls = struct
  type 'a key = 'a Lazy.t

  let new_key f = lazy (f ())
  let get k = Lazy.force k
end
