(* Sequential fallback backend (OCaml < 5, no domains).

   Same interface as the domains backend; a streaming session is a plain
   FIFO that the caller drains itself. *)

type t = unit

let backend = "sequential"
let default_jobs () = 1
let create ~jobs:_ = ()

(* Effective parallelism — always 1 here, whatever was requested; callers
   use this to decide whether fan-out bookkeeping is worth doing. *)
let jobs () = 1
let shutdown () = ()

exception Stream_finished

(* Streaming sessions on the sequential backend: a plain FIFO the caller
   drains itself at [finish]. *)
module Stream = struct
  type session = { q : (unit -> unit) Queue.t; mutable closed : bool }

  let start _ = { q = Queue.create (); closed = false }

  let submit s job =
    if s.closed then raise Stream_finished;
    Queue.add job s.q

  let finish s =
    s.closed <- true;
    Queue.iter (fun job -> try job () with _ -> ()) s.q;
    Queue.clear s.q
end

(* "Domain-local" storage on the sequential backend: there is only one
   domain, so a lazily created single instance has the same semantics. *)
module Dls = struct
  type 'a key = 'a Lazy.t

  let new_key f = lazy (f ())
  let get k = Lazy.force k
end
