(* Domain-based work pool (OCaml >= 5).

   Workers park on a condition variable until a streaming session starts:
   [Stream.start] installs one draining task and broadcasts it to every
   worker domain (a new epoch), and [Stream.finish] waits for every worker
   to leave it.  A pool thereby amortizes domain spawn cost across every
   session it serves.

   Memory model: everything the caller wrote before [Stream.start] is
   visible to workers via the broadcast under the pool mutex; see
   [Stream] for how jobs publish their results. *)

type t = {
  mutable workers : int;  (** spawned domains; parallelism is workers+1 *)
  m : Mutex.t;
  work_cv : Condition.t;
  done_cv : Condition.t;
  mutable task : (unit -> unit) option;
  mutable epoch : int;  (** bumped once per session *)
  mutable running : int;  (** workers still inside the current session *)
  mutable quit : bool;
  mutable domains : unit Domain.t list;
}

let backend = "domains"
let default_jobs () = Domain.recommended_domain_count ()

exception Stream_finished

let worker_loop t =
  let my_epoch = ref 0 in
  let continue = ref true in
  while !continue do
    Mutex.lock t.m;
    while (not t.quit) && t.epoch = !my_epoch do
      Condition.wait t.work_cv t.m
    done;
    if t.quit then begin
      Mutex.unlock t.m;
      continue := false
    end
    else begin
      my_epoch := t.epoch;
      let task = match t.task with Some f -> f | None -> ignore in
      Mutex.unlock t.m;
      (* Tasks trap their own exceptions; this is a backstop so a worker
         can never die and deadlock the pool. *)
      (try task () with _ -> ());
      Mutex.lock t.m;
      t.running <- t.running - 1;
      if t.running = 0 then Condition.broadcast t.done_cv;
      Mutex.unlock t.m
    end
  done

let create ~jobs =
  let t =
    {
      workers = 0;
      m = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      task = None;
      epoch = 0;
      running = 0;
      quit = false;
      domains = [];
    }
  in
  (* The runtime caps the number of live domains; past the cap
     [Domain.spawn] fails, and the pool runs with the workers it got.  No
     result depends on the pool's width. *)
  (try
     for _ = 2 to jobs do
       t.domains <- Domain.spawn (fun () -> worker_loop t) :: t.domains;
       t.workers <- t.workers + 1
     done
   with Failure _ -> ());
  t

let jobs t = t.workers + 1

let shutdown t =
  Mutex.lock t.m;
  t.quit <- true;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.m;
  List.iter Domain.join t.domains;
  t.domains <- []

(* Streaming work sessions: one long-lived draining task per worker.  The
   caller submits jobs at any time and can help run them while waiting on
   a predicate, so producers (submission) and consumers (workers) overlap
   freely — the primitive behind the search's barrier-free level
   scheduling.

   Memory model: a job's plain writes happen-before its completion
   broadcast under the session mutex; callers that additionally publish
   per-job results through an [Atomic.t] flag get the standard
   release/acquire pairing for [wait]'s predicate reads. *)
module Stream = struct
  type session = {
    st : t;
    sm : Mutex.t;
    cv : Condition.t;  (** signalled on submission and on job completion *)
    jobs_q : (unit -> unit) Queue.t;
    mutable stolen : int;  (** jobs run by pool workers, not the caller *)
    mutable closed : bool;
  }

  let run_one s job ~worker =
    (* Jobs are expected to trap their own exceptions (the search wraps
       each task); the backstop mirrors [worker_loop]'s. *)
    (try job () with _ -> ());
    Mutex.lock s.sm;
    if worker then s.stolen <- s.stolen + 1;
    Condition.broadcast s.cv;
    Mutex.unlock s.sm

  let start t =
    let s =
      {
        st = t;
        sm = Mutex.create ();
        cv = Condition.create ();
        jobs_q = Queue.create ();
        stolen = 0;
        closed = false;
      }
    in
    if t.workers > 0 then begin
      let drain () =
        let continue = ref true in
        while !continue do
          Mutex.lock s.sm;
          while (not s.closed) && Queue.is_empty s.jobs_q do
            Condition.wait s.cv s.sm
          done;
          match Queue.take_opt s.jobs_q with
          | Some job ->
              Mutex.unlock s.sm;
              run_one s job ~worker:true
          | None ->
              (* closed and drained *)
              Mutex.unlock s.sm;
              continue := false
        done
      in
      (* Install the drain as the pool's task via the epoch broadcast; the
         pool must not start a second session until [finish]. *)
      Mutex.lock t.m;
      t.task <- Some drain;
      t.epoch <- t.epoch + 1;
      t.running <- t.workers;
      Condition.broadcast t.work_cv;
      Mutex.unlock t.m
    end;
    s

  let submit s job =
    Mutex.lock s.sm;
    if s.closed then begin
      Mutex.unlock s.sm;
      raise Stream_finished
    end;
    Queue.add job s.jobs_q;
    Condition.broadcast s.cv;
    Mutex.unlock s.sm

  let help s =
    Mutex.lock s.sm;
    match Queue.take_opt s.jobs_q with
    | None ->
        Mutex.unlock s.sm;
        false
    | Some job ->
        Mutex.unlock s.sm;
        run_one s job ~worker:false;
        true

  let wait s ready =
    let rec loop () =
      if ready () then ()
      else if help s then loop ()
      else begin
        Mutex.lock s.sm;
        (* Re-check under the session mutex: a completion between the
           [ready] read and the lock would otherwise be a lost wakeup. *)
        if (not (ready ())) && Queue.is_empty s.jobs_q then
          Condition.wait s.cv s.sm;
        Mutex.unlock s.sm;
        loop ()
      end
    in
    loop ()

  let stolen s =
    Mutex.lock s.sm;
    let v = s.stolen in
    Mutex.unlock s.sm;
    v

  let finish s =
    Mutex.lock s.sm;
    s.closed <- true;
    Condition.broadcast s.cv;
    Mutex.unlock s.sm;
    (* Help drain whatever is still queued, then wait for the workers'
       drain loops to exit so the pool is free for the next session. *)
    while help s do () done;
    if s.st.workers > 0 then begin
      Mutex.lock s.st.m;
      while s.st.running > 0 do
        Condition.wait s.st.done_cv s.st.m
      done;
      s.st.task <- None;
      Mutex.unlock s.st.m
    end
end

(* Shared memo table: a string-keyed map any domain may read or publish
   into concurrently, striped over independent mutexes so that writers on
   different stripes never contend.  First-writer-wins: [publish] on a key
   that is already present is a no-op, so as long as every writer derives
   the value deterministically from the key (the {!Smemo} contract), which
   domain wins a race is unobservable. *)
module Smemo = struct
  type 'a t = {
    locks : Mutex.t array;
    tables : (string, 'a) Hashtbl.t array;
    mask : int;
  }

  (* 64 stripes, a power of two so that a key's stripe is a mask away. *)
  let create () =
    {
      locks = Array.init 64 (fun _ -> Mutex.create ());
      tables = Array.init 64 (fun _ -> Hashtbl.create 64);
      mask = 63;
    }

  let slot t key = Hashtbl.hash (key : string) land t.mask

  let find t key =
    let i = slot t key in
    Mutex.lock t.locks.(i);
    let r = Hashtbl.find_opt t.tables.(i) key in
    Mutex.unlock t.locks.(i);
    r

  let publish t key v =
    let i = slot t key in
    Mutex.lock t.locks.(i);
    let fresh = not (Hashtbl.mem t.tables.(i) key) in
    if fresh then Hashtbl.add t.tables.(i) key v;
    Mutex.unlock t.locks.(i);
    fresh
end

(* Domain-local storage: each domain (the caller and every worker) gets its
   own instance, created on first access.  Memo tables stored this way are
   filled independently per domain, so no locking is needed and — provided
   the memoized function is deterministic — every domain computes the same
   values. *)
module Dls = struct
  type 'a key = 'a Domain.DLS.key

  let new_key f = Domain.DLS.new_key f
  let get k = Domain.DLS.get k
end
