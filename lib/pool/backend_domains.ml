(* Domain-based work pool (OCaml >= 5).

   One batch at a time: [map_array] installs a single shared task — a
   work-stealing loop over an atomic index into the input array — and
   broadcasts it to every worker domain; the calling domain participates
   too.  Workers park on a condition variable between batches, so a pool
   amortizes domain spawn cost across every beam level and every spec of a
   batched run.

   Memory model: all writes a worker performs during a batch (the results
   array, any caches filled inside [f]) happen-before the caller's return
   from [map_array], because the worker's final decrement of [running] and
   the caller's read of it are ordered by the pool mutex.  Symmetrically,
   everything the caller wrote before [map_array] is visible to workers via
   the broadcast under the same mutex. *)

type t = {
  workers : int;  (** spawned domains; effective parallelism is workers+1 *)
  m : Mutex.t;
  work_cv : Condition.t;
  done_cv : Condition.t;
  mutable task : (unit -> unit) option;
  mutable epoch : int;  (** bumped once per batch *)
  mutable running : int;  (** workers still inside the current batch *)
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
  let jobs = max 1 jobs in
  let t =
    {
      workers = jobs - 1;
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
  t.domains <-
    List.init t.workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let jobs t = t.workers + 1

(* Run [task] on every worker and on the caller; returns once all have
   finished. *)
let run_batch t task =
  if t.workers = 0 then task ()
  else begin
    Mutex.lock t.m;
    t.task <- Some task;
    t.epoch <- t.epoch + 1;
    t.running <- t.workers;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.m;
    task ();
    Mutex.lock t.m;
    while t.running > 0 do
      Condition.wait t.done_cv t.m
    done;
    t.task <- None;
    Mutex.unlock t.m
  end

let map_array t f input =
  let n = Array.length input in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let first_error = Atomic.make None in
    let next = Atomic.make 0 in
    let work () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else
          match f input.(i) with
          | v -> results.(i) <- Some v
          | exception e ->
              ignore (Atomic.compare_and_set first_error None (Some e))
      done
    in
    run_batch t work;
    (match Atomic.get first_error with Some e -> raise e | None -> ());
    Array.map
      (function Some v -> v | None -> assert false (* no error => all set *))
      results
  end

let shutdown t =
  Mutex.lock t.m;
  t.quit <- true;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.m;
  List.iter Domain.join t.domains;
  t.domains <- []

(* Streaming work sessions: one long-lived draining task per worker instead
   of one epoch broadcast per batch.  The caller submits jobs at any time
   and can help run them while waiting on a predicate, so producers
   (submission) and consumers (workers) overlap freely — the primitive
   behind the search's barrier-free level scheduling.

   Memory model: a job's plain writes happen-before the bump of
   [completed] under the session mutex; callers that additionally publish
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
      (* Install the drain as the pool's task via the usual epoch
         broadcast; the pool must not run [map_array] batches (or a second
         session) until [finish]. *)
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
       drain loops to exit so the pool is free for the next batch. *)
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

  let create ?(stripes = 64) () =
    let n =
      let rec pow2 k = if k >= max 1 stripes then k else pow2 (k * 2) in
      pow2 1
    in
    {
      locks = Array.init n (fun _ -> Mutex.create ());
      tables = Array.init n (fun _ -> Hashtbl.create 64);
      mask = n - 1;
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

  let length t =
    let n = ref 0 in
    Array.iteri
      (fun i tbl ->
        Mutex.lock t.locks.(i);
        n := !n + Hashtbl.length tbl;
        Mutex.unlock t.locks.(i))
      t.tables;
    !n
end

(* Domain-local storage: each domain (the caller and every worker) gets its
   own instance, created on first access.  Memo tables stored this way are
   filled independently per domain, so no locking is needed and — provided
   the memoized function is deterministic — every domain computes the same
   values, preserving the [map_array] determinism contract. *)
module Dls = struct
  type 'a key = 'a Domain.DLS.key

  let new_key f = Domain.DLS.new_key f
  let get k = Domain.DLS.get k
end
