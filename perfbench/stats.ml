(* Small statistics and process helpers. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Linear-interpolated quantile, [q] in [0, 1]; 0 for an empty list. *)
let quantile q l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = quantile 0.5 l

let geomean l =
  match l with
  | [] -> 0.0
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 l
        /. float_of_int (List.length l))

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun l ->
             try Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some kb)
             with _ -> None)
      |> Option.fold ~none:0.0 ~some:(fun kb -> float_of_int kb /. 1024.0)

(* Set the CPUs every thread of [pid] may run on, with taskset(1); a host
   without it runs unpinned.  Children inherit the mask. *)
let pin ~cpus pid =
  let null = Unix.openfile "/dev/null" [ O_RDWR ] 0 in
  (match
     Unix.create_process "taskset"
       [| "taskset"; "-a"; "-p"; "-c"; cpus; string_of_int pid |]
       null null null
   with
  | p -> ignore (Unix.waitpid [] p)
  | exception Unix.Unix_error _ -> ());
  Unix.close null

(* ---- machine speed ----

   The host's speed drifts: on a shared two-core VM a fixed 40 ms loop ran
   from 26 to 82 ms, its 2 s averages still varied by 10%, and the drift
   stayed correlated over tens of seconds, so whole runs of the same code
   landed 30% apart.  The benchmark therefore times a fixed kernel
   ([probe]) between ops, at most every [probe_every] seconds, and scales
   each measured interval by the probes taken around it ([speed]): times
   read as seconds on a machine where the kernel takes [reference_ms].
   The kernel does what the program's hot loops do: it interns 30,000
   fresh string keys in a hash table, as [Sg.of_stg] interns markings,
   and allocates short-lived tuples.  Of the kernels tried it tracked LR
   synth best: over 0.7 s windows it cut the variation of LR synth time
   from 17% to 8%; pure ALU or pointer-chasing loops tracked it worse. *)

let reference_ms = 16.0
let probe_every = 0.1
let window_s = 1.0

let kernel () =
  let tbl = Hashtbl.create 16 in
  for i = 0 to 29_999 do
    let k = Bytes.create 24 in
    for j = 0 to 23 do
      Bytes.unsafe_set k j (Char.unsafe_chr (((i * (j + 7)) + (i lsr (j land 7))) land 255))
    done;
    Hashtbl.replace tbl (Bytes.unsafe_to_string k) [| i; i + 1 |]
  done;
  let l = ref [] in
  for i = 1 to 640_000 do
    l := (i, i) :: !l;
    if i land 1023 = 0 then l := []
  done;
  ignore (Sys.opaque_identity (Hashtbl.length tbl, !l))

(* (time of the probe, kernel seconds), newest first *)
let probes = ref []
let last_probe = ref neg_infinity

let probe () =
  let t0 = now () in
  let (), dt = time kernel in
  probes := (t0, dt) :: !probes;
  last_probe := now ()

let maybe_probe () = if now () -. !last_probe >= probe_every then probe ()

(* The factor that turns a time measured over [t0, t1] into a
   reference-machine time, from the median kernel time of the probes
   within [window_s] of the interval, or of the three nearest ones. *)
let speed ~t0 ~t1 =
  let dist (t, _) = Float.max 0.0 (Float.max (t0 -. t) (t -. t1)) in
  let near = List.filter (fun p -> dist p <= window_s) !probes in
  let near =
    if List.length near >= 3 then near
    else
      List.sort (fun a b -> Float.compare (dist a) (dist b)) !probes
      |> List.filteri (fun i _ -> i < 3)
  in
  match near with
  | [] -> 1.0
  | l -> reference_ms /. (median (List.map snd l) *. 1e3)

let probe_ms () = median (List.map snd !probes) *. 1e3

(* Median over [n] repetitions of a set-up step [f], in reference
   seconds, scaled by three probes on either side.  [untimed] runs before
   each repetition, outside the timing: the serve workload stops the
   previous server there, which took up to 0.1 s. *)
let median_setup ?(untimed = ignore) n f =
  let last = ref None in
  for _ = 1 to 3 do probe () done;
  let t0 = now () in
  let times =
    List.init n (fun _ ->
        untimed ();
        let r, dt = time f in
        last := Some r;
        dt)
  in
  let t1 = now () in
  for _ = 1 to 3 do probe () done;
  (Option.get !last, median times *. speed ~t0 ~t1)
