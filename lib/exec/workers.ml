(** Warm worker domains: leased single tasks and the persistent serve
    pool; see the interface for the architecture. *)

module Metrics = Commset_obs.Metrics

let src_log = Logs.Src.create "commset.workers" ~doc:"Warm worker domains"

module Log = (val Logs.src_log src_log : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Leased domains                                                      *)
(* ------------------------------------------------------------------ *)

let m_spawned =
  Metrics.counter ~doc:"domains spawned for leased tasks (process lifetime)"
    "exec.domains_spawned"

type lease = {
  mutable finished : bool;
  mutable failure : exn option;
  done_ : Condition.t;
}

(* A leased domain's mailbox: the task it runs next, [None] while
   parked. *)
type parked = { wake : Condition.t; mutable job : ((unit -> unit) * lease) option }

(* One lock guards the idle set, every mailbox and every lease. *)
let lock = Mutex.create ()
let idle : parked list ref = ref []

(* Run a task, record its outcome, park again, all without giving up
   the domain: completion and re-parking happen in one critical
   section, so a caller that awaits and leases again finds this domain
   idle instead of spawning another. *)
let leased_main (p : parked) () =
  Mutex.lock lock;
  while true do
    match p.job with
    | None -> Condition.wait p.wake lock
    | Some (f, l) ->
        p.job <- None;
        Mutex.unlock lock;
        let failure = match f () with () -> None | exception e -> Some e in
        Mutex.lock lock;
        l.failure <- failure;
        l.finished <- true;
        Condition.broadcast l.done_;
        idle := p :: !idle
  done

let lease f =
  let l = { finished = false; failure = None; done_ = Condition.create () } in
  Mutex.lock lock;
  (match !idle with
  | p :: rest ->
      idle := rest;
      p.job <- Some (f, l);
      Condition.signal p.wake;
      Mutex.unlock lock
  | [] ->
      Mutex.unlock lock;
      Metrics.incr m_spawned;
      let p = { wake = Condition.create (); job = Some (f, l) } in
      ignore (Domain.spawn (leased_main p) : unit Domain.t));
  l

let await l =
  Mutex.lock lock;
  while not l.finished do
    Condition.wait l.done_ lock
  done;
  Mutex.unlock lock;
  match l.failure with Some e -> raise e | None -> ()

(* ------------------------------------------------------------------ *)
(* Serve pool                                                          *)
(* ------------------------------------------------------------------ *)

type task = Run of (unit -> unit) | Quit

type t = {
  rings : task Spsc.t array;
  domains : unit Domain.t array;
  next : int ref;  (** round-robin tie-breaker; coordinator-only state *)
  executed : int Atomic.t;
  task_errors : int Atomic.t;
  backpressure : int Atomic.t;
  mutable stopped : bool;  (** coordinator-only *)
}

type stats = { w_executed : int; w_task_errors : int; w_backpressure : int }

let worker_loop (executed : int Atomic.t) (task_errors : int Atomic.t)
    (ring : task Spsc.t) () =
  let rec loop () =
    (* Spsc.pop parks through the adaptive backoff: one blocking episode
       escalates into the long-idle tier, so an empty ring costs one
       wakeup per idle-sleep cap *)
    match Spsc.pop ring with
    | Quit -> ()
    | Run f ->
        (try f ()
         with exn ->
           Atomic.incr task_errors;
           Log.err (fun m -> m "worker task raised: %s" (Printexc.to_string exn)));
        Atomic.incr executed;
        loop ()
  in
  loop ()

let spawn ?(ring = 256) ~jobs () =
  let jobs = max 1 jobs in
  let ring = max 1 ring in
  let executed = Atomic.make 0 in
  let task_errors = Atomic.make 0 in
  let rings = Array.init jobs (fun _ -> Spsc.create ~capacity:ring) in
  let domains =
    Array.init jobs (fun i -> Domain.spawn (worker_loop executed task_errors rings.(i)))
  in
  Log.info (fun m -> m "spawned %d warm worker(s), ring capacity %d" jobs ring);
  {
    rings;
    domains;
    next = ref 0;
    executed;
    task_errors;
    backpressure = Atomic.make 0;
    stopped = false;
  }

let size t = Array.length t.rings

let pending t = Array.fold_left (fun acc r -> acc + Spsc.length r) 0 t.rings

(* least-loaded ring, round-robin on ties, so one slow request does not
   serialize the queue behind it *)
let pick t =
  let n = Array.length t.rings in
  let start = !(t.next) in
  t.next := (start + 1) mod n;
  let best = ref (start mod n) in
  for k = 1 to n - 1 do
    let i = (start + k) mod n in
    if Spsc.length t.rings.(i) < Spsc.length t.rings.(!best) then best := i
  done;
  !best

let submit t f =
  if t.stopped then invalid_arg "Workers.submit: pool is shut down";
  let i = pick t in
  Spsc.push ~on_wait:(fun () -> Atomic.incr t.backpressure) t.rings.(i) (Run f)

let stats t =
  {
    w_executed = Atomic.get t.executed;
    w_task_errors = Atomic.get t.task_errors;
    w_backpressure = Atomic.get t.backpressure;
  }

let shutdown t =
  if not t.stopped then begin
    t.stopped <- true;
    Array.iter (fun r -> Spsc.push r Quit) t.rings;
    Array.iter Domain.join t.domains;
    Log.info (fun m ->
        m "pool drained: %d task(s) executed, %d error(s)" (Atomic.get t.executed)
          (Atomic.get t.task_errors))
  end
