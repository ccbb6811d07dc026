(** Fixed-size domain worker pool with per-worker task queues.

    The parallel campaign executor runs one epoch per shard between
    snapshot barriers; this pool owns the worker domains so they are
    spawned once per campaign, not once per epoch. Tasks are submitted
    round-robin to per-worker queues; an idle worker steals from a
    sibling's queue before sleeping, so one slow shard cannot strand
    queued work behind it. A raising task resolves its handle to
    [Error] — the worker survives and keeps draining the queues.

    Observability lands in a {!Metrics} registry (updated only under the
    pool lock, since registries are not thread-safe): [pool.tasks] and
    [pool.steals] counters, [pool.idle_ns] (time a worker spent parked
    waiting for work) and [pool.barrier_wait_ns] (time the submitter
    spent blocked in {!run_all}) histograms. With [tracer_for], each
    worker additionally records a [pool.task] span per executed task and
    a [pool.steal] instant per steal into its own per-worker tracer. *)

type t

val create :
  ?metrics:Metrics.t ->
  ?tracer_for:(int -> Sp_obs.Tracer.t) ->
  ?faults:Faults.t ->
  workers:int ->
  unit ->
  t
(** Spawn [workers] domains (>= 0). [tracer_for i] is called once per
    worker, on the calling domain, before any worker starts; worker [i]
    then owns (and is the only writer of) that tracer.

    A pool with [workers = 0] spawns no domain: {!submit} runs each task
    on the submitting domain before returning its (already resolved)
    handle. A one-shard campaign runs that way, so it keeps the caller's
    minor heap and domain-local state instead of paying for a second
    domain it cannot use.

    With an enabled [faults] plan (default {!Faults.disabled}), each
    {!submit} consults site ["pool.task"] at the pool-wide submission
    ordinal — on the submitting domain, so the decision is deterministic
    per submission order — and an injected task resolves its handle to
    [Error (Faults.Injected "pool.task")] without running the payload. *)

val workers : t -> int

val metrics : t -> Metrics.t

val in_flight : t -> int
(** Submitted tasks whose handle has not yet resolved — the scheduler's
    admission signal ([workers t - in_flight t] slots are free). Reads
    under the pool lock; the value is advisory (a task may resolve
    between the read and any decision taken on it). *)

type 'a handle

val submit : t -> (unit -> 'a) -> 'a handle
(** Enqueue a task (or, with no workers, run it now). Raises
    [Invalid_argument] after {!shutdown}. *)

val await : 'a handle -> ('a, exn) result
(** Block until the task has run. A task that raised reports its
    exception here instead of killing the worker. *)

val await_full : 'a handle -> ('a, exn * Printexc.raw_backtrace) result
(** Like {!await}, but a failed task also carries the backtrace captured
    at the raise site on the worker domain — re-raise with
    [Printexc.raise_with_backtrace] so failure records point at the real
    failure site, not at the await. *)

val run_all : t -> (unit -> 'a) list -> ('a, exn) result list
(** Submit every thunk, then await them all (a barrier); results are in
    submission order. Records the blocked time as [pool.barrier_wait_ns]. *)

val shutdown : t -> unit
(** Drain every queued task, then join the worker domains. Idempotent
    and safe under concurrency: the first caller performs the drain +
    join; any concurrent caller blocks until the pool is fully down, so
    no [shutdown] ever returns while workers are still running. A
    [submit] racing with shutdown either enqueues (and is drained) or
    raises [Invalid_argument] — it never deadlocks. *)

val with_pool :
  ?metrics:Metrics.t ->
  ?tracer_for:(int -> Sp_obs.Tracer.t) ->
  ?faults:Faults.t ->
  workers:int ->
  (t -> 'a) ->
  'a
(** [create], run, then [shutdown] (also on exceptions). *)

(** Bounded multi-producer multi-consumer channel on [Mutex]/[Condition];
    the cross-domain hand-off primitive for streaming pipelines (the pool
    itself uses per-worker queues, not a channel). *)
module Chan : sig
  type 'a t

  exception Closed

  val create : ?faults:Faults.t -> capacity:int -> unit -> 'a t
  (** Raises [Invalid_argument] when [capacity < 1]. With an enabled
      [faults] plan, {!send} and {!recv} consult sites ["chan.send"] /
      ["chan.recv"] at per-channel operation ordinals (assigned under
      the channel lock) and raise [Faults.Injected] when the plan says
      so, before touching the buffer. *)

  val send : 'a t -> 'a -> unit
  (** Blocks while full. Raises {!Closed} if the channel is (or becomes)
      closed while sending. *)

  val try_send : 'a t -> 'a -> bool
  (** Non-blocking; [false] when full. Raises {!Closed} when closed. *)

  val recv : 'a t -> 'a option
  (** Blocks while empty and open; [None] once the channel is closed and
      drained. *)

  val try_recv : 'a t -> 'a option
  (** Non-blocking; [None] when currently empty (even if open). *)

  val close : 'a t -> unit
  (** Wake all blocked senders/receivers. Buffered items remain
      receivable. Idempotent. *)

  val length : 'a t -> int
end
