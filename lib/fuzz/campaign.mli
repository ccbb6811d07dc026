(** The fuzzing campaign loop of Figure 1.

    Seeds the corpus, then repeatedly: choose a base test, ask the strategy
    for mutants, execute them on the VM (advancing the virtual clock),
    fold coverage into the campaign accumulator, admit novel mutants to the
    corpus, and triage crashes. Supports the undirected mode (coverage
    campaigns of §5.3) and the directed mode (§5.4), which weights base
    selection by static distance to the target block and stops when the
    target is covered.

    There is one loop, {!Shard.run_epoch}; this module owns everything
    around it: the barrier-frozen global state each epoch reads, the
    shard-order merge, the series, snapshots and the report. A one-job
    campaign is the one-shard case of the same code. *)

type config = {
  duration : float;  (** virtual seconds; 24 h = 86_400 *)
  seed : int;
  seed_corpus : Sp_syzlang.Prog.t list;
  snapshot_every : float;  (** coverage time-series resolution *)
  attempt_repro : bool;  (** run syz-repro on each new crash *)
  target : int option;  (** directed mode: block id to reach *)
}

val default_config : config
(** 24 virtual hours, snapshots every 20 virtual minutes, no reproduction,
    undirected, empty seed corpus, seed 0. *)

type snapshot = {
  s_time : float;
  s_blocks : int;
  s_edges : int;
  s_crashes : int;
  s_execs : int;
}

type report = {
  series : snapshot list;  (** chronological *)
  final_blocks : int;
  final_edges : int;
  crashes : Triage.found list;
  new_crashes : Triage.found list;
  known_crashes : Triage.found list;
  executions : int;
  corpus_size : int;
  target_hit_at : float option;  (** directed mode: time the target was covered *)
  origin_stats : (string * (int * int)) list;
      (** per proposal origin: (executions, new edges discovered) —
          attribution of coverage to mutation streams *)
  corpus : Corpus.t;  (** final corpus, for post-campaign analyses *)
  covered_blocks : Sp_util.Bitset.t;
      (** final block coverage (an independent snapshot, safe to mutate) *)
  metrics : Sp_util.Metrics.t;
      (** loop observability: [campaign.*] counters (iterations, proposals,
          duplicates, corpus adds, crashes) and histograms (per-iteration
          virtual time, proposal wall time [campaign.propose_wall_s]),
          plus the [vm.*] metrics the VM records into the same registry *)
}

val run :
  ?trace:Sp_obs.Trace.t ->
  ?timeseries:Sp_obs.Timeseries.t ->
  ?ts_extra:(unit -> (string * float) list) ->
  Vm.t ->
  Strategy.t ->
  config ->
  report
(** One campaign on one shard: {!run_parallel} with [jobs = 1], whose
    single shard runs on the calling domain.

    Telemetry: with [trace], the campaign records into the collection —
    pid 0 is the main domain ([campaign.snapshot] instants, an [edges]
    counter, [campaign.barrier] / [campaign.merge] spans), pid [1+s] is
    shard [s] ([shard.epoch] spans, [vm.crash_restart] instants), pid
    [1001+i] is pool worker [i] ([pool.task] spans, [pool.steal]
    instants; a one-shard campaign has no worker). With [timeseries], one
    row is appended per snapshot-grid point carrying [blocks], [edges],
    [execs], [execs_per_s], [corpus] and [crashes] plus whatever
    [ts_extra ()] returns (sampled on the main domain at the same grid
    point). The timeseries reads only virtual-clock/merged state, so it
    is bit-for-bit reproducible given [(config.seed, jobs)]; the trace
    carries wall-clock timestamps and is explicitly {e not} part of that
    determinism contract. *)

type aux = {
  aux_json : unit -> Sp_obs.Json.t;
  aux_restore : Sp_obs.Json.t -> unit;
}
(** Strategy-side state that rides along in barrier snapshots — the hook
    the snowplow layer uses to persist its inference service, funnel and
    prediction caches (see [Snowplow.Persist]). [aux_json] is called
    after every barrier merge, at quiescence (no epoch in flight);
    [aux_restore] is called once during {!resume} with the snapshot's
    [aux] field (when it is not [Null]). Campaigns without an [aux]
    write [Null] and ignore the field on restore. *)

val run_parallel :
  ?on_barrier:(now:float -> unit) ->
  ?trace:Sp_obs.Trace.t ->
  ?timeseries:Sp_obs.Timeseries.t ->
  ?ts_extra:(unit -> (string * float) list) ->
  ?snapshot_dir:string ->
  ?aux:aux ->
  ?faults:Sp_util.Faults.t ->
  jobs:int ->
  vm_for:(int -> Vm.t) ->
  strategy_for:(int -> Strategy.t) ->
  config ->
  report
(** Shard the campaign across [jobs] worker domains (see {!Shard}); with
    [jobs = 1] the one shard runs on the calling domain and no worker
    domain is spawned. Each shard owns the VM and strategy built by
    [vm_for]/[strategy_for] for its index and a named split of the
    campaign RNG; seed tests are dealt round-robin. Shards fuzz
    independently between snapshot barriers (every [snapshot_every]
    virtual seconds); at each barrier the main domain folds coverage,
    corpus admissions (re-judged for novelty) and crashes into the global
    state {e in shard order}, making the run bit-for-bit reproducible
    given [(config.seed, jobs)] regardless of scheduling. [on_barrier] runs on the main domain after each merge —
    the hook the snowplow layer uses to flush batched inference requests.
    The report's registry carries per-shard loop/vm metrics (merged in
    shard order) and the worker pool's [pool.*] metrics.

    With [snapshot_dir], the merged campaign state is persisted after
    every barrier as [snapshot_dir/snapshot-NNNNNN.json] (written
    atomically; a kill mid-write leaves the previous barrier's file
    intact), and {!resume} can continue the campaign from any of them. *)

val resume :
  ?on_barrier:(now:float -> unit) ->
  ?trace:Sp_obs.Trace.t ->
  ?timeseries:Sp_obs.Timeseries.t ->
  ?ts_extra:(unit -> (string * float) list) ->
  ?snapshot_dir:string ->
  ?aux:aux ->
  ?faults:Sp_util.Faults.t ->
  snapshot:Sp_obs.Json.t ->
  jobs:int ->
  vm_for:(int -> Vm.t) ->
  strategy_for:(int -> Strategy.t) ->
  config ->
  (report, string) result
(** Continue a campaign from a barrier snapshot (parsed from a file
    written under [run_parallel ~snapshot_dir]; see {!Snapshot.read}).
    [config] and [jobs] must match the snapshot's recorded launch
    parameters — seed, jobs, duration, snapshot grid, repro and target
    settings are validated and any mismatch is an [Error] (the
    [seed_corpus] is not consulted: each shard's unexecuted seed slice is
    part of the snapshot). The resumed run replays the remaining barriers
    from restored state, so its report is bit-for-bit identical
    ({!report_json}) to the uninterrupted run's — for stateless
    strategies (syzkaller) unconditionally, and for the snowplow
    strategy when the same [aux] hook that wrote the snapshot's
    inference/funnel/prediction caches is supplied to restore them.
    Resuming from a final snapshot (one whose campaign had already
    stopped) reassembles the report without fuzzing further. *)

(** {2 Campaign instances}

    The executor, opened up: an [instance] is one campaign's
    merged global state plus its shard array, stepped one barrier slice
    at a time against a {!Sp_util.Pool} the {e caller} owns.
    [run_parallel] is [create_instance] + step-until-stopped over a
    private pool; the multi-tenant {!Scheduler} interleaves slices of
    many instances over one shared pool. Because every slice is a pure
    function of the instance's barrier-frozen state and the merge runs
    on the calling domain in shard order, an instance's report is
    bit-for-bit independent of {e when} its slices run relative to other
    instances' — the determinism guarantee extends from (seed, jobs) to
    (seed, jobs, schedule). *)

type instance

type slice
(** One in-flight barrier slice: every shard's next epoch, submitted. *)

val create_instance :
  ?snapshot_dir:string ->
  ?restore:Sp_obs.Json.t ->
  ?on_barrier:(now:float -> unit) ->
  ?trace:Sp_obs.Trace.t ->
  ?timeseries:Sp_obs.Timeseries.t ->
  ?ts_extra:(unit -> (string * float) list) ->
  ?aux:aux ->
  ?pid_base:int ->
  ?label:string ->
  ?faults:Sp_util.Faults.t ->
  ?events:Sp_obs.Events.t ->
  jobs:int ->
  vm_for:(int -> Vm.t) ->
  strategy_for:(int -> Strategy.t) ->
  config ->
  instance
(** Build the shards and merged global state (optionally from a
    [restore] snapshot — validate it with {!validate_snapshot} first;
    malformed input raises [Sp_obs.Json.Decode.Error]). [pid_base]
    (default 0) offsets the instance's trace lanes — the main lane is
    pid [pid_base], shard [s] is pid [pid_base + 1 + s] — so a scheduler
    can give every tenant a disjoint pid range; [label] prefixes the
    lane names.

    [faults] (default {!Sp_util.Faults.disabled}) arms this instance's
    injection sites, both prefixed with [label ^ "/"] when a label is
    set: [shard.epoch] (one shard's epoch task raises; [k] = slice-wide
    epoch ordinal [(barrier - 1) * jobs + shard], stable across resume)
    and [io.write_atomic] (the barrier snapshot write crashes mid-write,
    leaving the previous snapshot intact; [k] = barrier number).
    Decisions are consulted on the instance's own domain in shard order,
    so they are independent of pool scheduling.

    [events] (default {!Sp_obs.Events.null}) receives an Info
    [snapshot.write] event per persisted barrier snapshot (label, file,
    document bytes, barrier, virtual time, stop flag), emitted on the
    instance's own domain inside [complete_slice]. The same write is a
    [snapshot.write] trace span on the instance's main lane, followed by
    the cumulative {!snapshot_cost} as trace counters
    [snapshot.bytes_written] and [snapshot.write_s] (prefixed with
    [label ^ "/"] when a label is set). *)

val begin_slice : instance -> pool:Sp_util.Pool.t -> ?max_execs:int -> unit -> slice
(** Submit every shard's next epoch to [pool] and return without
    waiting. [max_execs] caps the slice's total VM executions (dealt
    evenly across shards, remainder to the lowest shard ids) — the
    scheduler's exact budget enforcement. Raises [Invalid_argument] on a
    stopped instance. *)

val complete_slice : instance -> slice -> unit
(** Await the slice's epochs (recording the blocked time as the
    [pool.barrier_wait_s] summary) and fold them into the instance in
    shard order, run the barrier hook, sample the series, decide whether
    the campaign stops, and persist a snapshot when configured. Must run
    on the domain that owns the instance, with slices completed in the
    order they began. Every epoch is awaited before any failure is
    judged (so a raising slice is quiescent by the time the exception
    escapes), then the first failing shard's exception re-raises here
    with its original backtrace. *)

val step_instance : instance -> pool:Sp_util.Pool.t -> ?max_execs:int -> unit -> unit
(** [begin_slice] + [complete_slice]. *)

val finish_instance : instance -> report
(** Close the series grid and assemble the report (merging per-shard
    metrics). Call once, after the instance stopped — or early, to
    report on a budget-exhausted tenant as of its last completed
    barrier. *)

val instance_stopped : instance -> bool

val instance_barrier : instance -> int
(** Completed barriers (monotone; restored by {!resume} snapshots). *)

type snapshot_cost = {
  sc_bytes : int;  (** bytes of every barrier snapshot this instance wrote *)
  sc_write_s : float;  (** wall seconds spent building and writing them *)
}

val snapshot_cost : instance -> snapshot_cost
(** Read from the instance registry's [snapshot.bytes_written] counter and
    [snapshot.write_s] wall-clock timer, which every persisted barrier
    snapshot feeds. Zero without a snapshot directory. The registry is the
    report's [metrics]; {!report_json} leaves it out, so the report bytes
    do not depend on it. *)

val instance_executions : instance -> int
(** Total VM executions across the instance's shards so far. *)

val instance_next_time : instance -> float
(** Virtual time the next slice will run up to — the stride scheduler's
    per-tenant progress clock. *)

val validate_snapshot : snapshot:Sp_obs.Json.t -> jobs:int -> config -> unit
(** Check a snapshot document's format marker, version and config echo
    against the launch parameters. Raises [Sp_obs.Json.Decode.Error]
    (with a human-readable message) on any mismatch; {!resume} calls
    this for you. *)

val report_json : report -> Sp_obs.Json.t
(** The deterministic portion of a report (everything except [metrics],
    which carries wall-clock timings) as a canonical JSON document —
    serialized twice, byte-equal iff the campaigns behaved identically.
    The resume determinism tests compare these. *)

val coverage_at : report -> float -> int
(** Edge coverage at a given virtual time, interpolated from the series
    (step function); used to compute the paper's time-to-coverage
    speedups. *)

val time_to_edges : report -> int -> float option
(** First snapshot time at which edge coverage reached the given level. *)
