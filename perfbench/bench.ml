(* The repository benchmark: the syzkaller loop, the Snowplow hybrid loop
   and a snapshotting two-tenant serve, driven through their public entry
   points and measured from outside. See README.md for the workloads, the
   metrics and how each layer metric maps onto an end-to-end one.

   Usage: bench.exe --workload W --seed N --seconds S --trace 0|1

   A run sets the workload up (kernel generation and seed programs
   several times, reporting the median; PMM training once), then
   measures as many campaigns with distinct seeds as fit in [--seconds]
   on a reference host, and reports totals over them. With [--trace 1]
   it instead measures one traced campaign between two plain ones of the
   same seed, replays the traffic the traced one recorded through each
   layer's public functions, and reports the per-layer metrics. The last
   line of standard output is the result as one JSON object. *)

module Campaign = Sp_fuzz.Campaign
module Scheduler = Sp_fuzz.Scheduler
module Strategy = Sp_fuzz.Strategy
module Corpus = Sp_fuzz.Corpus
module Vm = Sp_fuzz.Vm
module Snapshot = Sp_fuzz.Snapshot
module Kernel = Sp_kernel.Kernel
module Prog = Sp_syzlang.Prog
module Gen = Sp_syzlang.Gen
module Engine = Sp_mutation.Engine
module Accum = Sp_coverage.Accum
module Metrics = Sp_util.Metrics
module Rng = Sp_util.Rng
module Json = Sp_obs.Json
module Events = Sp_obs.Events
module Trace = Sp_obs.Trace
module Tracer = Sp_obs.Tracer
module Pipeline = Snowplow.Pipeline
module Inference = Snowplow.Inference
module Hybrid = Snowplow.Hybrid
module Query_graph = Snowplow.Query_graph
module Pmm = Snowplow.Pmm

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type workload = Syz_1shard | Snowplow_1shard | Serve_snap

let workloads =
  [ ("syz-1shard", Syz_1shard);
    ("snowplow-1shard", Snowplow_1shard);
    ("serve-snap", Serve_snap)
  ]

(* The fuzzed kernel of every workload, as `fuzz` and `serve` build it by
   default. *)
let kernel_seed = 7

let kernel_version = "6.8"

let seed_programs = 60

(* Virtual campaign length. *)
let hours = function
  | Syz_1shard -> 4.0
  | Snowplow_1shard -> 0.75
  | Serve_snap -> 1.5

let setup_reps = 9

(* The pipeline scale `serve` and CI train at (SNOWPLOW_QUICK). *)
let quick_pipeline =
  {
    Pipeline.default_config with
    kernel_seed = 19;
    gen_bases = 40;
    corpus_bases = 40;
    warmup_duration = 900.0;
    dataset = { Snowplow.Dataset.default_config with mutations_per_base = 200 };
    encoder = { Snowplow.Encoder.default_config with steps = 600 };
    trainer = { Snowplow.Trainer.default_config with epochs = 4; log_every = 0 };
  }

(* Scratch space inside the working directory: one directory per run,
   deleted when the run ends, and the per-seed digest store. *)
let tmp_root = ".perfbench-tmp"

let state_root = ".perfbench-state"

(* ------------------------------------------------------------------ *)
(* Probes and helpers                                                   *)
(* ------------------------------------------------------------------ *)

let wall = Unix.gettimeofday

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

let proc_field file key =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        let line = input_line ic in
        if String.starts_with ~prefix:key line then
          let rest = String.sub line (String.length key) (String.length line - String.length key) in
          float_of_string (List.hd (String.split_on_char ' ' (String.trim rest)))
        else find ()
      in
      find ())

(* Peak resident set since the last [reset_peak_rss], in MB. *)
let peak_rss_mb () = proc_field "/proc/self/status" "VmHWM:" /. 1024.0

(* Writing 5 to clear_refs resets VmHWM to the current RSS, which scopes
   the peak to the phase that follows (PMM training would otherwise hide
   the campaign's own peak). *)
let reset_peak_rss () =
  Gc.compact ();
  let oc = open_out "/proc/self/clear_refs" in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "5")

(* Bytes passed to write(2) by this process: counts snapshot writes even
   if their files are deleted later. *)
let bytes_written () = proc_field "/proc/self/io" "wchar:"

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = truncate pos in
    let hi = min (Array.length a - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5

let sum = List.fold_left ( +. ) 0.0

let mean = function [] -> 0.0 | xs -> sum xs /. float_of_int (List.length xs)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* At most [cap] elements, evenly spaced over [xs]. *)
let spread ~cap xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n <= cap then xs else List.init cap (fun i -> a.(i * n / cap))

(* Pairs up two lists, dropping the longer one's tail. *)
let rec zip xs ys =
  match (xs, ys) with x :: xs, y :: ys -> (x, y) :: zip xs ys | _ -> []

(* Total seconds per span name over Chrome trace events (balanced B/E
   pairs per pid, timestamps in µs). *)
let span_totals events =
  let totals = Hashtbl.create 16 and open_spans = Hashtbl.create 16 in
  let field name ev = Json.member name ev in
  List.iter
    (fun ev ->
      match (field "ph" ev, field "name" ev, field "pid" ev, field "ts" ev) with
      | Some (Json.Str ph), Some (Json.Str name), Some (Json.Num pid), Some (Json.Num ts) -> (
        let key = (pid, name) in
        let stack = Option.value ~default:[] (Hashtbl.find_opt open_spans key) in
        match (ph, stack) with
        | "B", _ -> Hashtbl.replace open_spans key (ts :: stack)
        | "E", start :: rest ->
          Hashtbl.replace open_spans key rest;
          Hashtbl.replace totals name
            (Option.value ~default:0.0 (Hashtbl.find_opt totals name) +. ((ts -. start) /. 1e6))
        | _ -> ())
      | _ -> ())
    events;
  fun name -> Option.value ~default:0.0 (Hashtbl.find_opt totals name)

(* ------------------------------------------------------------------ *)
(* Setup                                                                *)
(* ------------------------------------------------------------------ *)

type env = {
  kernel : Kernel.t;
  corpora : Prog.t list array;  (* seed programs per campaign slot *)
  service : (Pmm.t * Sp_ml.Tensor.t) option;  (* trained model, block embeddings *)
  setup_s : float;
  kernel_s : float;
  train_s : float;
  train_spans : (string * float) list;  (* pipeline stage seconds (traced runs) *)
}

(* Serve tenants: two syzkaller campaigns, (name, slot, seed). *)
let tenants seed = [ ("t0", 0, 2 * seed); ("t1", 1, (2 * seed) + 1) ]

let tenant_names = List.map (fun (name, _, _) -> name) (tenants 0)

let slots = function Serve_snap -> 2 | Syz_1shard | Snowplow_1shard -> 1

(* A campaign's inputs. The campaign seed drives its RNG streams; its seed
   programs are generated once per campaign slot from a fixed seed, so
   that every run fuzzes from the same starting corpus and the seed only
   changes the path the campaign takes from there. *)
let campaign_config env ~slot ~seed ~length w =
  {
    Campaign.default_config with
    seed_corpus = env.corpora.(slot);
    seed;
    duration = length *. hours w *. 3600.0;
  }

(* PMM training runs in a child process (see [train_into]) so that its
   heap, which the OCaml runtime keeps mapped, stays out of the timed
   phase's peak RSS. The child leaves the weights, the block embeddings
   and the shape parameters in [dir]. *)
let artifact dir name = Filename.concat dir name

let train_into dir ~traced =
  let tracer = Tracer.create ~enabled:traced ~pid:0 ~name:"setup" () in
  let p = Pipeline.train ~config:quick_pipeline ~tracer () in
  Pmm.save p.Pipeline.model (artifact dir "model.txt");
  let buf = Buffer.create (1 lsl 20) in
  Sp_ml.Serialize.tensor_to_buffer buf p.Pipeline.block_embs;
  Sp_obs.Io.write_atomic (artifact dir "embs.txt") (Buffer.contents buf);
  let spans = span_totals (Tracer.to_json_events tracer) in
  let num n = Json.Num (float_of_int n) in
  Sp_obs.Io.write_atomic (artifact dir "meta.json")
    (Json.to_string
       (Json.Obj
          [ ("encoder_dim", num (Snowplow.Encoder.dim p.Pipeline.encoder));
            ("num_syscalls", num (Sp_syzlang.Spec.count (Kernel.spec_db p.Pipeline.kernel)));
            ( "spans",
              Json.Obj
                (List.map
                   (fun name -> (name, Json.Num (spans name)))
                   [ "pipeline.collect_bases"; "pipeline.dataset"; "pipeline.pretrain";
                     "trainer.epoch" ]) )
          ]))

let train_service dir ~traced =
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "--train-into"; dir; "--trace"; (if traced then "1" else "0") |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  (match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "the PMM training process failed");
  let fail what e = failwith (Printf.sprintf "trained %s: %s" what e) in
  let meta =
    match Json.of_string (Sp_obs.Io.read_file (artifact dir "meta.json")) with
    | Ok j -> j
    | Error e -> fail "meta.json" e
  in
  let int name =
    match Json.member name meta with Some (Json.Num n) -> int_of_float n | _ -> fail name "missing"
  in
  let model =
    Pmm.create ~config:quick_pipeline.Pipeline.pmm ~encoder_dim:(int "encoder_dim")
      ~num_syscalls:(int "num_syscalls") ()
  in
  (match Pmm.load model (artifact dir "model.txt") with Ok () -> () | Error e -> fail "model" e);
  let embs =
    match
      Sp_ml.Serialize.tensor_of_lines
        (String.split_on_char '\n' (Sp_obs.Io.read_file (artifact dir "embs.txt")))
    with
    | Ok (t, _) -> t
    | Error e -> fail "embeddings" e
  in
  let spans =
    match Json.member "spans" meta with
    | Some (Json.Obj kvs) ->
      List.filter_map (fun (k, v) -> match v with Json.Num x -> Some (k, x) | _ -> None) kvs
    | _ -> []
  in
  (model, embs, spans)

let setup w ~traced ~dir =
  let once () =
    let t0 = wall () in
    let kernel = Kernel.linux_like ~seed:kernel_seed ~version:kernel_version in
    let t1 = wall () in
    let corpora =
      Array.init (slots w) (fun slot ->
          Gen.corpus (Rng.create (0x5eed + slot)) (Kernel.spec_db kernel) ~size:seed_programs)
    in
    ((kernel, corpora), t1 -. t0, wall () -. t0)
  in
  let runs = List.init setup_reps (fun _ -> once ()) in
  let (kernel, corpora), _, _ = List.hd runs in
  let service, train_s, train_spans =
    match w with
    | Snowplow_1shard ->
      let t0 = wall () in
      let model, embs, spans = train_service dir ~traced in
      (Some (model, embs), wall () -. t0, spans)
    | Syz_1shard | Serve_snap -> (None, 0.0, [])
  in
  {
    kernel;
    corpora;
    service;
    setup_s = median (List.map (fun (_, _, s) -> s) runs) +. train_s;
    kernel_s = median (List.map (fun (_, k, _) -> k) runs);
    train_s;
    train_spans;
  }

(* ------------------------------------------------------------------ *)
(* Recording wrappers (traced campaigns only)                           *)
(* ------------------------------------------------------------------ *)

(* Wraps one strategy instance's [propose]: times every call and keeps
   every [stride]-th call's base program and proposals for replay. A
   recorder belongs to one shard, so only one domain ever touches it. *)
type recorder = {
  stride : int;
  mutable calls : int;
  mutable propose_s : float;
  mutable propose_words : float;
  mutable kept : int;
  mutable bases : Prog.t list;  (* newest first *)
  mutable proposals : Prog.t list;
}

let max_kept = 1500

let recording r (s : Strategy.t) =
  let propose rng ~now ~covered corpus (entry : Corpus.entry) =
    let w0 = Gc.minor_words () in
    let t0 = wall () in
    let ps = s.Strategy.propose rng ~now ~covered corpus entry in
    r.propose_s <- r.propose_s +. (wall () -. t0);
    r.propose_words <- r.propose_words +. (Gc.minor_words () -. w0);
    if r.calls mod r.stride = 0 && r.kept < max_kept then begin
      r.kept <- r.kept + 1;
      r.bases <- entry.Corpus.prog :: r.bases;
      List.iter
        (fun (p : Strategy.proposal) -> r.proposals <- p.Strategy.prog :: r.proposals)
        ps
    end;
    r.calls <- r.calls + 1;
    ps
  in
  { s with Strategy.propose }

(* Wraps the inference endpoint: times every request and keeps the
   (program, targets) of each one the service computed (neither a cache
   hit nor dropped). *)
type query_log = {
  mutable request_us : float list;
  mutable computed : (Prog.t * int list) list;  (* newest first *)
}

let logging_endpoint log inference (ep : Inference.endpoint) =
  let computed () = Metrics.counter (Inference.metrics inference) "inference.computed" in
  let ep_request ~now prog ~targets =
    let c0 = computed () in
    let t0 = wall () in
    let ok = ep.Inference.ep_request ~now prog ~targets in
    log.request_us <- ((wall () -. t0) *. 1e6) :: log.request_us;
    if computed () > c0 then log.computed <- (prog, targets) :: log.computed;
    ok
  in
  { ep with Inference.ep_request }

type tracing = {
  stride : int;
  mutable recorders : recorder list;
  queries : query_log;
  mutable barriers : (string * float) list;  (* tenant, wall time; newest first *)
  mutable started : float;
  trace : Trace.t;
  events : Events.t;
}

let tracing ~stride =
  {
    stride = max 1 stride;
    recorders = [];
    queries = { request_us = []; computed = [] };
    barriers = [];
    started = 0.0;
    trace = Trace.create ~enabled:true ();
    events = Events.create ~capacity:65536 ();
  }

(* ------------------------------------------------------------------ *)
(* One campaign                                                         *)
(* ------------------------------------------------------------------ *)

type outcome = {
  reports : (string * Campaign.report) list;
  executions : int;
  attempted : int;  (* the run, plus inference requests or tenant slices *)
  failed : int;
  problems : string list;
  inference : Inference.t option;
  wall_s : float;
  words : float;
  minor_gcs : int;
  major_gcs : int;
  peak_mb : float;
  written_mb : float;
  digests : string list;
}

let vm_for kernel ~seed s = Vm.create ~seed:(seed + (7919 * s)) kernel

let strategy_for tracing s =
  match tracing with
  | None -> s
  | Some tr ->
    let r =
      { stride = tr.stride; calls = 0; propose_s = 0.0; propose_words = 0.0; kept = 0;
        bases = []; proposals = [] }
    in
    tr.recorders <- r :: tr.recorders;
    recording r s

let run_syz env ~seed ~length ~tracing =
  let db = Kernel.spec_db env.kernel in
  let r =
    Campaign.run_parallel ~jobs:1
      ~vm_for:(vm_for env.kernel ~seed)
      ~strategy_for:(fun _ -> strategy_for tracing (Strategy.syzkaller db))
      (campaign_config env ~slot:0 ~seed ~length Syz_1shard)
  in
  ([ ("main", r) ], None, 1, 0, [])

let run_snowplow env ~seed ~length ~tracing =
  let model, block_embs = Option.get env.service in
  (* What [Pipeline.inference_for] builds for the training kernel
     version. *)
  let inference = Inference.create ~kernel:env.kernel ~block_embs model in
  let strategy =
    match tracing with
    | None -> Hybrid.strategy ~inference env.kernel
    | Some tr ->
      Hybrid.strategy_with
        ~endpoint:(logging_endpoint tr.queries inference (Inference.endpoint inference))
        env.kernel
  in
  let r =
    Campaign.run_parallel ~jobs:1
      ~vm_for:(vm_for env.kernel ~seed)
      ~strategy_for:(fun _ -> strategy_for tracing strategy)
      (campaign_config env ~slot:0 ~seed ~length Snowplow_1shard)
  in
  let requests = Metrics.counter (Inference.metrics inference) "inference.requests" in
  let lost = Inference.dropped inference + Inference.cancelled inference in
  let problems =
    if Inference.served inference > 0 then []
    else [ "snowplow-1shard: no computed prediction was served" ]
  in
  ([ ("main", r) ], Some inference, 1 + requests, lost, problems)

let run_serve env ~seed ~length ~tracing ~dir =
  let db = Kernel.spec_db env.kernel in
  let tenants =
    List.map
      (fun (name, slot, tseed) ->
        let on_barrier =
          Option.map (fun tr ~now:_ -> tr.barriers <- (name, wall ()) :: tr.barriers) tracing
        in
        Scheduler.tenant ?on_barrier
          ~snapshot_dir:(Filename.concat dir name)
          ~name ~jobs:1
          ~vm_for:(vm_for env.kernel ~seed:tseed)
          ~strategy_for:(fun _ -> strategy_for tracing (Strategy.syzkaller db))
          (campaign_config env ~slot ~seed:tseed ~length Serve_snap))
      (tenants seed)
  in
  let trace = Option.map (fun tr -> tr.trace) tracing in
  let events = Option.map (fun tr -> tr.events) tracing in
  Option.iter (fun tr -> tr.started <- wall ()) tracing;
  match Scheduler.run ~workers:2 ?trace ?events tenants with
  | Error e -> ([], None, 1, 1, [ "serve-snap: scheduler refused the roster: " ^ e ])
  | Ok sr ->
    let trs = sr.Scheduler.sr_tenants in
    let failures = List.fold_left (fun n t -> n + List.length t.Scheduler.tr_failures) 0 trs in
    let quarantined = List.filter (fun t -> t.Scheduler.tr_quarantined) trs in
    let problems =
      List.filter_map
        (fun t ->
          if t.Scheduler.tr_quarantined then
            Some (Printf.sprintf "serve-snap: tenant %s quarantined" t.Scheduler.tr_name)
          else if not t.Scheduler.tr_completed then
            Some (Printf.sprintf "serve-snap: tenant %s did not complete" t.Scheduler.tr_name)
          else None)
        trs
    in
    ( List.map (fun t -> (t.Scheduler.tr_name, t.Scheduler.tr_report)) trs,
      None,
      1 + sr.Scheduler.sr_slices,
      failures + List.length quarantined,
      problems )

(* One campaign, with the timed phase scoped by the probes. The
   reports are then persisted (the campaign's output, as `serve
   --summary-json` keeps it), digested and counted towards bytes
   written. *)
let measure_campaign w env ~seed ~length ~tracing ~dir =
  mkdir_p dir;
  reset_peak_rss ();
  let io0 = bytes_written () in
  let g0 = Gc.quick_stat () in
  let t0 = wall () in
  let reports, inference, attempted, failed, problems =
    match w with
    | Syz_1shard -> run_syz env ~seed ~length ~tracing
    | Snowplow_1shard -> run_snowplow env ~seed ~length ~tracing
    | Serve_snap -> run_serve env ~seed ~length ~tracing ~dir
  in
  let wall_s = wall () -. t0 in
  let g1 = Gc.quick_stat () in
  let peak_mb = peak_rss_mb () in
  let digests =
    List.map
      (fun (name, r) ->
        let doc = Json.to_string (Campaign.report_json r) in
        Sp_obs.Io.write_atomic (Filename.concat dir ("report-" ^ name ^ ".json")) doc;
        name ^ ":" ^ Digest.to_hex (Digest.string doc))
      reports
  in
  let written_mb = (bytes_written () -. io0) /. 1e6 in
  let executions = List.fold_left (fun n (_, r) -> n + r.Campaign.executions) 0 reports in
  {
    reports;
    executions;
    attempted;
    failed;
    problems = (if executions > 0 then problems else "no test was executed" :: problems);
    inference;
    wall_s;
    words = g1.Gc.minor_words -. g0.Gc.minor_words;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    peak_mb;
    written_mb;
    digests;
  }

let us_per_exec o = ratio (o.wall_s *. 1e6) (float_of_int o.executions)

let words_per_exec o = ratio o.words (float_of_int o.executions)

let final_edges o = mean (List.map (fun (_, r) -> float_of_int r.Campaign.final_edges) o.reports)

(* Digests of earlier runs of the same executable, workload and campaign
   seed: the first run records them, every later one must reproduce
   them. *)
let executable_digest = lazy (Digest.to_hex (Digest.file Sys.executable_name))

let digests_match ~workload ~seed digests =
  let dir = Filename.concat state_root (Lazy.force executable_digest) in
  let file = Filename.concat dir (Printf.sprintf "%s-%d" workload seed) in
  let line = String.concat " " digests in
  if Sys.file_exists file then String.equal (Sp_obs.Io.read_file file) line
  else begin
    mkdir_p dir;
    Sp_obs.Io.write_atomic file line;
    true
  end

(* ------------------------------------------------------------------ *)
(* Replay: per-layer costs on the traffic a traced campaign recorded    *)
(* ------------------------------------------------------------------ *)

(* Mean wall µs and minor words per call of [f] over [xs]. *)
let per_call f xs =
  match xs with
  | [] -> (0.0, 0.0)
  | _ ->
    let n = float_of_int (List.length xs) in
    let w0 = Gc.minor_words () in
    let t0 = wall () in
    List.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
    ((wall () -. t0) *. 1e6 /. n, (Gc.minor_words () -. w0) /. n)

type fuzz_layers = {
  mutate_us : float;
  mutate_words : float;
  choose_us : float;
  execute_us : float;
  accum_us : float;
  hash_us : float;
}

(* Mutation replays the stock engine over the recorded bases, eight
   mutants each with the strategy's 20% splice donors; execution,
   ingestion and dedup hashing replay the recorded proposals; base
   selection draws from each campaign's final corpus. *)
let replay_fuzz kernel ~seed bases proposals corpora =
  let db = Kernel.spec_db kernel in
  let engine = Engine.create ~selector:(Engine.syzkaller_selector ~splice:true ()) db in
  let rng = Rng.create (seed lxor 0x7e91a7) in
  let donors = Array.of_list bases in
  let mutations =
    List.concat_map
      (fun base ->
        List.init 8 (fun _ ->
            let donor =
              if Array.length donors > 1 && Rng.coin rng 0.2 then
                Some donors.(Rng.int rng (Array.length donors))
              else None
            in
            (donor, base)))
      bases
  in
  let mutate_us, mutate_words =
    per_call (fun (donor, base) -> Engine.mutate engine rng ?donor base) mutations
  in
  let draws = List.init 100_000 (fun _ -> ()) in
  let choose_us =
    mean
      (List.filter_map
         (fun corpus ->
           if Corpus.size corpus = 0 then None
           else Some (fst (per_call (fun () -> Corpus.choose rng corpus) draws)))
         corpora)
  in
  let scratch = Kernel.create_scratch kernel in
  let execute_us, _ = per_call (fun p -> Kernel.execute_into kernel scratch p) proposals in
  let accum =
    Accum.create ~num_blocks:(Kernel.num_blocks kernel)
      ~num_edges:(Sp_cfg.Cfg.num_edges (Kernel.cfg kernel))
  in
  let accum_s =
    List.fold_left
      (fun acc p ->
        Kernel.execute_into kernel scratch p;
        let t0 = wall () in
        ignore
          (Sys.opaque_identity
             (Accum.add_stamped accum ~blocks:(Kernel.scratch_blocks scratch)
                ~edges:(Kernel.scratch_edges scratch)));
        acc +. (wall () -. t0))
      0.0 proposals
  in
  let hash_us, _ = per_call Prog.hash proposals in
  { mutate_us; mutate_words; choose_us; execute_us;
    accum_us = accum_s *. 1e6 /. float_of_int (max 1 (List.length proposals)); hash_us }

type query_cost = {
  reexec_us : float;
  build_us : float;
  build_words : float;
  nodes : float;
  prepare_us : float;
  forward_us : float;
  forward_words : float;
}

(* The service's computed path, step by step: re-execute the base test,
   build the query graph, lower it, run the tape-free forward pass. The
   sample is replayed once untimed first, so every timed step runs warm,
   as it does in a long campaign. Returns the mean of a column. *)
let replay_inference (model, block_embs) kernel queries =
  let timed f =
    let w0 = Gc.minor_words () in
    let t0 = wall () in
    let x = f () in
    (x, (wall () -. t0) *. 1e6, Gc.minor_words () -. w0)
  in
  let one (prog, targets) =
    let result, reexec_us, _ = timed (fun () -> Kernel.execute kernel prog) in
    if result.Kernel.crash <> None then None
    else begin
      let graph, build_us, build_words =
        timed (fun () -> Query_graph.build kernel prog ~result ~targets)
      in
      let prepared, prepare_us, _ = timed (fun () -> Pmm.prepare graph) in
      let (), forward_us, forward_words =
        timed (fun () ->
            Sp_ml.Workspace.scoped (Pmm.workspace model) (fun () ->
                ignore (Sys.opaque_identity (Pmm.infer_logits model ~block_embs prepared))))
      in
      Some
        { reexec_us; build_us; build_words;
          nodes = float_of_int (Array.length graph.Query_graph.nodes);
          prepare_us; forward_us; forward_words }
    end
  in
  List.iter (fun q -> ignore (one q)) queries;
  let rows = List.filter_map one queries in
  fun column -> mean (List.map column rows)

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                    *)
(* ------------------------------------------------------------------ *)

let counter_sum reports name =
  float_of_int
    (List.fold_left (fun n (_, r) -> n + Metrics.counter r.Campaign.metrics name) 0 reports)

let summary_sum reports name =
  List.fold_left
    (fun s (_, r) ->
      match Metrics.summary r.Campaign.metrics name with
      | Some m -> s +. m.Metrics.sum
      | None -> s)
    0.0 reports

let zeros = List.map (fun (name, unit) -> (name, 0.0, unit))

let inference_units =
  [ ("inference.requests", "count"); ("inference.request_us_p50", "us");
    ("inference.request_us_p99", "us"); ("inference.cache_hit_ratio", "ratio");
    ("inference.reexec_us", "us"); ("query_graph.build_us", "us");
    ("query_graph.build_words", "words"); ("query_graph.nodes_mean", "count");
    ("pmm.prepare_us", "us"); ("pmm.forward_us", "us"); ("pmm.forward_words", "words");
    ("inference.other_share", "ratio"); ("hybrid.guided_edges_per_exec", "ratio") ]

let serve_units =
  [ ("snapshot.bytes_first", "bytes"); ("snapshot.bytes_last", "bytes");
    ("snapshot.write_ms_last", "ms"); ("snapshot.read_ms_last", "ms");
    ("snapshot.persist_s", "s"); ("campaign.merge_s", "s");
    ("scheduler.slice_ms_p50", "ms"); ("scheduler.slice_growth", "ratio");
    ("pool.busy_share", "ratio") ]

let inference_metrics env (traced : outcome) tr =
  match (traced.inference, env.service) with
  | Some inference, Some service ->
    let q = tr.queries in
    let computed = List.rev q.computed in
    let cost = replay_inference service env.kernel (spread ~cap:40 computed) in
    let requests =
      float_of_int (Metrics.counter (Inference.metrics inference) "inference.requests")
    in
    let per_query_us =
      cost (fun c -> c.reexec_us +. c.build_us +. c.prepare_us +. c.forward_us)
    in
    let guided_execs, guided_edges =
      List.fold_left
        (fun (e, g) (_, r) ->
          match List.assoc_opt "pmm-arg" r.Campaign.origin_stats with
          | Some (e', g') -> (e + e', g + g')
          | None -> (e, g))
        (0, 0) traced.reports
    in
    [ ("inference.requests", requests, "count");
      ("inference.request_us_p50", quantile 0.5 q.request_us, "us");
      ("inference.request_us_p99", quantile 0.99 q.request_us, "us");
      ( "inference.cache_hit_ratio",
        ratio (float_of_int (Inference.cache_hits inference)) requests,
        "ratio" );
      ("inference.reexec_us", cost (fun c -> c.reexec_us), "us");
      ("query_graph.build_us", cost (fun c -> c.build_us), "us");
      ("query_graph.build_words", cost (fun c -> c.build_words), "words");
      ("query_graph.nodes_mean", cost (fun c -> c.nodes), "count");
      ("pmm.prepare_us", cost (fun c -> c.prepare_us), "us");
      ("pmm.forward_us", cost (fun c -> c.forward_us), "us");
      ("pmm.forward_words", cost (fun c -> c.forward_words), "words");
      (* Request time the replayed steps do not account for: queueing,
         caches, and the replay's own error. *)
      ( "inference.other_share",
        1.0
        -. ratio
             (float_of_int (List.length computed) *. per_query_us)
             (sum q.request_us),
        "ratio" );
      ( "hybrid.guided_edges_per_exec",
        ratio (float_of_int guided_edges) (float_of_int guided_execs),
        "ratio" )
    ]
  | _ -> zeros inference_units

let barrier_times tr name =
  List.rev tr.barriers |> List.filter_map (fun (n, t) -> if n = name then Some t else None)

(* Slice durations per tenant, in order: wall time between the tenant's
   consecutive barrier hooks, the first one measured from the start. *)
let slices tr =
  List.map
    (fun name ->
      let times = barrier_times tr name in
      List.map (fun (a, b) -> b -. a) (zip (tr.started :: times) times))
    tenant_names

(* Last-quarter over first-quarter mean slice time, pooled over tenants. *)
let slice_growth per_tenant =
  let quarter pick =
    List.concat_map
      (fun xs ->
        let n = List.length xs in
        let q = max 1 ((n + 3) / 4) in
        List.filteri (fun i _ -> pick ~i ~n ~q) xs)
      per_tenant
  in
  ratio
    (mean (quarter (fun ~i ~n ~q -> i >= n - q)))
    (mean (quarter (fun ~i ~n:_ ~q -> i < q)))

let serve_metrics ~dir (traced : outcome) tr =
  let snapshots name =
    let d = Filename.concat dir name in
    Sys.readdir d |> Array.to_list
    |> List.filter (String.starts_with ~prefix:"snapshot-")
    |> List.sort compare |> List.map (Filename.concat d)
  in
  let size f = float_of_int (Unix.stat f).Unix.st_size in
  let per_tenant = List.map snapshots tenant_names in
  let last_of fs = List.nth fs (List.length fs - 1) in
  let firsts = List.map (fun fs -> size (List.hd fs)) per_tenant in
  let lasts = List.map (fun fs -> size (last_of fs)) per_tenant in
  let last = last_of (List.hd per_tenant) in
  let t0 = wall () in
  let doc = match Snapshot.read last with Ok d -> d | Error e -> failwith ("snapshot read: " ^ e) in
  let read_ms = (wall () -. t0) *. 1e3 in
  let t1 = wall () in
  ignore (Snapshot.write ~dir:(Filename.concat dir "replay") ~barrier:1 doc);
  let write_ms = (wall () -. t1) *. 1e3 in
  (* Persist time per barrier: from the tenant's barrier hook (run after
     the merge) to its snapshot.write event (logged once the file is
     written). *)
  let events = Events.since tr.events 0 in
  let persist_s =
    sum
      (List.map
         (fun name ->
           let hooks = barrier_times tr name in
           let writes =
             List.filter_map
               (fun (ev : Events.event) ->
                 if ev.Events.ev_kind = "snapshot.write"
                    && List.assoc_opt "label" ev.Events.ev_fields = Some (Json.Str name)
                 then Some ev.Events.ev_wall
                 else None)
               events
           in
           sum (List.map (fun (h, w) -> w -. h) (zip hooks writes)))
         tenant_names)
  in
  let spans =
    span_totals
      (match Json.member "traceEvents" (Trace.export tr.trace) with
      | Some (Json.Arr evs) -> evs
      | _ -> [])
  in
  let per_slice = slices tr in
  ( [ ("snapshot.bytes_first", mean firsts, "bytes");
      ("snapshot.bytes_last", mean lasts, "bytes");
      ("snapshot.write_ms_last", write_ms, "ms");
      ("snapshot.read_ms_last", read_ms, "ms");
      ("snapshot.persist_s", persist_s, "s");
      ("campaign.merge_s", spans "campaign.merge", "s");
      ( "scheduler.slice_ms_p50",
        median (List.map (fun s -> s *. 1e3) (List.concat per_slice)),
        "ms" );
      ("scheduler.slice_growth", slice_growth per_slice, "ratio");
      ("pool.busy_share", ratio (spans "shard.epoch") (2.0 *. traced.wall_s), "ratio")
    ],
    persist_s +. spans "campaign.merge" )

let per_layer w env ~seed ~dir ~(traced : outcome) tr =
  let stage name = Option.value ~default:0.0 (List.assoc_opt name env.train_spans) in
  let reports = traced.reports in
  let recs = tr.recorders in
  let total f = List.fold_left (fun s r -> s +. f r) 0.0 recs in
  let calls = total (fun r -> float_of_int r.calls) in
  let propose_s = total (fun r -> r.propose_s) in
  let fz =
    replay_fuzz env.kernel ~seed
      (List.concat_map (fun r -> List.rev r.bases) recs)
      (List.concat_map (fun r -> List.rev r.proposals) recs)
      (List.map (fun (_, r) -> r.Campaign.corpus) reports)
  in
  let execs = float_of_int traced.executions in
  let proposals = counter_sum reports "campaign.proposals" in
  let duplicates = counter_sum reports "campaign.duplicates" in
  let barrier_wait_s = summary_sum reports "pool.barrier_wait_s" in
  let serve, merge_persist_s =
    match w with
    | Serve_snap -> serve_metrics ~dir traced tr
    | Syz_1shard | Snowplow_1shard -> (zeros serve_units, 0.0)
  in
  let other_share =
    match w with
    | Syz_1shard | Snowplow_1shard ->
      (* The one-shard loop runs on one domain: base selection, propose,
         dedup hashing, execution and ingestion, plus the rest. *)
      let accounted =
        propose_s
        +. summary_sum reports "vm.exec_wall_s"
        +. (counter_sum reports "campaign.iterations" *. fz.choose_us /. 1e6)
        +. (proposals *. fz.hash_us /. 1e6)
        +. ((proposals -. duplicates) *. fz.accum_us /. 1e6)
      in
      1.0 -. ratio accounted traced.wall_s
    | Serve_snap ->
      (* Serve's wall time is the scheduling domain's: waiting for the
         tenants' epochs, merging them and persisting snapshots, plus the
         rest. *)
      1.0 -. ratio (barrier_wait_s +. merge_persist_s) traced.wall_s
  in
  [ ("strategy.propose_us", ratio (propose_s *. 1e6) calls, "us");
    ("strategy.propose_words", ratio (total (fun r -> r.propose_words)) calls, "words");
    ("engine.mutate_us", fz.mutate_us, "us");
    ("engine.mutate_words", fz.mutate_words, "words");
    ("corpus.choose_us", fz.choose_us, "us");
    ("kernel.execute_into_us", fz.execute_us, "us");
    ("accum.add_us", fz.accum_us, "us");
    ("prog.hash_us", fz.hash_us, "us");
    ("campaign.proposals", proposals, "count");
    ("campaign.dup_ratio", ratio duplicates proposals, "ratio");
    ("campaign.admit_ratio", ratio (counter_sum reports "campaign.corpus_adds") execs, "ratio");
    ("campaign.other_share", other_share, "ratio")
  ]
  @ inference_metrics env traced tr
  @ serve
  @ [ ("pool.barrier_wait_s", barrier_wait_s, "s");
      ( "gc.minor_collections_per_kexec",
        ratio (float_of_int traced.minor_gcs) (execs /. 1000.0),
        "1/kexec" );
      ("gc.major_collections", float_of_int traced.major_gcs, "count");
      ("setup.kernel_s", env.kernel_s, "s");
      ("setup.pipeline_train_s", env.train_s, "s");
      ("setup.collect_bases_s", stage "pipeline.collect_bases", "s");
      ("setup.dataset_s", stage "pipeline.dataset", "s");
      ("setup.pretrain_s", stage "pipeline.pretrain", "s");
      ("setup.trainer_s", stage "trainer.epoch", "s")
    ]

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, v, unit) ->
                  (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
                metrics) )
       ])

let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1"

(* Wall seconds one campaign of the workload takes on a 2-core x86 host;
   [--seconds] divided by this fixes how many campaigns a run measures,
   so the inputs of a run depend on its arguments only. *)
let nominal_campaign_s = function
  | Syz_1shard -> 3.3
  | Snowplow_1shard -> 5.0
  | Serve_snap -> 21.0

(* The [k]-th campaign of a run: distinct seeds across runs and campaigns. *)
let campaign_seed ~seed k = (seed * 64) + k

(* The untimed warm-up campaign of an end-to-end run: its index (no timed
   or traced campaign has it) and its length, as a share of the
   workload's. A quarter-length warm-up leaves the next one-shard
   campaign still growing the heap, so those warm up at full length;
   serve keeps a quarter, as a full one would double its run. *)
let warmup_k = 63

let warmup_length = function Syz_1shard | Snowplow_1shard -> 1.0 | Serve_snap -> 0.25

let main ~workload ~w ~seed ~seconds ~traced ~root =
  let env = setup w ~traced ~dir:root in
  log "%s: setup %.2fs (kernel %.3fs, training %.2fs)" workload env.setup_s env.kernel_s
    env.train_s;
  let campaign ?tracing ?(length = 1.0) ?(warmup = false) k =
    let dir = Filename.concat root (Printf.sprintf "campaign-%d" k) in
    let seed = campaign_seed ~seed k in
    let o = measure_campaign w env ~seed ~length ~tracing ~dir in
    log "%s: %s campaign seed %d: %.2fs, %d execs, %.1f us/exec, %.0f words/exec, %s" workload
      (if tracing <> None then "traced" else if warmup then "warm-up" else "plain")
      seed o.wall_s o.executions (us_per_exec o) (words_per_exec o)
      (String.concat " " o.digests);
    (seed, o, dir)
  in
  let outcomes, metrics =
    if not traced then begin
      (* The first campaign in a process also grows the heap, so one runs
         untimed first. Its seed is one no timed or traced campaign uses,
         and it is checked like the others. *)
      let warm_seed, warm, dir = campaign ~length:(warmup_length w) ~warmup:true warmup_k in
      rm_rf dir;
      (* Campaigns with distinct seeds: their sums average out how much
         one seed's path through the kernel costs. *)
      let n = max 1 (min 62 (int_of_float (Float.round (seconds /. nominal_campaign_s w)))) in
      let runs =
        List.init n (fun k ->
            let seed, o, dir = campaign (k + 1) in
            rm_rf dir;
            (seed, o))
      in
      let os = List.map snd runs in
      let total f = sum (List.map f os) in
      let execs = total (fun o -> float_of_int o.executions) in
      let per_campaign f = total f /. float_of_int n in
      let mid f = median (List.map f os) in
      ( (warm_seed, warm) :: runs,
        [ ("setup_s", env.setup_s, "s");
          ("wall_s", per_campaign (fun o -> o.wall_s), "s");
          ("us_per_exec", total (fun o -> o.wall_s) *. 1e6 /. execs, "us");
          ("words_per_exec", total (fun o -> o.words) /. execs, "words");
          ("peak_rss_mb", mid (fun o -> o.peak_mb), "MB");
          ("disk_written_mb", per_campaign (fun o -> o.written_mb), "MB");
          ("final_edges", per_campaign final_edges, "count")
        ] )
    end
    else begin
      (* The first campaign in a process also grows the heap, so the
         traced campaign is compared with a later plain one of the same
         seed: both run on a grown heap. *)
      let seed, warmup, dir = campaign 0 in
      rm_rf dir;
      let iterations = int_of_float (counter_sum warmup.reports "campaign.iterations") in
      let tr = tracing ~stride:(iterations / 1000) in
      let _, traced, dir = campaign ~tracing:tr 0 in
      let layers = per_layer w env ~seed ~dir ~traced tr in
      rm_rf dir;
      let _, plain, dir = campaign 0 in
      rm_rf dir;
      ( [ (seed, warmup); (seed, traced); (seed, plain) ],
        layers @ [ ("trace.overhead_ratio", ratio traced.wall_s plain.wall_s, "ratio") ] )
    end
  in
  (* Correctness: each campaign passes its own checks and reproduces the
     per-tenant report digests every other run of its seed produced. A
     campaign that does not counts as one more failed operation. *)
  let bad (seed, o) =
    let first = List.assoc seed outcomes in
    o.problems <> [] || o.digests <> first.digests
    || not (digests_match ~workload ~seed o.digests)
  in
  let checked = List.map (fun c -> (c, bad c)) outcomes in
  let problems =
    List.concat_map
      (fun ((seed, o), bad) ->
        o.problems
        @ if bad && o.problems = [] then
            [ Printf.sprintf "campaign seed %d: report digests differ between runs" seed ]
          else [])
      checked
  in
  List.iter (fun p -> log "%s: check failed: %s" workload p) problems;
  let os = List.map snd outcomes in
  let attempted = List.fold_left (fun n o -> n + o.attempted) 0 os in
  let failed =
    List.fold_left (fun n o -> n + o.failed) (List.length (List.filter snd checked)) os
  in
  let metrics =
    if traced then metrics
    else
      metrics
      @ [ ("ok_ratio", 1.0 -. ratio (float_of_int failed) (float_of_int attempted), "ratio") ]
  in
  List.iter (fun (name, v, unit) -> Printf.printf "%-34s %16.6g %s\n" name v unit) metrics;
  print_endline (result_line ~correct:(problems = []) ~attempted ~failed metrics)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let train_dir = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S wall seconds to measure for");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--train-into", Arg.Set_string train_dir, "DIR internal: train the PMM into DIR")
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !train_dir <> "" then train_into !train_dir ~traced:(!trace = 1)
  else
    match List.assoc_opt !workload workloads with
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
    | Some _ when !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) ->
      prerr_endline usage;
      exit 2
    | Some w ->
      let root = Filename.concat tmp_root (Printf.sprintf "run-%d" (Unix.getpid ())) in
      mkdir_p root;
      Fun.protect
        ~finally:(fun () ->
          rm_rf root;
          try Unix.rmdir tmp_root with Unix.Unix_error _ -> ())
        (fun () ->
          main ~workload:!workload ~w ~seed:!seed ~seconds:(float_of_int !seconds)
            ~traced:(!trace = 1) ~root)
