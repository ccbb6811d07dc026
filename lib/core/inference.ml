module Kernel = Sp_kernel.Kernel
module Prog = Sp_syzlang.Prog
module Fqueue = Sp_util.Fqueue
module Lru = Sp_util.Lru
module Metrics = Sp_util.Metrics
module Tracer = Sp_obs.Tracer

type pending = {
  ready_at : float;
  requested_at : float;
  prog : Prog.t;
  prediction : Prog.path list;
  from_cache : bool;
  tag : int;  (* tenant id under the scheduler; 0 for solo campaigns *)
  targets : int list;
      (* sorted; recorded only on [?record_targets] requests so the
         degraded funnel can re-issue a cancelled request — [] otherwise,
         and omitted from snapshots when empty, keeping unarmed snapshots
         byte-identical *)
}

(* Cache values carry the program (and target set) they were computed for:
   keys are int hashes, and two distinct queries may collide, so a hit is
   only a hit after a structural check. *)
type cached = {
  src_prog : Prog.t;
  src_targets : int list;  (* sorted; [] for the per-program soft memo *)
  answer : Prog.path list;
}

type t = {
  latency : float;
  capacity_qps : float;
  max_pending : int;
  kernel : Kernel.t;
  block_embs : Sp_ml.Tensor.t;
  model : Pmm.t;
  memo : Pmm.memo;  (* layer-0 rows of [model]'s frozen weights *)
  queue : pending Fqueue.t;  (* oldest first *)
  mutable next_free : float;
  mutable served : int;
  mutable dropped : int;
  mutable cache_hits : int;
  mutable cancelled : int;  (* requests removed by [cancel_overdue] *)
  mutable latency_sum : float;
  cache : (int, cached) Lru.t;
  (* secondary memo per base test: a recent answer for the same base with a
     slightly different target set is close enough while fresh *)
  by_prog : (int, cached) Lru.t;
  (* per-tenant accounting under the scheduler: tag -> counters *)
  tag_stats : (int, tag_stats) Hashtbl.t;
  metrics : Metrics.t;
  tracer : Tracer.t;
}

and tag_stats = {
  mutable ts_requests : int;
  mutable ts_served : int;
  mutable ts_cache_hits : int;
  mutable ts_dropped : int;
}

let create ?(latency = 0.69) ?(capacity_qps = 57.0) ?(max_pending = 16)
    ?(cache_ttl = 1800.0) ?(cache_capacity = 4096) ?metrics
    ?(tracer = Tracer.null) ~kernel ~block_embs model =
  {
    latency;
    capacity_qps;
    max_pending;
    kernel;
    block_embs;
    model;
    memo = Pmm.memo model;
    queue = Fqueue.create ();
    next_free = 0.0;
    served = 0;
    dropped = 0;
    cache_hits = 0;
    cancelled = 0;
    latency_sum = 0.0;
    cache = Lru.create ~ttl:cache_ttl ~capacity:cache_capacity ();
    by_prog = Lru.create ~ttl:240.0 ~capacity:cache_capacity ();
    tag_stats = Hashtbl.create 8;
    metrics = (match metrics with Some m -> m | None -> Metrics.create ());
    tracer;
  }

let stats_for t tag =
  match Hashtbl.find_opt t.tag_stats tag with
  | Some s -> s
  | None ->
    let s = { ts_requests = 0; ts_served = 0; ts_cache_hits = 0; ts_dropped = 0 } in
    Hashtbl.add t.tag_stats tag s;
    s

let predict_now t prog ~targets =
  let result = Kernel.execute t.kernel prog in
  if result.Kernel.crash <> None then []
  else begin
    let graph = Query_graph.build t.kernel prog ~result ~targets in
    Pmm.predict ~memo:t.memo t.model ~block_embs:t.block_embs graph
  end

let targets_key prog targets =
  List.fold_left
    (fun acc b -> (acc * 1000003) lxor b)
    (Prog.hash prog)
    (List.sort compare targets)

let lookup t ~now prog ~sorted_targets key =
  let confirmed ~check_targets = function
    | Some c
      when Prog.equal c.src_prog prog
           && ((not check_targets) || c.src_targets = sorted_targets) ->
      Some c.answer
    | Some _ ->
      (* A different query hashed onto this slot: a miss, not a hit. *)
      Metrics.incr t.metrics "inference.key_collisions";
      None
    | None -> None
  in
  match confirmed ~check_targets:true (Lru.find t.cache ~now key) with
  | Some answer -> Some answer
  | None ->
    confirmed ~check_targets:false (Lru.find t.by_prog ~now (Prog.hash prog))

let request t ?(tag = 0) ?(extra_latency = 0.0) ?(record_targets = false) ~now
    prog ~targets =
  Metrics.incr t.metrics "inference.requests";
  let ts = stats_for t tag in
  ts.ts_requests <- ts.ts_requests + 1;
  let sorted_targets = List.sort compare targets in
  let key = targets_key prog targets in
  let enqueue p ok = Fqueue.push t.queue p; ok in
  let full = Fqueue.length t.queue >= t.max_pending in
  match lookup t ~now prog ~sorted_targets key with
  | Some _ when full ->
    (* The bound applies to every admission: a memoized answer still
       occupies a pending slot until the fuzzer polls it. *)
    t.dropped <- t.dropped + 1;
    ts.ts_dropped <- ts.ts_dropped + 1;
    Metrics.incr t.metrics "inference.dropped";
    false
  | Some cached ->
    (* A recent answer for this base is reused without touching the
       service (the integration layer memoizes per base test). Zero
       service latency — counted as a hit, not as a served request. *)
    t.cache_hits <- t.cache_hits + 1;
    ts.ts_cache_hits <- ts.ts_cache_hits + 1;
    Metrics.incr t.metrics "inference.cache_hits";
    enqueue
      { ready_at = now; requested_at = now; prog; prediction = cached;
        from_cache = true; tag; targets = [] }
      true
  | None ->
    if full then begin
      t.dropped <- t.dropped + 1;
      ts.ts_dropped <- ts.ts_dropped + 1;
      Metrics.incr t.metrics "inference.dropped";
      false
    end
    else begin
      (* The service admits one query per 1/qps; each takes [latency] from
         admission to completion. *)
      let admitted = Float.max now t.next_free in
      t.next_free <- admitted +. (1.0 /. t.capacity_qps);
      (* [extra_latency] models a stalled backend (fault injection): the
         answer is computed but its delivery slides past the caller's
         timeout, so only [cancel_overdue] will ever reclaim the slot. *)
      let ready_at = admitted +. t.latency +. extra_latency in
      let prediction =
        Metrics.time t.metrics "inference.predict_cpu_s" (fun () ->
            predict_now t prog ~targets)
      in
      Metrics.incr t.metrics "inference.computed";
      Lru.put t.cache ~now key
        { src_prog = prog; src_targets = sorted_targets; answer = prediction };
      Lru.put t.by_prog ~now (Prog.hash prog)
        { src_prog = prog; src_targets = []; answer = prediction };
      enqueue
        { ready_at; requested_at = now; prog; prediction; from_cache = false;
          tag; targets = (if record_targets then sorted_targets else []) }
        true
    end

let poll_detailed t ?tag ~now () =
  let wanted p =
    p.ready_at <= now && match tag with None -> true | Some g -> p.tag = g
  in
  let ready = Fqueue.partition wanted t.queue in
  List.map
    (fun p ->
      let latency = if p.from_cache then 0.0 else p.ready_at -. p.requested_at in
      if not p.from_cache then begin
        (* Cache hits are delivered at zero latency; folding them into the
           service mean would deflate it. *)
        t.served <- t.served + 1;
        t.latency_sum <- t.latency_sum +. latency;
        let ts = stats_for t p.tag in
        ts.ts_served <- ts.ts_served + 1;
        Metrics.incr t.metrics "inference.served";
        Metrics.observe t.metrics "inference.latency_s" latency
      end;
      (p.prog, p.prediction, latency))
    ready

let poll t ?tag ~now () =
  List.map (fun (prog, prediction, _) -> (prog, prediction))
    (poll_detailed t ?tag ~now ())

let cancel_overdue t ?tag ~now ~older_than () =
  let overdue p =
    (match tag with None -> true | Some g -> p.tag = g)
    && p.ready_at > now
    && now -. p.requested_at >= older_than
  in
  let removed = Fqueue.partition overdue t.queue in
  List.map
    (fun p ->
      t.cancelled <- t.cancelled + 1;
      Metrics.incr t.metrics "inference.cancelled";
      (p.prog, p.targets))
    removed

let request_batch t ?tag ~now reqs =
  (* Batch flushes come from the barrier (main domain) — the same domain
     that created the service, so the tracer is single-writer. *)
  Tracer.span t.tracer "inference.batch" (fun () ->
      Metrics.incr t.metrics "inference.batches";
      Metrics.observe t.metrics "inference.batch_size"
        (float_of_int (List.length reqs));
      let accepted =
        List.fold_left
          (fun accepted (prog, targets) ->
            if request t ?tag ~now prog ~targets then accepted + 1
            else accepted)
          0 reqs
      in
      Tracer.counter t.tracer "inference.pending"
        (float_of_int (Fqueue.length t.queue));
      accepted)

type endpoint = {
  ep_request : now:float -> Prog.t -> targets:int list -> bool;
  ep_poll : now:float -> (Prog.t * Prog.path list) list;
}

let endpoint t =
  { ep_request = (fun ~now prog ~targets -> request t ~now prog ~targets);
    ep_poll = (fun ~now -> poll t ~now ()) }

let served t = t.served

let cancelled t = t.cancelled

let cache_hits t = t.cache_hits

let dropped t = t.dropped

let pending t = Fqueue.length t.queue

let cache_size t = Lru.length t.cache + Lru.length t.by_prog

let cache_capacity t = Lru.capacity t.cache + Lru.capacity t.by_prog

let metrics t = t.metrics

let mean_latency t =
  if t.served = 0 then 0.0 else t.latency_sum /. float_of_int t.served

let saturation_qps t = t.capacity_qps

let tenant_stats t ~tag =
  match Hashtbl.find_opt t.tag_stats tag with
  | None -> (0, 0, 0, 0)
  | Some s -> (s.ts_requests, s.ts_served, s.ts_cache_hits, s.ts_dropped)

(* ------------------------------------------------------------------ *)
(* Snapshot codec                                                       *)
(* ------------------------------------------------------------------ *)

module Json = Sp_obs.Json

let pending_to_json p =
  Json.Obj
    ([ ("ready_at", Json.Num p.ready_at);
       ("requested_at", Json.Num p.requested_at);
       ("prog", Codec.prog_to_json p.prog);
       ("prediction", Codec.paths_to_json p.prediction);
       ("from_cache", Json.Bool p.from_cache);
       ("tag", Json.Num (float_of_int p.tag))
     ]
    (* Emitted only when recorded, so snapshots of runs that never armed
       the degraded funnel stay byte-identical to the pre-fault format. *)
    @ (if p.targets = [] then []
       else [ ("targets", Codec.int_list_to_json p.targets) ]))

let pending_of_json ~parse j =
  let open Json.Decode in
  {
    ready_at = num_field "ready_at" j;
    requested_at = num_field "requested_at" j;
    prog = Codec.prog_of_json ~parse "pending prog" (field "prog" j);
    prediction = Codec.paths_of_json (field "prediction" j);
    from_cache = bool_field "from_cache" j;
    tag = int_field "tag" j;
    targets =
      (match Json.member "targets" j with
      | None -> []
      | Some tj -> Codec.int_list_of_json "targets" tj);
  }

let cached_to_json c =
  Json.Obj
    [ ("src_prog", Codec.prog_to_json c.src_prog);
      ("src_targets", Codec.int_list_to_json c.src_targets);
      ("answer", Codec.paths_to_json c.answer)
    ]

let cached_of_json ~parse j =
  let open Json.Decode in
  {
    src_prog = Codec.prog_of_json ~parse "cached prog" (field "src_prog" j);
    src_targets = Codec.int_list_of_json "src_targets" (field "src_targets" j);
    answer = Codec.paths_of_json (field "answer" j);
  }

let state_json t =
  let tag_stats =
    Hashtbl.fold (fun tag s acc -> (tag, s) :: acc) t.tag_stats []
    |> List.sort compare
    |> List.map (fun (tag, s) ->
           Json.Obj
             [ ("tag", Json.Num (float_of_int tag));
               ("requests", Json.Num (float_of_int s.ts_requests));
               ("served", Json.Num (float_of_int s.ts_served));
               ("cache_hits", Json.Num (float_of_int s.ts_cache_hits));
               ("dropped", Json.Num (float_of_int s.ts_dropped))
             ])
  in
  Json.Obj
    ([ ("next_free", Json.Num t.next_free);
      ("served", Json.Num (float_of_int t.served));
      ("dropped", Json.Num (float_of_int t.dropped));
      ("cache_hits", Json.Num (float_of_int t.cache_hits));
      ("latency_sum", Json.Num t.latency_sum);
      ("queue", Json.Arr (List.map pending_to_json (Fqueue.to_list t.queue)));
      ( "cache",
        Codec.lru_to_json ~key_to_json:Codec.key_to_json
          ~value_to_json:cached_to_json t.cache );
      ( "by_prog",
        Codec.lru_to_json ~key_to_json:Codec.key_to_json
          ~value_to_json:cached_to_json t.by_prog );
      ("tag_stats", Json.Arr tag_stats)
    ]
    (* Same conditional-emission rule as pending targets. *)
    @ (if t.cancelled = 0 then []
       else [ ("cancelled", Json.Num (float_of_int t.cancelled)) ]))

let restore_state t ~parse j =
  let open Json.Decode in
  t.next_free <- num_field "next_free" j;
  t.served <- int_field "served" j;
  t.dropped <- int_field "dropped" j;
  t.cache_hits <- int_field "cache_hits" j;
  t.cancelled <-
    (match Json.member "cancelled" j with
    | None -> 0
    | Some _ -> int_field "cancelled" j);
  t.latency_sum <- num_field "latency_sum" j;
  Fqueue.clear t.queue;
  List.iter
    (fun pj -> Fqueue.push t.queue (pending_of_json ~parse pj))
    (arr_field "queue" j);
  Codec.lru_restore
    ~key_of_json:(Codec.key_of_json "cache key")
    ~value_of_json:(cached_of_json ~parse) t.cache (field "cache" j);
  Codec.lru_restore
    ~key_of_json:(Codec.key_of_json "by_prog key")
    ~value_of_json:(cached_of_json ~parse) t.by_prog (field "by_prog" j);
  Hashtbl.reset t.tag_stats;
  List.iter
    (fun sj ->
      Hashtbl.replace t.tag_stats (int_field "tag" sj)
        {
          ts_requests = int_field "requests" sj;
          ts_served = int_field "served" sj;
          ts_cache_hits = int_field "cache_hits" sj;
          ts_dropped = int_field "dropped" sj;
        })
    (arr_field "tag_stats" j)
