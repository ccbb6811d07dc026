(** The Program Mutation Model (§3.3).

    A relational graph neural network over the argument-mutation query
    graph: node features combine learned embeddings (syscall variant name,
    argument type kind, argument type name signature, node role) with the
    frozen block-content encoder's output for kernel nodes; message passing
    uses one learned linear map per edge type and direction (weights tied
    across rounds); a binary head scores every argument node MUTATE /
    NOT-MUTATE, trained with weighted binary cross-entropy. *)

type config = {
  hidden : int;  (** GNN width (default 24) *)
  layers : int;  (** message-passing rounds (default 4) *)
  pos_weight : float;  (** BCE weight of MUTATE labels (default 6) *)
  share_relations : bool;
      (** ablation switch: one shared message weight for every edge type
          (an untyped GCN) instead of per-relation weights *)
  seed : int;
}

val default_config : config

type t

val create : ?config:config -> encoder_dim:int -> num_syscalls:int -> unit -> t

val config : t -> config

val workspace : t -> Sp_ml.Workspace.t
(** The model's buffer arena. {!predict_scores}/{!predict} run inside one
    generation of it; the trainer ticks stripe clones' arenas at
    optimizer-step boundaries. *)

val clone_shared : t -> t
(** A stripe worker's view of the model: parameter values are physically
    shared with the original (optimizer steps through either are visible
    to both), gradient slots are private, the workspace is fresh. Used by
    {!Trainer} to build tapes on several domains at once and reduce the
    per-stripe gradients deterministically. *)

val params : t -> Sp_ml.Ad.t list

val num_parameters : t -> int

(** {1 Graph preprocessing} *)

type prepared
(** A query graph lowered to the index arrays the forward pass consumes;
    cache it when the same graph is used across epochs. Lowering builds
    flat arrays without lists or hash tables; the training-time layout
    {!forward_logits} needs is built from the graph on first use. *)

val prepare : Query_graph.t -> prepared

val prepared_paths : prepared -> Sp_syzlang.Prog.path array
(** Argument paths in head order, aligned with logits and labels. *)

(** {1 Forward / training} *)

val forward_logits : t -> block_embs:Sp_ml.Tensor.t -> prepared -> Sp_ml.Ad.t
(** One logit per argument node (mutable and immutable alike), in
    {!prepared_paths} order. [block_embs] is {!Encoder.embed_kernel} output
    for the kernel the graph was built against. *)

val loss :
  t -> block_embs:Sp_ml.Tensor.t -> prepared -> labels:float array -> Sp_ml.Ad.t
(** Weighted BCE over argument nodes; [labels] aligned with
    {!prepared_paths}. *)

(** {1 Tape-free inference} *)

type memo
(** Layer-0 rows memoized per layer-0 key. A node's layer-0 row depends
    only on its key: node kind plus syscall id, argument (kind, type-name
    signature bucket) or block id. Per key the memo holds the input
    features, the self-map row, the query-projection row (argument keys)
    and, per relation the key is a source in, the message row.

    - {b Owner.} An {!Inference} service owns one for its whole life: its
      model's weights and [block_embs] are frozen. Callers passing no
      memo (the trainer's evaluation, benches) get a fresh one per call:
      the model's own memo, cleared on entry, so its storage is reused.
    - {b Laziness.} Rows are computed the first time a query needs them:
      the key rows when the key first occurs, a message row when the key
      is first a source in that relation. Nothing is computed up front.
    - {b Bound.} At most one row set per distinct key: on the default
      [Kernel.linux_like] kernel at most 3 x 14,110 block keys + 48
      syscall keys + 10 x 96 argument keys. A row set is three rows plus
      one per relation used, [hidden] floats each (24 x 8 bytes at the
      default width), and storage grows by doubling. The memo also holds
      the forward pass's per-query buffers (two layer outputs and the
      message rows), sized by the largest query seen rather than pinned
      per distinct size in a workspace.

    A memo is single-domain and only valid for one model and one
    [block_embs] (passing another [block_embs] raises
    [Invalid_argument]). Weights must not change while it is in use. *)

val memo : t -> memo
(** An empty memo for [t]'s current (from now on frozen) weights. *)

val infer_logits :
  ?memo:memo -> t -> block_embs:Sp_ml.Tensor.t -> prepared -> Sp_ml.Tensor.t
(** Tape-free forward pass, used on the inference-service hot path. It
    agrees with {!forward_logits} to within 1e-9 (the two associate some
    sums differently) and is bit-identical whatever [memo] holds. It runs
    through [Tensor]'s fused row kernels, reads layer-0 rows from [memo]
    (a cleared one of the model's own when absent), and computes the last
    layer only for argument rows and the message rows they read.

    Measured on the benchmark's [snowplow-1shard] queries (281 nodes on
    average; 2-core x86 VM, OCaml 5.1.1), without a memo: 2.49 ms and 196
    minor words per call, against 5.10 ms and 825,389 words for the
    per-element loops it replaced. *)

(** {1 Inference} *)

val threshold : t -> float

val set_threshold : t -> float -> unit
(** Decision threshold on the MUTATE probability (calibrated on the
    validation split by the trainer; default 0.5). *)

val predict_scores :
  t ->
  block_embs:Sp_ml.Tensor.t ->
  Query_graph.t ->
  (Sp_syzlang.Prog.path * float) list
(** MUTATE probability per argument node, in {!prepared_paths} order. *)

val predict :
  ?memo:memo ->
  t ->
  block_embs:Sp_ml.Tensor.t ->
  Query_graph.t ->
  Sp_syzlang.Prog.path list
(** Argument paths of mutable arguments whose score clears the threshold;
    when none does, the single best-scoring one (the model must localize
    {e somewhere}). [memo] as in {!infer_logits}. *)

(** {1 Persistence} *)

val save : t -> string -> unit
(** Write the trained weights (and calibrated threshold) to a file — the
    artifact a torchserve-style deployment would load (§4, §6 suggests
    sharing trained weights across institutions). *)

val load : t -> string -> (unit, string) result
(** Load weights saved by {!save} into an architecture-compatible model
    (same config, encoder width and syscall count). *)
