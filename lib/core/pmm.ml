module Rng = Sp_util.Rng
module Token = Sp_kernel.Token
module Ty = Sp_syzlang.Ty
module Prog = Sp_syzlang.Prog
module Ad = Sp_ml.Ad
module Nn = Sp_ml.Nn
module Tensor = Sp_ml.Tensor
module Workspace = Sp_ml.Workspace

type config = {
  hidden : int;
  layers : int;
  pos_weight : float;
  share_relations : bool;
      (* ablation: one message weight for all edge types (untyped GCN) *)
  seed : int;
}

let default_config =
  { hidden = 24; layers = 4; pos_weight = 6.0; share_relations = false; seed = 23 }

let num_node_kinds = 5

let num_relations = 2 * Query_graph.num_edge_kinds (* each kind, both directions *)

(* Layer-0 rows memoized by {!layer0_key}: a node's input features
   [x0], its [self_map] row and, for argument keys, its [wq_t] row, all
   filled when the key is first seen; and its per-relation message rows,
   filled when the key is first a source in that relation. Rows are
   valid for one set of weights and one [block_embs]. Storage is off any
   workspace and doubles as keys arrive, so it is bounded by the number
   of distinct keys. *)
type memo = {
  mutable embs : Tensor.t option;  (* the block_embs the rows were computed from *)
  mutable slot_of_key : int array;  (* -1 when absent *)
  mutable key_of_slot : int array;
  mutable slots : int;
  mutable x0 : Tensor.t;  (* one row per slot *)
  mutable self_rows : Tensor.t;
  mutable q_rows : Tensor.t;
  mutable msg_of : int array;  (* slot * num_relations + r -> row of [msgs], or -1 *)
  mutable msgs : Tensor.t;
  mutable n_msgs : int;
  (* Per-call scratch, grown to the largest query seen: sizes vary per
     query, and a workspace would pin buffers for every distinct size. *)
  mutable node_slot : int array;
  mutable urow : int array;
  mutable via_slot : int array;
  layer_out : Tensor.t array;  (* two, alternating by layer *)
  mutable msg_buf : Tensor.t;
}

type t = {
  cfg : config;
  block_proj : Nn.Linear.t;  (* encoder_dim -> hidden *)
  sys_emb : Nn.Embedding.t;
  kind_emb : Nn.Embedding.t;
  sig_emb : Nn.Embedding.t;
  nodekind_emb : Nn.Embedding.t;
  rel : Nn.Linear.t array;  (* per relation, tied across layers *)
  self_map : Nn.Linear.t;
  head : Nn.Linear.t;
  (* target-conditioned head: a dot-product interaction between argument
     embeddings and the pooled target embedding, so the model can *match*
     an argument's type signature against the signature the desired
     branch tests (a sum of linear messages cannot express equality) *)
  wq_t : Nn.Linear.t;
  wk_t : Nn.Linear.t;
  ws : Workspace.t;  (* arena for inference temporaries; single-domain *)
  scratch : memo;  (* the per-call memo of callers that bring none *)
  mutable thresh : float;
}

let heap_tensor rows cols = Workspace.without (fun () -> Tensor.create rows cols)

let new_memo d =
  let empty () = heap_tensor 0 d in
  { embs = None; slot_of_key = [||]; key_of_slot = [||]; slots = 0;
    x0 = empty (); self_rows = empty (); q_rows = empty ();
    msg_of = [||]; msgs = empty (); n_msgs = 0;
    node_slot = [||]; urow = [||]; via_slot = [||];
    layer_out = [| empty (); empty () |]; msg_buf = empty () }

let kind_index =
  let tbl = Hashtbl.create 16 in
  List.iteri (fun i k -> Hashtbl.add tbl k i) Ty.all_kind_tokens;
  fun k -> match Hashtbl.find tbl k with i -> i | exception Not_found -> 0

let create ?(config = default_config) ~encoder_dim ~num_syscalls () =
  let rng = Rng.create config.seed in
  let d = config.hidden in
  {
    cfg = config;
    block_proj = Nn.Linear.create rng encoder_dim d;
    sys_emb = Nn.Embedding.create rng ~vocab:(max 1 num_syscalls) ~dim:d;
    kind_emb = Nn.Embedding.create rng ~vocab:(List.length Ty.all_kind_tokens) ~dim:d;
    sig_emb = Nn.Embedding.create rng ~vocab:Token.num_opsig_buckets ~dim:d;
    nodekind_emb = Nn.Embedding.create rng ~vocab:num_node_kinds ~dim:d;
    rel =
      (if config.share_relations then begin
         let shared = Nn.Linear.create ~bias:false rng d d in
         Array.make num_relations shared
       end
       else Array.init num_relations (fun _ -> Nn.Linear.create ~bias:false rng d d));
    self_map = Nn.Linear.create rng d d;
    head = Nn.Linear.create rng d 1;
    wq_t = Nn.Linear.create ~bias:false rng d d;
    wk_t = Nn.Linear.create ~bias:false rng d d;
    ws = Workspace.create ();
    scratch = new_memo d;
    thresh = 0.5;
  }

let config t = t.cfg

let workspace t = t.ws

let memo t = new_memo t.cfg.hidden

(* A stripe worker's view of the model: parameter *values* are shared
   with [t] (the tensors are physically the same, so optimizer updates
   through the primary are immediately visible), while gradient slots
   are private to the clone — each training stripe accumulates its own
   gradients, reduced deterministically by the trainer. The workspace is
   fresh (arenas are single-domain). With [share_relations] the single
   underlying relation map is cloned exactly once, mirroring the
   primary's sharing — distinct clones per slot would split its gradient
   across nodes the trainer never visits. *)
let clone_shared t =
  {
    cfg = t.cfg;
    block_proj = Nn.Linear.clone_shared t.block_proj;
    sys_emb = Nn.Embedding.clone_shared t.sys_emb;
    kind_emb = Nn.Embedding.clone_shared t.kind_emb;
    sig_emb = Nn.Embedding.clone_shared t.sig_emb;
    nodekind_emb = Nn.Embedding.clone_shared t.nodekind_emb;
    rel =
      (if t.cfg.share_relations then
         Array.make num_relations (Nn.Linear.clone_shared t.rel.(0))
       else Array.map Nn.Linear.clone_shared t.rel);
    self_map = Nn.Linear.clone_shared t.self_map;
    head = Nn.Linear.clone_shared t.head;
    wq_t = Nn.Linear.clone_shared t.wq_t;
    wk_t = Nn.Linear.clone_shared t.wk_t;
    ws = Workspace.create ();
    scratch = new_memo t.cfg.hidden;
    thresh = t.thresh;
  }

let params t =
  let rels =
    if t.cfg.share_relations then Nn.Linear.params t.rel.(0)
    else List.concat_map Nn.Linear.params (Array.to_list t.rel)
  in
  Nn.Linear.params t.block_proj @ Nn.Embedding.params t.sys_emb
  @ Nn.Embedding.params t.kind_emb @ Nn.Embedding.params t.sig_emb
  @ Nn.Embedding.params t.nodekind_emb @ rels
  @ Nn.Linear.params t.self_map @ Nn.Linear.params t.head
  @ Nn.Linear.params t.wq_t @ Nn.Linear.params t.wk_t

let num_parameters t = Nn.num_parameters (params t)

let threshold t = t.thresh

let set_threshold t th = t.thresh <- th

(* ------------------------------------------------------------------ *)
(* Graph preprocessing                                                  *)
(* ------------------------------------------------------------------ *)

type relation = {
  usrc : int array;  (* unique source node ids *)
  csrc : int array;  (* per-edge index into [usrc] *)
  dst : int array;
  coef : float array;
}

(* The training-time layout: index arrays in graph node order, one
   relation record per relation, exactly the layout the autodiff forward
   (and hence every trained weight) was fixed against. *)
type autodiff_graph = {
  n : int;
  nodekind_idx : int array;
  sys_pos : int array;  (* node index of each syscall node *)
  sys_ids : int array;
  arg_pos : int array;
  arg_kinds : int array;
  arg_sigs : int array;
  block_pos : int array;
  block_ids : int array;
  relations : relation array;
  (* per-call pooling of the covered blocks whose not-taken branch leads to
     a target inside that call's handler: the blocks whose content encodes
     what the desired branch tests *)
  via_src : int array;  (* node index of a target's via block *)
  via_call : int array;  (* the call slot it pools into *)
  via_coef : float array;
  n_calls : int;
  arg_call : int array;  (* per argument node, its call slot *)
}

let node_kind_id (node : Query_graph.node) =
  match node with
  | Query_graph.Syscall _ -> 0
  | Query_graph.Arg _ -> 1
  | Query_graph.Covered_block _ -> 2
  | Query_graph.Alt_block _ -> 3
  | Query_graph.Target_block _ -> 4

(* The inference lowering: flat index arrays, built without lists or
   hash tables, in a row order that puts the argument nodes first (in
   graph order) so the last layer and the head work on a prefix of the
   rows; every other node follows, in graph order. Reordering rows
   changes no float: each row is computed on its own, and each sum into a
   row keeps its order. *)
type prepared = {
  graph : Query_graph.t;
  n : int;
  na : int;  (* argument rows: [0, na) *)
  node_key : int array;  (* per row, its {!layer0_key} *)
  (* Relation r owns edges [edge_off.(r), edge_off.(r + 1)) in reverse
     graph order (the accumulation order the model was trained with),
     stably split so the [edge_last.(r)] edges into argument rows come
     first — the split keeps the order of the edges into each row. Its
     unique sources are [usrc] from [usrc_off.(r)]; the first
     [usrc_last.(r)] of them feed the argument-row edges. A layer's
     message rows line up with [usrc]. *)
  edge_off : int array;
  edge_last : int array;
  edge_dst : int array;
  edge_src : int array;  (* index into [usrc] *)
  edge_coef : float array;  (* 1 / in-degree of the destination *)
  usrc_off : int array;
  usrc_last : int array;
  usrc : int array;
  (* per-call pooling, one entry per sorted (via block, call) pair *)
  via_src : int array;
  via_call : int array;
  via_coef : float array;
  n_calls : int;
  arg_call : int array;  (* per argument row *)
  paths : Prog.path array;
  mutable_arg : bool array;
  mutable autodiff : autodiff_graph option;  (* built on first training use *)
}

(* Everything a node's layer-0 row depends on, as one int: the node kind
   plus its syscall id, argument (kind, sig) bucket, or block id. *)
let layer0_key (node : Query_graph.node) =
  let id =
    match node with
    | Query_graph.Syscall { sys_id; _ } -> sys_id
    | Query_graph.Arg { kind; detail_sig; _ } ->
      (kind_index kind * Token.num_opsig_buckets) + detail_sig
    | Query_graph.Covered_block b | Query_graph.Alt_block b
    | Query_graph.Target_block b ->
      b
  in
  (id * num_node_kinds) + node_kind_id node

(* [args_first] selects the inference row order and edge split; without
   it, rows are graph nodes and no relation is split, which is the
   training-time layout ({!to_autodiff}). *)
let lower ~args_first (g : Query_graph.t) =
  let nodes = g.Query_graph.nodes and edges = g.Query_graph.edges in
  let n = Array.length nodes and ne = Array.length edges in
  let is_arg i = match nodes.(i) with Query_graph.Arg _ -> true | _ -> false in
  let na = ref 0 and n_calls = ref 0 in
  Array.iter
    (function
      | Query_graph.Arg _ -> incr na
      | Query_graph.Syscall _ -> incr n_calls
      | _ -> ())
    nodes;
  let na = !na in
  (* Rows below [split] are argument rows; relations put edges into them
     first. *)
  let split = if args_first then na else 0 in
  let row_of = Array.init n Fun.id in
  if args_first then begin
    let next_arg = ref 0 and next_other = ref na in
    for i = 0 to n - 1 do
      let next = if is_arg i then next_arg else next_other in
      row_of.(i) <- !next;
      incr next
    done
  end;
  let node_key = Array.make n 0 in
  let paths = Array.make na { Prog.call = 0; arg = [] } in
  let arg_call = Array.make na 0 and mutable_arg = Array.make na false in
  let a = ref 0 in
  Array.iteri
    (fun i node ->
      node_key.(row_of.(i)) <- layer0_key node;
      match node with
      | Query_graph.Arg { path; mutable_node; _ } ->
        paths.(!a) <- path;
        arg_call.(!a) <- path.Prog.call;
        mutable_arg.(!a) <- mutable_node;
        incr a
      | _ -> ())
    nodes;
  (* Relations: forward relation r holds the edges of kind r, relation
     r + num_edge_kinds the same edges reversed. *)
  let kinds = Query_graph.num_edge_kinds in
  let edge_off = Array.make (num_relations + 1) 0 in
  let edge_last = Array.make num_relations 0 in
  Array.iter
    (fun (src, dst, kind) ->
      let r = Query_graph.edge_kind_index kind in
      edge_off.(r + 1) <- edge_off.(r + 1) + 1;
      edge_off.(r + kinds + 1) <- edge_off.(r + kinds + 1) + 1;
      if row_of.(dst) < split then edge_last.(r) <- edge_last.(r) + 1;
      if row_of.(src) < split then edge_last.(r + kinds) <- edge_last.(r + kinds) + 1)
    edges;
  for r = 0 to num_relations - 1 do
    edge_off.(r + 1) <- edge_off.(r + 1) + edge_off.(r)
  done;
  let m = 2 * ne in
  let edge_dst = Array.make m 0 and edge_src = Array.make m 0 in
  let into_args = Array.sub edge_off 0 num_relations in
  let into_rest = Array.init num_relations (fun r -> edge_off.(r) + edge_last.(r)) in
  let place r src dst =
    let d = row_of.(dst) in
    let cursor = if d < split then into_args else into_rest in
    let e = cursor.(r) in
    cursor.(r) <- e + 1;
    edge_dst.(e) <- d;
    edge_src.(e) <- row_of.(src)
  in
  for j = ne - 1 downto 0 do
    let src, dst, kind = edges.(j) in
    let r = Query_graph.edge_kind_index kind in
    place r src dst;
    place (r + kinds) dst src
  done;
  (* (via block, call) pairs through each target: via --cf_frontier-->
     target <--handler-- call, sorted and deduplicated, encoded as
     [via * n + call] over graph node indices. [collect] counts, then
     fills, so neither list ever exists. *)
  let is_target i =
    match nodes.(i) with Query_graph.Target_block _ -> true | _ -> false
  in
  let call_of i =
    match nodes.(i) with Query_graph.Syscall { call; _ } -> call | _ -> -1
  in
  let collect each =
    let k = ref 0 in
    each (fun _ -> incr k);
    let a = Array.make !k 0 in
    k := 0;
    each (fun x ->
        a.(!k) <- x;
        incr k);
    a
  in
  let handlers =
    collect (fun emit ->
        Array.iter
          (fun (src, dst, kind) ->
            if kind = Query_graph.Handler && is_target dst && call_of src >= 0 then
              emit ((dst * n) + call_of src))
          edges)
  in
  let pairs =
    collect (fun emit ->
        Array.iter
          (fun (via, tgt, kind) ->
            if kind = Query_graph.Cf_frontier && is_target tgt then
              for i = 0 to Array.length handlers - 1 do
                let h = handlers.(i) in
                if h / n = tgt then emit ((via * n) + (h mod n))
              done)
          edges)
  in
  Array.sort Int.compare pairs;
  let nv = ref 0 in
  Array.iteri
    (fun i key ->
      if i = 0 || key <> pairs.(i - 1) then begin
        pairs.(!nv) <- key;
        incr nv
      end)
    pairs;
  let nv = !nv in
  let via_src = Array.init nv (fun i -> row_of.(pairs.(i) / n)) in
  let via_call = Array.init nv (fun i -> pairs.(i) mod n) in
  let deg = Array.make !n_calls 0 in
  Array.iter (fun c -> deg.(c) <- deg.(c) + 1) via_call;
  (* Coefficients, then source compaction, with [row_of] (no longer
     needed) as zeroed per-row scratch [mark], zeroed again after each
     relation. *)
  let mark = row_of in
  Array.fill mark 0 n 0;
  let edge_coef = Array.make m 0.0 in
  let usrc = Array.make m 0 and usrc_off = Array.make (num_relations + 1) 0 in
  let usrc_last = Array.make num_relations 0 in
  let nu = ref 0 in
  let compact lo hi =
    for e = lo to hi - 1 do
      let s = edge_src.(e) in
      if mark.(s) = 0 then begin
        usrc.(!nu) <- s;
        incr nu;
        mark.(s) <- !nu
      end;
      edge_src.(e) <- mark.(s) - 1
    done
  in
  for r = 0 to num_relations - 1 do
    let lo = edge_off.(r) and hi = edge_off.(r + 1) in
    for e = lo to hi - 1 do
      mark.(edge_dst.(e)) <- mark.(edge_dst.(e)) + 1
    done;
    for e = lo to hi - 1 do
      edge_coef.(e) <- 1.0 /. float_of_int mark.(edge_dst.(e))
    done;
    for e = lo to hi - 1 do
      mark.(edge_dst.(e)) <- 0
    done;
    let base = !nu in
    usrc_off.(r) <- base;
    compact lo (lo + edge_last.(r));
    usrc_last.(r) <- !nu - base;
    compact (lo + edge_last.(r)) hi;
    for u = base to !nu - 1 do
      mark.(usrc.(u)) <- 0
    done
  done;
  usrc_off.(num_relations) <- !nu;
  {
    graph = g;
    n;
    na;
    node_key;
    edge_off;
    edge_last;
    edge_dst;
    edge_src;
    edge_coef;
    usrc_off;
    usrc_last;
    usrc;
    via_src;
    via_call;
    via_coef = Array.map (fun c -> 1.0 /. float_of_int deg.(c)) via_call;
    n_calls = !n_calls;
    arg_call;
    paths;
    mutable_arg;
    autodiff = None;
  }

let prepare g = lower ~args_first:true g

let prepared_paths p = p.paths

(* The training-time layout, sliced out of the graph-order lowering:
   unsplit and in graph order, each relation's edges and first-seen
   source order are the ones the autodiff forward was trained with. *)
let to_autodiff (q : prepared) : autodiff_graph =
  let kind i = q.node_key.(i) mod num_node_kinds
  and id i = q.node_key.(i) / num_node_kinds in
  let rows_where f = Array.of_list (List.filter f (List.init q.n Fun.id)) in
  let sys_pos = rows_where (fun i -> kind i = 0)
  and arg_pos = rows_where (fun i -> kind i = 1)
  and block_pos = rows_where (fun i -> kind i >= 2) in
  let slice a lo hi = Array.sub a lo (hi - lo) in
  {
    n = q.n;
    nodekind_idx = Array.init q.n kind;
    sys_pos;
    sys_ids = Array.map id sys_pos;
    arg_pos;
    arg_kinds = Array.map (fun i -> id i / Token.num_opsig_buckets) arg_pos;
    arg_sigs = Array.map (fun i -> id i mod Token.num_opsig_buckets) arg_pos;
    block_pos;
    block_ids = Array.map id block_pos;
    relations =
      Array.init num_relations (fun r ->
          let lo = q.edge_off.(r) and hi = q.edge_off.(r + 1) in
          let ulo = q.usrc_off.(r) in
          {
            usrc = slice q.usrc ulo q.usrc_off.(r + 1);
            csrc = Array.init (hi - lo) (fun e -> q.edge_src.(lo + e) - ulo);
            dst = slice q.edge_dst lo hi;
            coef = slice q.edge_coef lo hi;
          });
    via_src = q.via_src;
    via_call = q.via_call;
    via_coef = q.via_coef;
    n_calls = q.n_calls;
    arg_call = q.arg_call;
  }

(* Training reaches its layout through this; racing domains would build
   equal values, so the unsynchronized fill is benign. *)
let autodiff_view (p : prepared) =
  match p.autodiff with
  | Some a -> a
  | None ->
    let a = to_autodiff (lower ~args_first:false p.graph) in
    p.autodiff <- Some a;
    a

(* ------------------------------------------------------------------ *)
(* Forward                                                              *)
(* ------------------------------------------------------------------ *)

(* Scatter category rows (one per category element) into an n-row tensor at
   the category's node positions, expressed as a sparse product so autodiff
   handles the backward pass. *)
let scatter ~n ~pos x =
  let k = Array.length pos in
  Ad.spmm ~src:(Array.init k Fun.id) ~dst:pos ~coef:(Array.make k 1.0) ~rows:n x

let node_features t ~block_embs (p : autodiff_graph) =
  let base = Nn.Embedding.lookup t.nodekind_emb p.nodekind_idx in
  let parts = ref base in
  if Array.length p.sys_pos > 0 then
    parts :=
      Ad.add !parts
        (scatter ~n:p.n ~pos:p.sys_pos (Nn.Embedding.lookup t.sys_emb p.sys_ids));
  if Array.length p.arg_pos > 0 then begin
    let arg_feat =
      Ad.add
        (Nn.Embedding.lookup t.kind_emb p.arg_kinds)
        (Nn.Embedding.lookup t.sig_emb p.arg_sigs)
    in
    parts := Ad.add !parts (scatter ~n:p.n ~pos:p.arg_pos arg_feat)
  end;
  if Array.length p.block_pos > 0 then begin
    let rows = Ad.gather_rows (Ad.const block_embs) p.block_ids in
    let projected = Nn.Linear.apply t.block_proj rows in
    parts := Ad.add !parts (scatter ~n:p.n ~pos:p.block_pos projected)
  end;
  !parts

let layer t (p : autodiff_graph) h =
  let acc = ref (Nn.Linear.apply t.self_map h) in
  Array.iteri
    (fun r { usrc; csrc; dst; coef } ->
      if Array.length csrc > 0 then begin
        let msg = Nn.Linear.apply t.rel.(r) (Ad.gather_rows h usrc) in
        acc := Ad.add !acc (Ad.spmm ~src:csrc ~dst ~coef ~rows:p.n msg)
      end)
    p.relations;
  Ad.relu !acc

let forward_nodes t p h0 =
  let h = ref h0 in
  for _ = 1 to t.cfg.layers do
    h := layer t p !h
  done;
  !h

let row_sums x d =
  (* n x d -> n x 1 *)
  Ad.matmul x (Ad.const (Tensor.make d 1 1.0))

let forward_logits t ~block_embs p =
  let p = autodiff_view p in
  let h0 = node_features t ~block_embs p in
  let h = forward_nodes t p h0 in
  let h_args = Ad.gather_rows h p.arg_pos in
  let logits = Nn.Linear.apply t.head h_args in
  (* Per-call target-conditioned interaction on the raw (layer-0)
     features: pool, for each call, the covered blocks whose not-taken
     branch reaches a target inside that call's handler, then dot every
     argument's raw features against its own call's pool. This lets one
     bilinear form express the conjunction "my type signature matches what
     the desired branch tests AND the target is in my call's handler". *)
  if Array.length p.via_src = 0 then logits
  else begin
    let pooled =
      Ad.spmm ~src:p.via_src ~dst:p.via_call ~coef:p.via_coef ~rows:p.n_calls h0
    in
    let q = Nn.Linear.apply t.wq_t (Ad.gather_rows h0 p.arg_pos) in
    let kv = Ad.gather_rows (Nn.Linear.apply t.wk_t pooled) p.arg_call in
    let inter =
      Ad.scale (1.0 /. sqrt (float_of_int t.cfg.hidden))
        (row_sums (Ad.mul q kv) t.cfg.hidden)
    in
    Ad.add logits inter
  end

let loss t ~block_embs p ~labels =
  if Array.length labels <> p.na then
    invalid_arg "Pmm.loss: label length mismatch";
  let logits = forward_logits t ~block_embs p in
  let mask =
    Array.map (fun l -> if l > 0.5 then t.cfg.pos_weight else 1.0) labels
  in
  Ad.bce_with_logits logits ~targets:labels ~mask

(* ------------------------------------------------------------------ *)
(* Tape-free inference                                                  *)
(* ------------------------------------------------------------------ *)

(* The fuzzing loop calls inference tens of thousands of times per
   campaign. This path replays the forward computation on raw tensors
   through [Tensor]'s fused row kernels, with no autodiff bookkeeping,
   and does less of it than the autodiff forward while keeping every
   logit bit-identical to it:
   - layer-0 rows come from a {!memo}, so the first layer's self-map,
     message and [wq_t] products run once per distinct {!layer0_key}
     (186 of a typical query's 250 nodes are argument nodes sharing a
     handful of keys);
   - the last layer is computed only for the argument rows and for the
     message rows those read. *)

let sigmoid x = 1.0 /. (1.0 +. exp (-.x))

(* Capacity doubling. *)
let grow_ints a n fill =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grow_rows (x : Tensor.t) ~used n =
  if n <= x.Tensor.rows then x
  else begin
    let y = heap_tensor (max n (2 * x.Tensor.rows)) x.Tensor.cols in
    Tensor.copy_into ~dst:(Tensor.rows_view y 0 used) (Tensor.rows_view x 0 used);
    y
  end

(* [x] if it has [n] rows, else a fresh buffer with at least [n]. *)
let reserve_rows (x : Tensor.t) n =
  if n <= x.Tensor.rows then x else heap_tensor (max n (2 * x.Tensor.rows)) x.Tensor.cols

(* Forget every row, keeping the storage. *)
let clear (m : memo) =
  for s = 0 to m.slots - 1 do
    m.slot_of_key.(m.key_of_slot.(s)) <- -1;
    Array.fill m.msg_of (s * num_relations) num_relations (-1)
  done;
  m.slots <- 0;
  m.n_msgs <- 0;
  m.embs <- None

(* [dst] row [row] <- [x] row [a_row] through [lin]: product, then bias. *)
let linear_row lin ~dst ~row x ~a_row =
  Tensor.matmul_row_into ~dst ~row x ~a_row (Nn.Linear.weight lin);
  match Nn.Linear.bias lin with
  | Some b -> Tensor.add_row_into ~dst ~row b ~src_row:0
  | None -> ()

(* [dst] (zeroed) <- [x] through [lin]. *)
let linear_into lin ~dst x =
  Tensor.matmul_into ~dst x (Nn.Linear.weight lin);
  match Nn.Linear.bias lin with Some b -> Tensor.add_into ~dst b | None -> ()

let fill_slot t (m : memo) ~block_embs s key =
  let id = key / num_node_kinds and kind = key mod num_node_kinds in
  let table = Nn.Embedding.table in
  (match kind with
  | 0 -> Tensor.copy_row_into ~dst:m.x0 ~row:s (table t.sys_emb) ~src_row:id
  | 1 ->
    Tensor.copy_row_into ~dst:m.x0 ~row:s (table t.kind_emb)
      ~src_row:(id / Token.num_opsig_buckets);
    Tensor.add_row_into ~dst:m.x0 ~row:s (table t.sig_emb)
      ~src_row:(id mod Token.num_opsig_buckets)
  | _ -> linear_row t.block_proj ~dst:m.x0 ~row:s block_embs ~a_row:id);
  (* The autodiff forward sums node-kind row + features; float addition
     commutes exactly, so adding the node-kind row last is the same sum. *)
  Tensor.add_row_into ~dst:m.x0 ~row:s (table t.nodekind_emb) ~src_row:kind;
  linear_row t.self_map ~dst:m.self_rows ~row:s m.x0 ~a_row:s;
  if kind = 1 then linear_row t.wq_t ~dst:m.q_rows ~row:s m.x0 ~a_row:s

(* [m.node_slot.(i)]: the slot of row [i]'s key, filled on first sight. *)
let resolve t (m : memo) ~block_embs (p : prepared) =
  m.node_slot <- grow_ints m.node_slot p.n 0;
  for i = 0 to p.n - 1 do
    let key = p.node_key.(i) in
    if key >= Array.length m.slot_of_key then
      m.slot_of_key <- grow_ints m.slot_of_key (key + 1) (-1);
    if m.slot_of_key.(key) < 0 then begin
      let s = m.slots in
      if s >= m.x0.Tensor.rows then begin
        m.x0 <- grow_rows m.x0 ~used:s (s + 1);
        m.self_rows <- grow_rows m.self_rows ~used:s (s + 1);
        m.q_rows <- grow_rows m.q_rows ~used:s (s + 1)
      end;
      m.key_of_slot <- grow_ints m.key_of_slot (s + 1) 0;
      m.msg_of <- grow_ints m.msg_of ((s + 1) * num_relations) (-1);
      m.slots <- s + 1;
      m.slot_of_key.(key) <- s;
      m.key_of_slot.(s) <- key;
      fill_slot t m ~block_embs s key
    end;
    m.node_slot.(i) <- m.slot_of_key.(key)
  done

(* The memo row holding slot [s]'s relation-[r] message. *)
let msg_row t (m : memo) r s =
  let i = (s * num_relations) + r in
  if m.msg_of.(i) < 0 then begin
    let row = m.n_msgs in
    m.msgs <- grow_rows m.msgs ~used:row (row + 1);
    linear_row t.rel.(r) ~dst:m.msgs ~row m.x0 ~a_row:s;
    m.msg_of.(i) <- row;
    m.n_msgs <- row + 1
  end;
  m.msg_of.(i)

(* Message-passing layer [l] into a zeroed accumulator: [self_rows acc]
   writes the self-map rows, [messages r msg off len] relation [r]'s
   message rows [off, off + len) (aligned with [usrc]); every relation's
   edges then scatter in order, and ReLU. The [last] layer keeps only
   the argument rows, so it reads only each relation's argument-row
   prefix. Accumulators and message rows are views of [m]'s scratch; a
   layer's input is the previous layer's output buffer. *)
let infer_layer (m : memo) (p : prepared) l ~last ~self_rows ~messages =
  let acc = Tensor.rows_view m.layer_out.(l land 1) 0 (if last then p.na else p.n) in
  Tensor.fill acc 0.0;
  self_rows acc;
  let msg = Tensor.rows_view m.msg_buf 0 p.usrc_off.(num_relations) in
  for r = 0 to num_relations - 1 do
    let eoff = p.edge_off.(r) and uoff = p.usrc_off.(r) in
    let ne = if last then p.edge_last.(r) else p.edge_off.(r + 1) - eoff in
    if ne > 0 then begin
      messages r msg uoff
        (if last then p.usrc_last.(r) else p.usrc_off.(r + 1) - uoff);
      Tensor.scatter_add_into ~dst:acc ~rows:p.edge_dst ~coef:p.edge_coef msg
        ~src_rows:p.edge_src ~off:eoff ~len:ne
    end
  done;
  Tensor.relu_inplace acc;
  acc

let infer_logits ?memo t ~block_embs (p : prepared) =
  let m =
    match memo with
    | Some m -> m
    | None ->
      clear t.scratch;
      t.scratch
  in
  (match m.embs with
  | None -> m.embs <- Some block_embs
  | Some e when e == block_embs -> ()
  | Some _ -> invalid_arg "Pmm.infer_logits: memo holds rows of other block embeddings");
  resolve t m ~block_embs p;
  let d = t.cfg.hidden and layers = t.cfg.layers in
  let from_memo rows acc =
    Tensor.gather_rows_into ~dst:acc rows m.node_slot ~off:0 ~len:acc.Tensor.rows
  in
  let h =
    if layers = 0 then begin
      let h0 = Tensor.create p.na d in
      from_memo m.x0 h0;
      h0
    end
    else begin
      m.urow <- grow_ints m.urow p.usrc_off.(num_relations) 0;
      m.msg_buf <- reserve_rows m.msg_buf p.usrc_off.(num_relations);
      Array.iteri (fun i x -> m.layer_out.(i) <- reserve_rows x p.n) m.layer_out;
      let h =
        ref
          (infer_layer m p 1 ~last:(layers = 1) ~self_rows:(from_memo m.self_rows)
             ~messages:(fun r msg off len ->
               for i = off to off + len - 1 do
                 m.urow.(i) <- msg_row t m r m.node_slot.(p.usrc.(i))
               done;
               Tensor.gather_rows_into ~dst:msg m.msgs m.urow ~off ~len))
      in
      for l = 2 to layers do
        let x = !h and last = l = layers in
        h :=
          infer_layer m p l ~last
            ~self_rows:(fun acc ->
              linear_into t.self_map ~dst:acc
                (if last then Tensor.rows_view x 0 p.na else x))
            (* relation maps carry no bias *)
            ~messages:(fun r msg off len ->
              Tensor.matmul_gather_into ~dst:msg x p.usrc ~off ~len
                (Nn.Linear.weight t.rel.(r)))
      done;
      !h
    end
  in
  let logits = Tensor.create p.na 1 in
  linear_into t.head ~dst:logits h;
  (* Target-conditioned interaction on the layer-0 rows: pool each call's
     via blocks, then add every argument's scaled [wq_t] row . the pooled
     [wk_t] row of its own call. *)
  let nv = Array.length p.via_src in
  if nv > 0 then begin
    m.via_slot <- grow_ints m.via_slot nv 0;
    for e = 0 to nv - 1 do
      m.via_slot.(e) <- m.node_slot.(p.via_src.(e))
    done;
    let pooled = Tensor.create p.n_calls d in
    Tensor.scatter_add_into ~dst:pooled ~rows:p.via_call ~coef:p.via_coef m.x0
      ~src_rows:m.via_slot ~off:0 ~len:nv;
    let kv = Tensor.create p.n_calls d in
    linear_into t.wk_t ~dst:kv pooled;
    Tensor.rowdot_into ~dst:logits ~scale:(1.0 /. sqrt (float_of_int d)) m.q_rows
      ~a_rows:m.node_slot kv ~b_rows:p.arg_call
  end;
  logits

let predict_scores t ~block_embs g =
  (* One self-contained workspace generation: every tensor temporary of
     the tape-free forward pass draws from (and is recycled into) the
     model's arena; only paths and float scores escape. *)
  Workspace.scoped t.ws (fun () ->
      let p = prepare g in
      let logits = infer_logits t ~block_embs p in
      List.init p.na (fun i -> (p.paths.(i), sigmoid (Tensor.get logits i 0))))

let predict ?memo t ~block_embs g =
  Workspace.scoped t.ws (fun () ->
      let p = prepare g in
      let logits = infer_logits ?memo t ~block_embs p in
      (* One pass over the mutable arguments, in head order: those whose
         score clears the threshold, and the first best-scoring one. *)
      let picked = ref [] and best = ref (-1) and best_s = ref 0.0 in
      for i = 0 to p.na - 1 do
        if p.mutable_arg.(i) then begin
          let s = sigmoid (Tensor.get logits i 0) in
          if s >= t.thresh then picked := p.paths.(i) :: !picked;
          if !best < 0 || not (!best_s >= s) then begin
            best := i;
            best_s := s
          end
        end
      done;
      match !picked with
      | [] -> if !best < 0 then [] else [ p.paths.(!best) ]
      | picked -> List.rev picked)

(* ------------------------------------------------------------------ *)
(* Persistence                                                          *)
(* ------------------------------------------------------------------ *)

(* The decision threshold travels with the weights as a final 1x1 slot. *)
let with_threshold_slot t =
  params t @ [ Ad.param (Tensor.of_array ~rows:1 ~cols:1 [| t.thresh |]) ]

let save t path =
  Sp_ml.Serialize.params_to_file path (with_threshold_slot t)

let load t path =
  let slot = Ad.param (Tensor.create 1 1) in
  match Sp_ml.Serialize.params_from_file path (params t @ [ slot ]) with
  | Error _ as e -> e
  | Ok () ->
    t.thresh <- Tensor.get (Ad.value slot) 0 0;
    Ok ()
