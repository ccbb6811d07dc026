(** Dense row-major float64 matrices — the storage layer of the
    from-scratch ML stack (the paper's PyTorch/fairseq substitute).

    Storage is a C-layout [Bigarray.Array1] (off the OCaml heap), with a
    rows/cols view on top; vectors are [1 x n] rows. Operations either
    allocate a result or, where named [_into], write into a
    caller-provided destination so hot loops stay allocation-free.

    Allocation draws from the domain's ambient {!Workspace} when one is
    active (initializers excepted — parameters must outlive workspace
    generations), so wrapping a train/inference step in
    [Workspace.with_active] makes the whole stack reuse warm buffers.

    Float semantics are frozen against {!Reference}: same IEEE
    operations, same order — swapping the storage changed no result
    byte. *)

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = private { rows : int; cols : int; data : buffer }

val create : int -> int -> t
(** Zero-filled. *)

val make : int -> int -> float -> t

val of_array : rows:int -> cols:int -> float array -> t
(** Copies the array into fresh storage. Raises [Invalid_argument] on a
    size mismatch. *)

val of_row : float array -> t

val to_array : t -> float array
(** Row-major copy of the contents. *)

val copy : t -> t

val copy_into : dst:t -> t -> unit
(** Same shape. *)

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val dims : t -> int * int

val numel : t -> int

val fill : t -> float -> unit

val glorot : Sp_util.Rng.t -> int -> int -> t
(** Glorot/Xavier-uniform initialization. Always heap-allocates (never
    from a workspace): parameters outlive generations. *)

val randn : Sp_util.Rng.t -> float -> int -> int -> t
(** Gaussian init with the given standard deviation; heap-allocates like
    {!glorot}. *)

val add : t -> t -> t
(** Same shape, or [b] a [1 x cols] row broadcast over [a]'s rows. *)

val add_into : dst:t -> t -> unit
(** [dst += src], same-shape or row-broadcast. *)

val sub : t -> t -> t

val sub_into : dst:t -> t -> t -> unit
(** [dst <- a - b] element-wise ([dst] may alias [a] or [b]). *)

val mul : t -> t -> t
(** Element-wise. *)

val mul_into : dst:t -> t -> t -> unit
(** [dst <- a * b] element-wise ([dst] may alias [a] or [b]). *)

val scale : float -> t -> t

val scale_into : dst:t -> float -> t -> unit
(** [dst <- s * src] ([dst] may alias [src]). *)

val axpy : alpha:float -> t -> t -> unit
(** [axpy ~alpha x y]: [y += alpha * x], same shape. *)

val colsum_into : dst:t -> t -> unit
(** [dst += column sums of src] ([dst] is [1 x cols]), accumulated in
    ascending-row order. *)

val map : (float -> float) -> t -> t

val map_into : dst:t -> (float -> float) -> t -> unit
(** [dst <- f src] element-wise ([dst] may alias [src]). *)

val matmul : t -> t -> t

val matmul_into : dst:t -> t -> t -> unit
(** [dst += a*b]; [dst] must be pre-sized (and zeroed for a plain
    product). *)

(** {1 Row-indexed kernels}

    The gathers, scatters and per-row products of graph message passing,
    fused so that callers outside this module never loop over elements
    (see the note at the top of [tensor.ml]). Every row index is
    validated ([Invalid_argument] when out of range). Each output element
    sees the same IEEE operations, in the same order, as the unfused
    gather / {!matmul} / {!add_into} sequence it replaces — including
    {!matmul}'s skip of zero left-hand entries. *)

val matmul_row_into : dst:t -> row:int -> t -> a_row:int -> t -> unit
(** [matmul_row_into ~dst ~row a ~a_row b]: [dst] row [row] <- ([a] row
    [a_row]) * [b] (overwrites that row). *)

val matmul_gather_into :
  dst:t -> t -> int array -> off:int -> len:int -> t -> unit
(** [matmul_gather_into ~dst a idx ~off ~len b]: for [i] from [off] to
    [off + len - 1], [dst] row [i] <- ([a] row [idx.(i)]) * [b]
    (overwrites). *)

val gather_rows_into : dst:t -> t -> int array -> off:int -> len:int -> unit
(** [gather_rows_into ~dst src idx ~off ~len]: for [i] from [off] to
    [off + len - 1], [dst] row [i] <- [src] row [idx.(i)]. *)

val copy_row_into : dst:t -> row:int -> t -> src_row:int -> unit
(** [dst] row [row] <- [src] row [src_row]. *)

val add_row_into : dst:t -> row:int -> t -> src_row:int -> unit
(** [dst] row [row] += [src] row [src_row]. *)

val scatter_add_into :
  dst:t ->
  rows:int array ->
  coef:float array ->
  t ->
  src_rows:int array ->
  off:int ->
  len:int ->
  unit
(** [scatter_add_into ~dst ~rows ~coef src ~src_rows ~off ~len]: for [e]
    from [off] to [off + len - 1] in ascending order, [dst] row
    [rows.(e)] += [coef.(e)] * ([src] row [src_rows.(e)]). Repeated
    destination rows accumulate in that order. *)

val relu_inplace : t -> unit
(** Every entry [< 0.0] becomes [0.0] ([-0.0] and NaN are kept). *)

val rowdot_into :
  dst:t -> scale:float -> t -> a_rows:int array -> t -> b_rows:int array -> unit
(** [dst] is [n x 1]; for every [i < n], [dst.(i)] += [scale] * (the dot
    product of [a] row [a_rows.(i)] and [b] row [b_rows.(i)], summed from
    [0.0] in ascending column order). *)

val matmul_tn : t -> t -> t
(** [transpose a * b] without materializing the transpose. *)

val matmul_tn_into : dst:t -> t -> t -> unit
(** [dst += transpose a * b], accumulated in ascending-row order of [a]
    — the gradient-accumulation order of a per-sample loop. *)

val matmul_nt : t -> t -> t
(** [a * transpose b]. *)

val matmul_nt_into : dst:t -> t -> t -> unit
(** [dst <- a * transpose b] (overwrites). *)

val transpose : t -> t

val row : t -> int -> t
(** Zero-copy [1 x cols] view of one row — writes through to the parent. *)

val rows_view : t -> int -> int -> t
(** [rows_view t start n]: zero-copy [n x cols] view of rows
    [start..start+n-1]. *)

val sum : t -> float

val frobenius : t -> float
(** L2 norm of all entries. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
