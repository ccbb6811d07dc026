(* Dense row-major float64 matrices on Bigarray.Array1 storage.

   Two properties are load-bearing:

   - Float semantics are frozen: every op performs the same IEEE
     operations in the same order as the original float-array core
     (kept as {!Reference}), including the [av <> 0.0] skip in matmul
     and ascending-index RNG draws in the initializers, so models,
     serialized weights and campaign results are byte-identical across
     the storage swap. test/test_ml_diff pins this.

   - Storage is off the OCaml heap and recyclable: the allocator draws
     from the domain's ambient {!Workspace} when one is active, so a
     steady-state train/inference step reuses warm buffers instead of
     churning the minor heap. Initializers ([glorot]/[randn]) always
     heap-allocate — parameters outlive any workspace generation.

   Hot per-element loops live in this module, never in its callers. Dev
   builds compile with [-opaque], so [get]/[set] called from another
   module are out-of-line calls that box every float they return or
   take; the same loop written here over [unsafe_get]/[unsafe_set]
   allocates nothing. A caller that needs a new loop shape (a gather, a
   scatter, a masked update) gets a fused kernel below, next to
   [matmul_into]. *)

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { rows : int; cols : int; data : buffer }

(* The hot kernels below validate shapes once at entry and then index
   with [unsafe_get]/[unsafe_set]: every index is derived from the
   validated [rows]/[cols], so the per-element bound check would only
   re-prove what the entry check established — and it is what separates
   these loops from the boxed-array core's throughput. *)
module A1 = Bigarray.Array1

let heap_buffer n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

(* Workspace buffers carry stale contents; every caller initializes. *)
let alloc rows cols =
  let n = rows * cols in
  match Workspace.ambient () with
  | Some ws -> { rows; cols; data = Workspace.acquire ws n }
  | None -> { rows; cols; data = heap_buffer n }

let create rows cols =
  let t = alloc rows cols in
  Bigarray.Array1.fill t.data 0.0;
  t

let make rows cols v =
  let t = alloc rows cols in
  Bigarray.Array1.fill t.data v;
  t

let of_array ~rows ~cols data =
  if Array.length data <> rows * cols then
    invalid_arg "Tensor.of_array: size mismatch";
  let t = alloc rows cols in
  for i = 0 to (rows * cols) - 1 do
    t.data.{i} <- data.(i)
  done;
  t

let of_row data = of_array ~rows:1 ~cols:(Array.length data) data

let copy t =
  let r = alloc t.rows t.cols in
  Bigarray.Array1.blit t.data r.data;
  r

let copy_into ~dst src =
  if dst.rows <> src.rows || dst.cols <> src.cols then
    invalid_arg "Tensor.copy_into: shape mismatch";
  Bigarray.Array1.blit src.data dst.data

let get t i j = t.data.{(i * t.cols) + j}

let set t i j v = t.data.{(i * t.cols) + j} <- v

let dims t = (t.rows, t.cols)

let numel t = t.rows * t.cols

let fill t v = Bigarray.Array1.fill t.data v

let to_array t =
  Array.init (numel t) (fun i -> t.data.{i})

let glorot rng rows cols =
  let bound = sqrt (6.0 /. float_of_int (rows + cols)) in
  let t = { rows; cols; data = heap_buffer (rows * cols) } in
  for i = 0 to (rows * cols) - 1 do
    t.data.{i} <- Sp_util.Rng.float rng (2.0 *. bound) -. bound
  done;
  t

let randn rng std rows cols =
  let t = { rows; cols; data = heap_buffer (rows * cols) } in
  for i = 0 to (rows * cols) - 1 do
    t.data.{i} <- std *. Sp_util.Rng.gaussian rng
  done;
  t

let same_shape a b = a.rows = b.rows && a.cols = b.cols

let add_into ~dst src =
  if same_shape dst src then
    for i = 0 to numel dst - 1 do
      A1.unsafe_set dst.data i (A1.unsafe_get dst.data i +. A1.unsafe_get src.data i)
    done
  else if src.rows = 1 && src.cols = dst.cols then
    for i = 0 to dst.rows - 1 do
      let base = i * dst.cols in
      for j = 0 to dst.cols - 1 do
        A1.unsafe_set dst.data (base + j) (A1.unsafe_get dst.data (base + j) +. A1.unsafe_get src.data j)
      done
    done
  else invalid_arg "Tensor.add_into: shape mismatch"

let add a b =
  let r = copy a in
  add_into ~dst:r b;
  r

let sub a b =
  if not (same_shape a b) then invalid_arg "Tensor.sub: shape mismatch";
  let r = alloc a.rows a.cols in
  for i = 0 to numel a - 1 do
    A1.unsafe_set r.data i (A1.unsafe_get a.data i -. A1.unsafe_get b.data i)
  done;
  r

let sub_into ~dst a b =
  if not (same_shape a b && same_shape dst a) then
    invalid_arg "Tensor.sub_into: shape mismatch";
  for i = 0 to numel a - 1 do
    A1.unsafe_set dst.data i (A1.unsafe_get a.data i -. A1.unsafe_get b.data i)
  done

let mul a b =
  if not (same_shape a b) then invalid_arg "Tensor.mul: shape mismatch";
  let r = alloc a.rows a.cols in
  for i = 0 to numel a - 1 do
    A1.unsafe_set r.data i (A1.unsafe_get a.data i *. A1.unsafe_get b.data i)
  done;
  r

let mul_into ~dst a b =
  if not (same_shape a b && same_shape dst a) then
    invalid_arg "Tensor.mul_into: shape mismatch";
  for i = 0 to numel a - 1 do
    A1.unsafe_set dst.data i (A1.unsafe_get a.data i *. A1.unsafe_get b.data i)
  done

let scale s t =
  let r = alloc t.rows t.cols in
  for i = 0 to numel t - 1 do
    A1.unsafe_set r.data i (s *. A1.unsafe_get t.data i)
  done;
  r

let scale_into ~dst s src =
  if not (same_shape dst src) then
    invalid_arg "Tensor.scale_into: shape mismatch";
  for i = 0 to numel src - 1 do
    A1.unsafe_set dst.data i (s *. A1.unsafe_get src.data i)
  done

let axpy ~alpha x y =
  if not (same_shape x y) then invalid_arg "Tensor.axpy: shape mismatch";
  for i = 0 to numel x - 1 do
    A1.unsafe_set y.data i (A1.unsafe_get y.data i +. (alpha *. A1.unsafe_get x.data i))
  done

let colsum_into ~dst src =
  if dst.rows <> 1 || dst.cols <> src.cols then
    invalid_arg "Tensor.colsum_into: shape mismatch";
  for i = 0 to src.rows - 1 do
    let base = i * src.cols in
    for j = 0 to src.cols - 1 do
      A1.unsafe_set dst.data j (A1.unsafe_get dst.data j +. A1.unsafe_get src.data (base + j))
    done
  done

let map f t =
  let r = alloc t.rows t.cols in
  for i = 0 to numel t - 1 do
    A1.unsafe_set r.data i (f (A1.unsafe_get t.data i))
  done;
  r

let map_into ~dst f src =
  if not (same_shape dst src) then
    invalid_arg "Tensor.map_into: shape mismatch";
  for i = 0 to numel src - 1 do
    A1.unsafe_set dst.data i (f (A1.unsafe_get src.data i))
  done

(* [dd] row at [dbase] += ([ad] row at [abase]) * [bd] ([k] x [m]).
   Every output element starts from its current value and adds
   [av * b] for ascending [l], skipping [av = 0.0] — matmul's fixed IEEE
   sequence. Four output columns are carried in registers at a time
   (non-escaping float refs are unboxed), which keeps that sequence per
   element while cutting the loads and stores of a column-inner loop.
   The buffer annotations keep the accesses unboxed. *)
let matmul_row_acc (dd : buffer) dbase (ad : buffer) abase k (bd : buffer) m =
  let j0 = ref 0 in
  while !j0 + 4 <= m do
    let j = !j0 in
    let c0 = ref (A1.unsafe_get dd (dbase + j))
    and c1 = ref (A1.unsafe_get dd (dbase + j + 1))
    and c2 = ref (A1.unsafe_get dd (dbase + j + 2))
    and c3 = ref (A1.unsafe_get dd (dbase + j + 3)) in
    for l = 0 to k - 1 do
      let av = A1.unsafe_get ad (abase + l) in
      if av <> 0.0 then begin
        let b = (l * m) + j in
        c0 := !c0 +. (av *. A1.unsafe_get bd b);
        c1 := !c1 +. (av *. A1.unsafe_get bd (b + 1));
        c2 := !c2 +. (av *. A1.unsafe_get bd (b + 2));
        c3 := !c3 +. (av *. A1.unsafe_get bd (b + 3))
      end
    done;
    A1.unsafe_set dd (dbase + j) !c0;
    A1.unsafe_set dd (dbase + j + 1) !c1;
    A1.unsafe_set dd (dbase + j + 2) !c2;
    A1.unsafe_set dd (dbase + j + 3) !c3;
    j0 := j + 4
  done;
  for j = !j0 to m - 1 do
    let c = ref (A1.unsafe_get dd (dbase + j)) in
    for l = 0 to k - 1 do
      let av = A1.unsafe_get ad (abase + l) in
      if av <> 0.0 then c := !c +. (av *. A1.unsafe_get bd ((l * m) + j))
    done;
    A1.unsafe_set dd (dbase + j) !c
  done

let matmul_into ~dst a b =
  if a.cols <> b.rows || dst.rows <> a.rows || dst.cols <> b.cols then
    invalid_arg "Tensor.matmul_into: shape mismatch";
  let k = a.cols and m = b.cols in
  for i = 0 to a.rows - 1 do
    matmul_row_acc dst.data (i * m) a.data (i * k) k b.data m
  done

let matmul a b =
  let dst = create a.rows b.cols in
  matmul_into ~dst a b;
  dst

(* Row-indexed kernels: the gathers, scatters and per-row products of a
   graph network's message passing. Each validates shapes once and every
   row index it dereferences, then runs its element loops unchecked. Each
   output element sees the same IEEE operations, in the same order, as
   the unfused gather-then-[matmul]/[add_into] sequence it replaces. *)

let check_row name t r = if r < 0 || r >= t.rows then invalid_arg name

(* A zeroed row, then [matmul_row_acc]: one row of a plain product. *)
let matmul_row (dd : buffer) dbase (ad : buffer) abase k (bd : buffer) m =
  for j = 0 to m - 1 do
    A1.unsafe_set dd (dbase + j) 0.0
  done;
  matmul_row_acc dd dbase ad abase k bd m

let matmul_row_into ~dst ~row a ~a_row b =
  if a.cols <> b.rows || dst.cols <> b.cols then
    invalid_arg "Tensor.matmul_row_into: shape mismatch";
  check_row "Tensor.matmul_row_into: row out of range" dst row;
  check_row "Tensor.matmul_row_into: row out of range" a a_row;
  matmul_row dst.data (row * dst.cols) a.data (a_row * a.cols) a.cols b.data b.cols

let check_range name t idx ~off ~len =
  if off < 0 || len < 0 || off + len > Array.length idx || off + len > t.rows then
    invalid_arg name

let matmul_gather_into ~dst a idx ~off ~len b =
  if a.cols <> b.rows || dst.cols <> b.cols then
    invalid_arg "Tensor.matmul_gather_into: shape mismatch";
  check_range "Tensor.matmul_gather_into: index range" dst idx ~off ~len;
  for i = off to off + len - 1 do
    let r = idx.(i) in
    check_row "Tensor.matmul_gather_into: row out of range" a r;
    matmul_row dst.data (i * dst.cols) a.data (r * a.cols) a.cols b.data b.cols
  done

let gather_rows_into ~dst src idx ~off ~len =
  if dst.cols <> src.cols then invalid_arg "Tensor.gather_rows_into: shape mismatch";
  check_range "Tensor.gather_rows_into: index range" dst idx ~off ~len;
  let c = dst.cols in
  for i = off to off + len - 1 do
    let r = idx.(i) in
    check_row "Tensor.gather_rows_into: row out of range" src r;
    for j = 0 to c - 1 do
      A1.unsafe_set dst.data ((i * c) + j) (A1.unsafe_get src.data ((r * c) + j))
    done
  done

let copy_row_into ~dst ~row src ~src_row =
  if dst.cols <> src.cols then invalid_arg "Tensor.copy_row_into: shape mismatch";
  check_row "Tensor.copy_row_into: row out of range" dst row;
  check_row "Tensor.copy_row_into: row out of range" src src_row;
  let c = dst.cols in
  for j = 0 to c - 1 do
    A1.unsafe_set dst.data ((row * c) + j) (A1.unsafe_get src.data ((src_row * c) + j))
  done

let add_row_into ~dst ~row src ~src_row =
  if dst.cols <> src.cols then invalid_arg "Tensor.add_row_into: shape mismatch";
  check_row "Tensor.add_row_into: row out of range" dst row;
  check_row "Tensor.add_row_into: row out of range" src src_row;
  let c = dst.cols and dbase = row * dst.cols and sbase = src_row * src.cols in
  for j = 0 to c - 1 do
    A1.unsafe_set dst.data (dbase + j) (A1.unsafe_get dst.data (dbase + j) +. A1.unsafe_get src.data (sbase + j))
  done

let scatter_add_into ~dst ~rows ~coef src ~src_rows ~off ~len =
  if dst.cols <> src.cols then invalid_arg "Tensor.scatter_add_into: shape mismatch";
  if off < 0 || len < 0
     || off + len > Array.length rows
     || off + len > Array.length coef
     || off + len > Array.length src_rows
  then invalid_arg "Tensor.scatter_add_into: index range";
  let c = dst.cols in
  for e = off to off + len - 1 do
    let d = rows.(e) and s = src_rows.(e) and k = coef.(e) in
    check_row "Tensor.scatter_add_into: row out of range" dst d;
    check_row "Tensor.scatter_add_into: row out of range" src s;
    let dbase = d * c and sbase = s * c in
    for j = 0 to c - 1 do
      A1.unsafe_set dst.data (dbase + j) (A1.unsafe_get dst.data (dbase + j) +. (k *. A1.unsafe_get src.data (sbase + j)))
    done
  done

let relu_inplace t =
  for i = 0 to numel t - 1 do
    if A1.unsafe_get t.data i < 0.0 then A1.unsafe_set t.data i 0.0
  done

let rowdot_into ~dst ~scale a ~a_rows b ~b_rows =
  if dst.cols <> 1 || a.cols <> b.cols then invalid_arg "Tensor.rowdot_into: shape mismatch";
  if dst.rows > Array.length a_rows || dst.rows > Array.length b_rows then
    invalid_arg "Tensor.rowdot_into: index range";
  let d = a.cols in
  (* Hoisted accumulator, as in [matmul_nt_into]. *)
  let acc = ref 0.0 in
  for i = 0 to dst.rows - 1 do
    let ar = a_rows.(i) and br = b_rows.(i) in
    check_row "Tensor.rowdot_into: row out of range" a ar;
    check_row "Tensor.rowdot_into: row out of range" b br;
    acc := 0.0;
    for j = 0 to d - 1 do
      acc := !acc +. (A1.unsafe_get a.data ((ar * d) + j) *. A1.unsafe_get b.data ((br * d) + j))
    done;
    A1.unsafe_set dst.data i (A1.unsafe_get dst.data i +. (scale *. !acc))
  done

let matmul_tn_into ~dst a b =
  (* dst += (a^T b): a is k x n, b is k x m, dst n x m. The l-outer loop
     walks both inputs row-major (cache-friendly) and, like matmul,
     accumulates contributions in ascending-row order — the same order a
     per-sample gradient accumulation would use. *)
  if a.rows <> b.rows || dst.rows <> a.cols || dst.cols <> b.cols then
    invalid_arg "Tensor.matmul_tn_into: shape mismatch";
  let k = a.rows and n = a.cols and m = b.cols in
  let ad = a.data and bd = b.data and dd = dst.data in
  for l = 0 to k - 1 do
    let abase = l * n and bbase = l * m in
    for i = 0 to n - 1 do
      let av = A1.unsafe_get ad (abase + i) in
      if av <> 0.0 then begin
        let dbase = i * m in
        for j = 0 to m - 1 do
          A1.unsafe_set dd (dbase + j) (A1.unsafe_get dd (dbase + j) +. (av *. A1.unsafe_get bd (bbase + j)))
        done
      end
    done
  done

let matmul_tn a b =
  if a.rows <> b.rows then invalid_arg "Tensor.matmul_tn: shape mismatch";
  let dst = create a.cols b.cols in
  matmul_tn_into ~dst a b;
  dst

let matmul_nt_into ~dst a b =
  (* dst <- (a b^T): a is n x k, b is m x k, dst n x m (overwrites). *)
  if a.cols <> b.cols || dst.rows <> a.rows || dst.cols <> b.rows then
    invalid_arg "Tensor.matmul_nt_into: shape mismatch";
  let n = a.rows and k = a.cols and m = b.rows in
  let ad = a.data and bd = b.data and dd = dst.data in
  (* Hoisted accumulator: a [ref] inside the loop nest would allocate a
     boxed cell per output element. *)
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let abase = i * k in
    for j = 0 to m - 1 do
      let bbase = j * k in
      acc := 0.0;
      for l = 0 to k - 1 do
        acc := !acc +. (A1.unsafe_get ad (abase + l) *. A1.unsafe_get bd (bbase + l))
      done;
      A1.unsafe_set dd ((i * m) + j) !acc
    done
  done

let matmul_nt a b =
  if a.cols <> b.cols then invalid_arg "Tensor.matmul_nt: shape mismatch";
  let dst = alloc a.rows b.rows in
  matmul_nt_into ~dst a b;
  dst

let transpose t =
  let r = alloc t.cols t.rows in
  for i = 0 to t.rows - 1 do
    for j = 0 to t.cols - 1 do
      r.data.{(j * t.rows) + i} <- t.data.{(i * t.cols) + j}
    done
  done;
  r

let row t i = { rows = 1; cols = t.cols; data = Bigarray.Array1.sub t.data (i * t.cols) t.cols }

let rows_view t start nrows =
  if start < 0 || nrows < 0 || start + nrows > t.rows then
    invalid_arg "Tensor.rows_view: out of range";
  { rows = nrows;
    cols = t.cols;
    data = Bigarray.Array1.sub t.data (start * t.cols) (nrows * t.cols) }

let sum t =
  let acc = ref 0.0 in
  for i = 0 to numel t - 1 do
    acc := !acc +. t.data.{i}
  done;
  !acc

let frobenius t =
  let acc = ref 0.0 in
  for i = 0 to numel t - 1 do
    acc := !acc +. (t.data.{i} *. t.data.{i})
  done;
  sqrt !acc

let equal a b =
  same_shape a b
  &&
  let rec go i = i >= numel a || (a.data.{i} = b.data.{i} && go (i + 1)) in
  go 0

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  for i = 0 to min (t.rows - 1) 7 do
    Format.fprintf ppf "[";
    for j = 0 to min (t.cols - 1) 11 do
      Format.fprintf ppf "%8.4f " (get t i j)
    done;
    Format.fprintf ppf "%s]@,"
      (if t.cols > 12 then "..." else "")
  done;
  if t.rows > 8 then Format.fprintf ppf "...@,";
  Format.fprintf ppf "(%dx%d)@]" t.rows t.cols
