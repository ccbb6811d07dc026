(* Differential tests pinning the Bigarray tensor core against the
   frozen float-array core (Sp_ml.Reference). The contract is strong:
   every op performs the same IEEE operations in the same order, so
   results are required to be BIT-identical, not merely close — that is
   what keeps serialized weights and campaign results stable across the
   storage swap. The striped trainer is the one deliberate exception
   (stripes change the float association), pinned separately with a
   tolerance plus an exact repeat-determinism check. *)

module Rng = Sp_util.Rng
module Pool = Sp_util.Pool
module Tensor = Sp_ml.Tensor
module Reference = Sp_ml.Reference
module Dense = Sp_ml.Dense
module Ad = Sp_ml.Ad
module Workspace = Sp_ml.Workspace
module Serialize = Sp_ml.Serialize

let bits = Int64.bits_of_float

(* Same backing floats on both sides. *)
let pair_of_rng rng rows cols =
  let data = Array.init (rows * cols) (fun _ -> Rng.gaussian rng) in
  ( Tensor.of_array ~rows ~cols data,
    Reference.of_array ~rows ~cols (Array.copy data) )

let check_bits name (t : Tensor.t) (r : Reference.t) =
  let rows, cols = Tensor.dims t in
  if (rows, cols) <> Reference.dims r then
    Alcotest.failf "%s: shape mismatch %dx%d vs %dx%d" name rows cols
      (fst (Reference.dims r)) (snd (Reference.dims r));
  let ta = Tensor.to_array t in
  Array.iteri
    (fun i v ->
      if bits v <> bits r.Reference.data.(i) then
        Alcotest.failf "%s: element %d differs: %h vs %h" name i v
          r.Reference.data.(i))
    ta

(* ------------------------------------------------------------------ *)
(* Randomized op-by-op diff: 600 cases, random op / shapes / data.      *)
(* ------------------------------------------------------------------ *)

let ops =
  [| "add"; "sub"; "mul"; "scale"; "relu"; "matmul"; "matmul_tn";
     "matmul_nt"; "transpose"; "sum"; "frobenius"; "row" |]

let prop_ops_bit_identical =
  QCheck.Test.make ~count:600 ~name:"every Tensor op is bit-identical to Reference"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create (seed + 1) in
      let rows = 1 + Rng.int rng 7 and cols = 1 + Rng.int rng 7 in
      let op = ops.(Rng.int rng (Array.length ops)) in
      let t_a, r_a = pair_of_rng rng rows cols in
      (match op with
      | "add" | "sub" | "mul" ->
        let t_b, r_b = pair_of_rng rng rows cols in
        let f_t, f_r =
          match op with
          | "add" -> (Tensor.add, Reference.add)
          | "sub" -> (Tensor.sub, Reference.sub)
          | _ -> (Tensor.mul, Reference.mul)
        in
        check_bits op (f_t t_a t_b) (f_r r_a r_b)
      | "scale" ->
        let s = Rng.gaussian rng in
        check_bits op (Tensor.scale s t_a) (Reference.scale s r_a)
      | "relu" ->
        let f x = Float.max 0.0 x in
        check_bits op (Tensor.map f t_a) (Reference.map f r_a)
      | "matmul" ->
        let k = 1 + Rng.int rng 7 in
        let t_b, r_b = pair_of_rng rng cols k in
        check_bits op (Tensor.matmul t_a t_b) (Reference.matmul r_a r_b)
      | "matmul_tn" ->
        let k = 1 + Rng.int rng 7 in
        let t_b, r_b = pair_of_rng rng rows k in
        check_bits op (Tensor.matmul_tn t_a t_b) (Reference.matmul_tn r_a r_b)
      | "matmul_nt" ->
        let k = 1 + Rng.int rng 7 in
        let t_b, r_b = pair_of_rng rng k cols in
        check_bits op (Tensor.matmul_nt t_a t_b) (Reference.matmul_nt r_a r_b)
      | "transpose" ->
        check_bits op (Tensor.transpose t_a) (Reference.transpose r_a)
      | "sum" ->
        if bits (Tensor.sum t_a) <> bits (Reference.sum r_a) then
          Alcotest.fail "sum differs"
      | "frobenius" ->
        if bits (Tensor.frobenius t_a) <> bits (Reference.frobenius r_a) then
          Alcotest.fail "frobenius differs"
      | "row" ->
        let i = Rng.int rng rows in
        let tr = Tensor.row t_a i and rr = Reference.row r_a i in
        Array.iteri
          (fun j v ->
            if bits (Tensor.get tr 0 j) <> bits v then
              Alcotest.fail "row view differs")
          rr
      | _ -> assert false);
      true)

(* Initializers draw from the RNG in the same (ascending) order. *)
let prop_initializers_bit_identical =
  QCheck.Test.make ~count:50 ~name:"glorot/randn draw identically"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rows = 1 + (seed mod 5) and cols = 1 + (seed mod 7) in
      check_bits "glorot"
        (Tensor.glorot (Rng.create seed) rows cols)
        (Reference.glorot (Rng.create seed) rows cols);
      check_bits "randn"
        (Tensor.randn (Rng.create (seed + 1)) 0.7 rows cols)
        (Reference.randn (Rng.create (seed + 1)) 0.7 rows cols);
      true)

(* ------------------------------------------------------------------ *)
(* Row-indexed kernels against naive loops                              *)
(* ------------------------------------------------------------------ *)

(* Entries that exercise the zero skip and signed zeros next to ordinary
   values. *)
let special rng =
  match Rng.int rng 6 with
  | 0 -> 0.0
  | 1 -> -0.0
  | _ -> Rng.gaussian rng

let special_tensor rng rows cols =
  let data = Array.init (rows * cols) (fun _ -> special rng) in
  (Tensor.of_array ~rows ~cols data, data)

(* Row [r] of a row-major float array. *)
let row_of data cols r = Array.sub data (r * cols) cols

(* The unfused product of one row, on the frozen float-array core. *)
let ref_row_product a_row (b, b_data) =
  let k, m = Tensor.dims b in
  let p =
    Reference.matmul
      (Reference.of_array ~rows:1 ~cols:k (Array.copy a_row))
      (Reference.of_array ~rows:k ~cols:m (Array.copy b_data))
  in
  p.Reference.data

let check_row_bits name (t : Tensor.t) i expected =
  Array.iteri
    (fun j v ->
      let got = Tensor.get t i j in
      if bits got <> bits v then
        Alcotest.failf "%s: row %d col %d: %h, expected %h" name i j got v)
    expected

let check_tensor_bits name (t : Tensor.t) expected =
  let _, cols = Tensor.dims t in
  Array.iteri (fun i _ -> check_row_bits name t i (row_of expected cols i))
    (Array.make (Array.length expected / max 1 cols) ())

let prop_row_kernels_match_naive =
  QCheck.Test.make ~count:400 ~name:"row-indexed kernels equal naive loops"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create (seed + 11) in
      let n = 1 + Rng.int rng 6 and k = 1 + Rng.int rng 7 and m = 1 + Rng.int rng 9 in
      let a, a_data = special_tensor rng n k in
      let b = special_tensor rng k m in
      (* Index arrays may be empty and may repeat rows. *)
      let len = Rng.int rng 6 and off = Rng.int rng 3 in
      let idx = Array.init (off + len) (fun _ -> Rng.int rng n) in
      let rows = off + len in
      let init_dst () = special_tensor rng rows m in
      (* matmul_gather_into: rows [off, off + len) overwritten, the rest kept. *)
      let dst, before = init_dst () in
      Tensor.matmul_gather_into ~dst a idx ~off ~len (fst b);
      for i = 0 to rows - 1 do
        check_row_bits "matmul_gather_into" dst i
          (if i >= off then ref_row_product (row_of a_data k idx.(i)) b
           else row_of before m i)
      done;
      (* matmul_row_into *)
      if rows > 0 then begin
        let dst, _ = init_dst () in
        let r = Rng.int rng rows and ar = Rng.int rng n in
        Tensor.matmul_row_into ~dst ~row:r a ~a_row:ar (fst b);
        check_row_bits "matmul_row_into" dst r (ref_row_product (row_of a_data k ar) b)
      end;
      (* matmul_into accumulates onto the existing contents. *)
      let dst, before = special_tensor rng n m in
      Tensor.matmul_into ~dst a (fst b);
      let r_dst = Reference.of_array ~rows:n ~cols:m (Array.copy before) in
      Reference.matmul_into ~dst:r_dst
        (Reference.of_array ~rows:n ~cols:k (Array.copy a_data))
        (Reference.of_array ~rows:k ~cols:m (Array.copy (snd b)));
      check_tensor_bits "matmul_into" dst r_dst.Reference.data;
      (* gather_rows_into *)
      let dst, before = special_tensor rng rows k in
      Tensor.gather_rows_into ~dst a idx ~off ~len;
      for i = 0 to rows - 1 do
        check_row_bits "gather_rows_into" dst i
          (if i >= off then row_of a_data k idx.(i) else row_of before k i)
      done;
      (* scatter_add_into: repeated destinations accumulate in edge order. *)
      let dst, acc = special_tensor rng n k in
      let ne = Rng.int rng 8 in
      let d_rows = Array.init ne (fun _ -> Rng.int rng n)
      and s_rows = Array.init ne (fun _ -> Rng.int rng n)
      and coef = Array.init ne (fun _ -> special rng) in
      let eoff = if ne = 0 then 0 else Rng.int rng ne in
      let elen = ne - eoff in
      Tensor.scatter_add_into ~dst ~rows:d_rows ~coef a ~src_rows:s_rows ~off:eoff
        ~len:elen;
      for e = eoff to ne - 1 do
        for j = 0 to k - 1 do
          let i = (d_rows.(e) * k) + j in
          acc.(i) <- acc.(i) +. (coef.(e) *. a_data.((s_rows.(e) * k) + j))
        done
      done;
      check_tensor_bits "scatter_add_into" dst acc;
      (* copy_row_into / add_row_into *)
      let dst, acc = special_tensor rng n k in
      let r = Rng.int rng n and sr = Rng.int rng n in
      Tensor.add_row_into ~dst ~row:r a ~src_row:sr;
      for j = 0 to k - 1 do
        acc.((r * k) + j) <- acc.((r * k) + j) +. a_data.((sr * k) + j)
      done;
      check_tensor_bits "add_row_into" dst acc;
      Tensor.copy_row_into ~dst ~row:r a ~src_row:sr;
      Array.blit a_data (sr * k) acc (r * k) k;
      check_tensor_bits "copy_row_into" dst acc;
      (* relu_inplace keeps -0.0 *)
      let t, data = special_tensor rng n k in
      Tensor.relu_inplace t;
      check_tensor_bits "relu_inplace" t
        (Array.map (fun x -> if x < 0.0 then 0.0 else x) data);
      (* rowdot_into: dot summed from 0.0, then scaled and added. *)
      let dst, acc = special_tensor rng rows 1 in
      let a_rows = Array.init rows (fun _ -> Rng.int rng n)
      and b_rows = Array.init rows (fun _ -> Rng.int rng n) in
      let scale = special rng in
      Tensor.rowdot_into ~dst ~scale a ~a_rows a ~b_rows;
      for i = 0 to rows - 1 do
        let dot = ref 0.0 in
        for j = 0 to k - 1 do
          dot := !dot +. (a_data.((a_rows.(i) * k) + j) *. a_data.((b_rows.(i) * k) + j))
        done;
        acc.(i) <- acc.(i) +. (scale *. !dot)
      done;
      check_tensor_bits "rowdot_into" dst acc;
      true)

let test_row_kernel_edges () =
  (* The zero skip: a zero (of either sign) left-hand entry never meets
     its row of [b], so an infinity there cannot turn into a NaN. *)
  let a = Tensor.of_array ~rows:2 ~cols:2 [| -0.0; 2.0; 0.0; -0.0 |] in
  let b = Tensor.of_array ~rows:2 ~cols:2 [| infinity; 1.0; -3.0; 0.5 |] in
  let dst = Tensor.make 2 2 7.0 in
  Tensor.matmul_gather_into ~dst a [| 0; 1 |] ~off:0 ~len:2 b;
  check_row_bits "skip" dst 0 [| -6.0; 1.0 |];
  (* An all-zero row is a fresh +0.0, never -0.0. *)
  check_row_bits "zero row" dst 1 [| 0.0; 0.0 |];
  (* Empty ranges touch nothing. *)
  let before = Tensor.to_array dst in
  Tensor.matmul_gather_into ~dst a [||] ~off:0 ~len:0 b;
  Tensor.gather_rows_into ~dst a [||] ~off:0 ~len:0;
  Tensor.scatter_add_into ~dst ~rows:[||] ~coef:[||] a ~src_rows:[||] ~off:0 ~len:0;
  Tensor.rowdot_into ~dst:(Tensor.create 0 1) ~scale:1.0 a ~a_rows:[||] a ~b_rows:[||];
  Alcotest.(check bool) "empty ranges are no-ops" true (before = Tensor.to_array dst);
  (* Out-of-range rows are rejected, not read. *)
  Alcotest.check_raises "gather row out of range"
    (Invalid_argument "Tensor.gather_rows_into: row out of range") (fun () ->
      Tensor.gather_rows_into ~dst a [| 2 |] ~off:0 ~len:1);
  Alcotest.check_raises "scatter range past the index array"
    (Invalid_argument "Tensor.scatter_add_into: index range") (fun () ->
      Tensor.scatter_add_into ~dst ~rows:[| 0 |] ~coef:[| 1.0 |] a ~src_rows:[| 0 |]
        ~off:0 ~len:2)

(* ------------------------------------------------------------------ *)
(* End-to-end: Dense (batched) == Reference.Mlp (per-sample), exactly.  *)
(* ------------------------------------------------------------------ *)

let prop_train_bit_identical =
  QCheck.Test.make ~count:25 ~name:"Dense train == Reference.Mlp train, bit for bit"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create (seed + 3) in
      let d_in = 1 + Rng.int rng 6
      and hidden = 1 + Rng.int rng 8
      and d_out = 1 + Rng.int rng 4
      and rows = 1 + Rng.int rng 6 in
      let xs = Array.init (rows * d_in) (fun _ -> Rng.gaussian rng) in
      let ts = Array.init (rows * d_out) (fun _ -> Rng.gaussian rng) in
      let x = Tensor.of_array ~rows ~cols:d_in xs
      and target = Tensor.of_array ~rows ~cols:d_out ts
      and x_r = Reference.of_array ~rows ~cols:d_in (Array.copy xs)
      and t_r = Reference.of_array ~rows ~cols:d_out (Array.copy ts) in
      let dense = Dense.create (Rng.create seed) ~d_in ~hidden ~d_out ~lr:1e-3 in
      let mlp = Reference.Mlp.create (Rng.create seed) ~d_in ~hidden ~d_out ~lr:1e-3 in
      let p = Dense.plan dense ~rows in
      for step = 1 to 20 do
        let ld = Dense.train_step dense p ~x ~target in
        let lr_ = Reference.Mlp.train_step mlp ~x:x_r ~target:t_r in
        if bits ld <> bits lr_ then
          Alcotest.failf "loss differs at step %d: %h vs %h" step ld lr_
      done;
      List.iter2 (check_bits "param") (Dense.params dense)
        (Reference.Mlp.params mlp);
      check_bits "predict"
        (Dense.predict_into dense p ~x)
        (Reference.Mlp.predict mlp ~x:x_r);
      true)

(* ------------------------------------------------------------------ *)
(* Striped training: repeat-deterministic exactly; close to jobs=1.     *)
(* ------------------------------------------------------------------ *)

let test_striped_determinism () =
  let d_in = 5 and hidden = 9 and d_out = 3 and rows = 12 in
  let rng = Rng.create 17 in
  let xs = Array.init (rows * d_in) (fun _ -> Rng.gaussian rng) in
  let ts = Array.init (rows * d_out) (fun _ -> Rng.gaussian rng) in
  let x = Tensor.of_array ~rows ~cols:d_in xs
  and target = Tensor.of_array ~rows ~cols:d_out ts in
  let run jobs =
    let m = Dense.create (Rng.create 5) ~d_in ~hidden ~d_out ~lr:1e-3 in
    let losses =
      if jobs = 1 then begin
        let p = Dense.plan m ~rows in
        List.init 30 (fun _ -> Dense.train_step m p ~x ~target)
      end
      else
        Pool.with_pool ~workers:jobs (fun pool ->
            let plans = Dense.stripe_plans m ~rows ~jobs in
            List.init 30 (fun _ -> Dense.train_step_striped m pool plans ~x ~target))
    in
    (losses, List.map Tensor.to_array (Dense.params m))
  in
  let l2, p2 = run 3 in
  let l2', p2' = run 3 in
  Alcotest.(check bool) "striped repeat: losses identical" true (l2 = l2');
  List.iter2
    (fun a b -> Alcotest.(check bool) "striped repeat: params identical" true (a = b))
    p2 p2';
  (* vs jobs=1: different float association, so tolerance, not bits. *)
  let _, p1 = run 1 in
  List.iter2
    (fun a b ->
      Array.iteri
        (fun i v ->
          if Float.abs (v -. b.(i)) > 1e-9 *. (1.0 +. Float.abs v) then
            Alcotest.failf "striped vs sequential diverged: %g vs %g" v b.(i))
        a)
    p2 p1

(* ------------------------------------------------------------------ *)
(* Serialization: format golden + exact round-trip.                     *)
(* ------------------------------------------------------------------ *)

(* The on-disk format must not drift with the storage swap: weights
   persisted by the float-array core still load. This golden was
   produced by the pre-Bigarray serializer. *)
let golden_params () =
  [ Ad.param (Tensor.of_array ~rows:2 ~cols:3
        [| 1.5; -0.25; 3.0; 0.1; -0.0; 1e-9 |]);
    Ad.param (Tensor.of_array ~rows:1 ~cols:2 [| Float.pi; -1e22 |]) ]

let test_serialize_golden () =
  let s = Serialize.params_to_string (golden_params ()) in
  let expected =
    "sp-ml-params v1\n\
     count 2\n\
     tensor 2 3\n\
     0x1.8p+0 -0x1p-2 0x1.8p+1\n\
     0x1.999999999999ap-4 -0x0p+0 0x1.12e0be826d695p-30\n\
     tensor 1 2\n\
     0x1.921fb54442d18p+1 -0x1.0f0cf064dd592p+73\n"
  in
  Alcotest.(check string) "serialized form is stable" expected s

let test_serialize_roundtrip () =
  let ps = golden_params () in
  let s = Serialize.params_to_string ps in
  let fresh =
    List.map (fun p -> Ad.param (Tensor.create
        (fst (Tensor.dims (Ad.value p))) (snd (Tensor.dims (Ad.value p))))) ps
  in
  (match Serialize.load_params s fresh with
  | Ok () -> ()
  | Error e -> Alcotest.failf "load_params: %s" e);
  List.iter2
    (fun a b ->
      let va = Tensor.to_array (Ad.value a) and vb = Tensor.to_array (Ad.value b) in
      Array.iteri
        (fun i v ->
          if bits v <> bits vb.(i) then Alcotest.fail "round-trip not exact")
        va)
    ps fresh

(* ------------------------------------------------------------------ *)
(* Workspace: steady-state reuse, no growth, escape discipline.         *)
(* ------------------------------------------------------------------ *)

let test_workspace_reuse () =
  let ws = Workspace.create () in
  let work () =
    Workspace.with_active ws (fun () ->
        let a = Tensor.create 4 6 in
        let b = Tensor.make 4 6 1.0 in
        let c = Tensor.add a b in
        ignore (Tensor.matmul c (Tensor.create 6 3));
        Workspace.tick ws)
  in
  (* Warm up, then the footprint must stay flat. *)
  for _ = 1 to 3 do work () done;
  let retained = Workspace.retained ws
  and elements = Workspace.retained_elements ws in
  for _ = 1 to 100 do work () done;
  Alcotest.(check int) "buffer count flat" retained (Workspace.retained ws);
  Alcotest.(check int) "element count flat" elements
    (Workspace.retained_elements ws);
  (* Distinct buffers within a generation; reused across generations. *)
  Workspace.tick ws;
  let b1 = Workspace.acquire ws 24 in
  let b2 = Workspace.acquire ws 24 in
  Alcotest.(check bool) "two acquires differ" false (b1 == b2);
  Workspace.tick ws;
  let b1' = Workspace.acquire ws 24 in
  Alcotest.(check bool) "recycled after tick" true (b1 == b1');
  (* Initializers stay off the workspace: parameters must survive ticks. *)
  Workspace.with_active ws (fun () ->
      let p = Tensor.glorot (Rng.create 3) 4 4 in
      let before = Tensor.to_array p in
      Workspace.tick ws;
      let (_ : Tensor.t) = Tensor.create 4 4 in
      Alcotest.(check bool) "glorot unaffected by tick" true
        (before = Tensor.to_array p))

let is_ambient w = match Workspace.ambient () with Some a -> a == w | None -> false

let test_workspace_scoped_nesting () =
  let w1 = Workspace.create () and w2 = Workspace.create () in
  Workspace.with_active w1 (fun () ->
      Alcotest.(check bool) "w1 ambient" true (is_ambient w1);
      Workspace.with_active w2 (fun () ->
          Alcotest.(check bool) "w2 shadows" true (is_ambient w2));
      Alcotest.(check bool) "w1 restored" true (is_ambient w1);
      Workspace.without (fun () ->
          Alcotest.(check bool) "without clears" true (Workspace.ambient () = None)));
  Alcotest.(check bool) "cleared at exit" true (Workspace.ambient () = None);
  (* Restores even when the body raises. *)
  (try Workspace.with_active w1 (fun () -> failwith "boom") with _ -> ());
  Alcotest.(check bool) "restored after raise" true (Workspace.ambient () = None)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "sp_ml differential"
    [ ("ops", qsuite [ prop_ops_bit_identical; prop_initializers_bit_identical ]);
      ("kernels",
        qsuite [ prop_row_kernels_match_naive ]
        @ [ Alcotest.test_case "zero skip, empty ranges, bounds" `Quick
              test_row_kernel_edges ]);
      ("train", qsuite [ prop_train_bit_identical ]);
      ("striped", [ Alcotest.test_case "determinism" `Quick test_striped_determinism ]);
      ("serialize",
        [ Alcotest.test_case "golden" `Quick test_serialize_golden;
          Alcotest.test_case "roundtrip" `Quick test_serialize_roundtrip ]);
      ("workspace",
        [ Alcotest.test_case "reuse" `Quick test_workspace_reuse;
          Alcotest.test_case "nesting" `Quick test_workspace_scoped_nesting ]) ]
