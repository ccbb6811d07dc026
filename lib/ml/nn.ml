module Linear = struct
  (* [b_value] caches [Option.map Ad.value b] (parameter values are
     fixed tensors), so {!bias} allocates nothing on inference paths. *)
  type t = { w : Ad.t; b : Ad.t option; b_value : Tensor.t option }

  let make w b = { w; b; b_value = Option.map Ad.value b }

  let create ?(bias = true) rng d_in d_out =
    make
      (Ad.param (Tensor.glorot rng d_in d_out))
      (if bias then Some (Ad.param (Tensor.create 1 d_out)) else None)

  let apply t x =
    let y = Ad.matmul x t.w in
    match t.b with Some b -> Ad.add y b | None -> y

  let params t = t.w :: (match t.b with Some b -> [ b ] | None -> [])

  let weight t = Ad.value t.w

  let bias t = t.b_value

  (* Fresh parameter leaves over the SAME value tensors: a stripe worker
     clone accumulates private gradients while reading (and seeing
     updates to) the primary's weights. *)
  let clone_shared t =
    make (Ad.param (Ad.value t.w)) (Option.map (fun b -> Ad.param (Ad.value b)) t.b)
end

module Embedding = struct
  type t = { table : Ad.t; dim : int }

  let create rng ~vocab ~dim = { table = Ad.param (Tensor.randn rng 0.1 vocab dim); dim }

  let lookup t idx = Ad.gather_rows t.table idx

  let params t = [ t.table ]

  let dim t = t.dim

  let table t = Ad.value t.table

  let clone_shared t = { table = Ad.param (Ad.value t.table); dim = t.dim }
end

let zero_grads params = List.iter Ad.zero_grad params

let num_parameters params =
  List.fold_left (fun acc p -> acc + Tensor.numel (Ad.value p)) 0 params
