module Rng = Sp_util.Rng

type t =
  | Vconst of int
  | Vint of int
  | Vflags of int
  | Venum of int
  | Vlen of int
  | Vbuf of { len : int; seed : int }
  | Vstr of string
  | Vptr of t option
  | Vstruct of t list
  | Vres of int

let rec minimal (ty : Ty.t) =
  match ty with
  | Const v -> Vconst v
  | Int { lo; _ } -> Vint lo
  | Flags f -> Vflags (match f.flag_values with [] -> 0 | (_, v) :: _ -> v)
  | Enum e -> Venum (match e.choices with [] -> 0 | (_, v) :: _ -> v)
  | Len _ -> Vlen 0
  | Buffer { min_len; _ } -> Vbuf { len = min_len; seed = 0 }
  | Str names -> Vstr (match names with [] -> "" | s :: _ -> s)
  | Ptr inner -> Vptr (Some (minimal inner))
  | Struct fields -> Vstruct (List.map (fun f -> minimal f.Ty.fty) fields)
  | Resource _ -> Vres (-1)

let rec default rng (ty : Ty.t) =
  match ty with
  | Const v -> Vconst v
  | Int { lo; _ } -> Vint lo
  | Flags f ->
    (* Start from the first named bit: mirrors how seed tests typically use
       the common mode (e.g. O_CREAT) before mutation explores the rest. *)
    Vflags (match f.flag_values with [] -> 0 | (_, v) :: _ -> v)
  | Enum e -> Venum (match e.choices with [] -> 0 | (_, v) :: _ -> v)
  | Len _ -> Vlen 0
  | Buffer { min_len; _ } -> Vbuf { len = min_len; seed = Rng.int rng 1000 }
  | Str names -> Vstr (match names with [] -> "" | s :: _ -> s)
  | Ptr inner -> Vptr (Some (default rng inner))
  | Struct fields -> Vstruct (List.map (fun f -> default rng f.Ty.fty) fields)
  | Resource _ -> Vres (-1)

let rec random rng (ty : Ty.t) =
  match ty with
  | Const v -> Vconst v
  | Int { lo; hi; _ } -> Vint (Rng.int_in rng lo hi)
  | Flags f ->
    let v =
      List.fold_left
        (fun acc (_, bit) -> if Rng.bool rng then acc lor bit else acc)
        0 f.flag_values
    in
    Vflags v
  | Enum e ->
    Venum (match e.choices with [] -> 0 | l -> snd (Rng.choose_list rng l))
  | Len _ -> Vlen 0
  | Buffer { min_len; max_len } ->
    Vbuf { len = Rng.int_in rng min_len max_len; seed = Rng.int rng 1_000_000 }
  | Str names -> (
    match names with [] -> Vstr "" | l -> Vstr (Rng.choose_list rng l))
  | Ptr inner -> if Rng.coin rng 0.1 then Vptr None else Vptr (Some (random rng inner))
  | Struct fields -> Vstruct (List.map (fun f -> random rng f.Ty.fty) fields)
  | Resource _ -> Vres (-1)

let rec conforms (ty : Ty.t) v =
  match (ty, v) with
  | Const c, Vconst c' -> c = c'
  | Int { lo; hi; _ }, Vint n -> n >= lo && n <= hi
  | Flags _, Vflags _ -> true
  | Enum e, Venum n -> List.exists (fun (_, v) -> v = n) e.choices || e.choices = []
  | Len _, Vlen n -> n >= 0
  | Buffer _, Vbuf { len; _ } -> len >= 0
  | Str names, Vstr s -> names = [] || List.mem s names
  | Ptr _, Vptr None -> true
  | Ptr inner, Vptr (Some v) -> conforms inner v
  | Struct fields, Vstruct vs ->
    List.length fields = List.length vs
    && List.for_all2 (fun f v -> conforms f.Ty.fty v) fields vs
  | Resource _, Vres _ -> true
  | ( ( Const _ | Int _ | Flags _ | Enum _ | Len _ | Buffer _ | Str _ | Ptr _
      | Struct _ | Resource _ ),
      _ ) ->
    false

let str_hash s = Hashtbl.hash s land 0xffffff

let scalar = function
  | Vconst n | Vint n | Vflags n | Venum n | Vlen n -> n
  | Vbuf { len; _ } -> len
  | Vstr s -> str_hash s
  | Vptr None -> 0
  | Vptr (Some _) -> 1
  | Vstruct vs -> List.length vs
  | Vres i -> i

(* [content_hash] folds each node as [(acc * 1000003) lxor part] from the
   hash of a one-letter tag. The tag hashes are computed once here, and
   the fold runs without building any list, so a call allocates nothing;
   the values are the ones the list-based definition produced, which
   [Dataset] seeds and the corpus indexes depend on. *)
let k_mul = 1000003

let tag_c = Hashtbl.hash "c"
let tag_i = Hashtbl.hash "i"
let tag_f = Hashtbl.hash "f"
let tag_e = Hashtbl.hash "e"
let tag_l = Hashtbl.hash "l"
let tag_b = Hashtbl.hash "b"
let tag_s = Hashtbl.hash "s"
let tag_p0 = Hashtbl.hash "p0"
let tag_p = Hashtbl.hash "p"
let tag_t = Hashtbl.hash "t"
let tag_r = Hashtbl.hash "r"

let[@inline] step acc part = (acc * k_mul) lxor part

let rec content_hash v =
  match v with
  | Vconst n -> step tag_c n
  | Vint n -> step tag_i n
  | Vflags n -> step tag_f n
  | Venum n -> step tag_e n
  | Vlen n -> step tag_l n
  | Vbuf { len; seed } -> step (step tag_b len) seed
  | Vstr s -> step tag_s (str_hash s)
  | Vptr None -> tag_p0
  | Vptr (Some v) -> step tag_p (content_hash v)
  | Vstruct vs -> fold_hash tag_t vs
  | Vres i -> step tag_r i

and fold_hash acc = function
  | [] -> acc
  | v :: rest -> fold_hash (step acc (content_hash v)) rest

let rec equal a b =
  match (a, b) with
  | Vconst x, Vconst y
  | Vint x, Vint y
  | Vflags x, Vflags y
  | Venum x, Venum y
  | Vlen x, Vlen y
  | Vres x, Vres y ->
    x = y
  | Vbuf a, Vbuf b -> a.len = b.len && a.seed = b.seed
  | Vstr x, Vstr y -> String.equal x y
  | Vptr None, Vptr None -> true
  | Vptr (Some x), Vptr (Some y) -> equal x y
  | Vstruct xs, Vstruct ys ->
    List.length xs = List.length ys && List.for_all2 equal xs ys
  | ( ( Vconst _ | Vint _ | Vflags _ | Venum _ | Vlen _ | Vbuf _ | Vstr _
      | Vptr _ | Vstruct _ | Vres _ ),
      _ ) ->
    false

let rec pp ppf = function
  | Vconst n -> Format.fprintf ppf "const:%d" n
  | Vint n -> Format.fprintf ppf "%d" n
  | Vflags n -> Format.fprintf ppf "0x%x" n
  | Venum n -> Format.fprintf ppf "e:%d" n
  | Vlen n -> Format.fprintf ppf "len:%d" n
  | Vbuf { len; seed } -> Format.fprintf ppf "buf(%d, %d)" len seed
  | Vstr s -> Format.fprintf ppf "%S" s
  | Vptr None -> Format.pp_print_string ppf "nil"
  | Vptr (Some v) -> Format.fprintf ppf "&%a" pp v
  | Vstruct vs ->
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         pp)
      vs
  | Vres i -> if i < 0 then Format.pp_print_string ppf "bogus" else Format.fprintf ppf "r%d" i

let to_string v = Format.asprintf "%a" pp v
