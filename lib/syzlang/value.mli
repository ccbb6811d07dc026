(** Runtime argument values of a test program.

    Values mirror the type structure of {!Ty.t}. Buffers are abstracted to a
    (length, content-seed) pair: the kernel model never inspects individual
    bytes, only lengths and a content hash, which is exactly the granularity
    the paper's branch predicates need (e.g. the ATA bug of §5.3.2 is gated
    on a data length). *)

type t =
  | Vconst of int
  | Vint of int
  | Vflags of int
  | Venum of int  (** the enum's concrete value, not its index *)
  | Vlen of int
  | Vbuf of { len : int; seed : int }
  | Vstr of string
  | Vptr of t option  (** [None] is NULL *)
  | Vstruct of t list
  | Vres of int  (** index of the producing call in the program, -1 = bogus *)

val minimal : Ty.t -> t
(** A deterministic well-formed value: zeros, first choices, minimum-size
    buffers, NULL-free pointers, bogus resources. Used when a structure
    must be materialized without a random source (e.g. rewriting through a
    NULL pointer). *)

val default : Sp_util.Rng.t -> Ty.t -> t
(** A well-formed, mostly-benign value for the given type: flag fields start
    with a common default bit, ints at the low end of their range, buffers at
    minimum size, resources bogus (the generator wires them afterwards). *)

val random : Sp_util.Rng.t -> Ty.t -> t
(** A uniformly randomized well-formed value (used by instantiators). *)

val conforms : Ty.t -> t -> bool
(** Structural well-formedness of a value against a type. Resource indices
    and [Len] consistency are program-level properties checked by
    {!Prog.validate}. *)

val scalar : t -> int
(** Integer view used by kernel branch predicates: the numeric value for
    int/const/flags/enum/len; buffer length for buffers; a stable hash for
    strings; 0 for NULL pointers and 1 for non-NULL; number of fields for
    structs; the call index for resources. *)

val content_hash : t -> int
(** Deeper hash that also reflects buffer content seeds and nested values;
    used for deduplicating programs and for data-dependent predicates.
    Allocates nothing. *)

val fold_hash : int -> t list -> int
(** [fold_hash init vs] folds [content_hash] of each value into [init]
    as [(acc * 1000003) lxor h] — the fold [content_hash] applies to
    struct fields, and {!Prog.hash} to a call's arguments. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val to_string : t -> string
