(** A set of 126-bit program fingerprints ({!Sp_syzlang.Prog.fingerprint}):
    the shard's executed set and the corpus's dedup index.

    Open addressing over two [int] arrays, one per lane, kept at most half
    full: a member costs two to four words of table and no heap block.
    Membership compares both lanes: two fingerprints that share one lane
    and differ in the other are distinct members. Iteration order depends
    on the table layout, so anything serialized goes through the canonical
    {!to_sorted_hex}. *)

type t

val create : unit -> t

val add : t -> hi:int -> lo:int -> bool
(** Insert; [true] when the fingerprint was not a member before. *)

val mem : t -> hi:int -> lo:int -> bool

val copy : t -> t
(** An independent set with the same members. *)

val clear : t -> unit

val to_hex : hi:int -> lo:int -> string
(** 32 lowercase hex digits: [hi] then [lo], each as 16 digits of its
    63-bit pattern. *)

val of_hex : string -> (int * int) option
(** Inverse of {!to_hex}; [None] for anything {!to_hex} cannot produce. *)

val to_sorted_hex : t -> string list
(** Every member as {!to_hex}, in ascending order: canonical bytes,
    whatever order the members were added in. *)
