(** JSON codecs shared by the snowplow-layer snapshot state
    ({!Inference.state_json}, {!Funnel.state_json},
    {!Hybrid.predictions_json}). Programs travel as canonical text,
    program fingerprints as 32 hex digits ({!Sp_fuzz.Fpset.to_hex}). All
    [_of_json] readers raise [Sp_obs.Json.Decode.Error] on malformed
    input. *)

val prog_to_json : Sp_syzlang.Prog.t -> Sp_obs.Json.t

val prog_of_json :
  parse:(string -> (Sp_syzlang.Prog.t, string) result) ->
  string ->
  Sp_obs.Json.t ->
  Sp_syzlang.Prog.t
(** [prog_of_json ~parse name j]; [name] labels decode errors. *)

val path_to_json : Sp_syzlang.Prog.path -> Sp_obs.Json.t

val path_of_json : Sp_obs.Json.t -> Sp_syzlang.Prog.path

val paths_to_json : Sp_syzlang.Prog.path list -> Sp_obs.Json.t

val paths_of_json : Sp_obs.Json.t -> Sp_syzlang.Prog.path list

val fingerprint_to_json : Sp_syzlang.Prog.fingerprint -> Sp_obs.Json.t

val fingerprint_of_json : string -> Sp_obs.Json.t -> Sp_syzlang.Prog.fingerprint
(** [fingerprint_of_json name j]; [name] labels decode errors. *)

val int_list_to_json : int list -> Sp_obs.Json.t

val int_list_of_json : string -> Sp_obs.Json.t -> int list

val lru_to_json :
  entry_fields:('k -> 'v -> (string * Sp_obs.Json.t) list) ->
  ('k, 'v) Sp_util.Lru.t ->
  Sp_obs.Json.t
(** Entries most recently used first, each an object of its
    [entry_fields] plus its TTL write stamp ["written_at"]. *)

val lru_restore :
  entry_of_json:(Sp_obs.Json.t -> 'k * 'v) ->
  ('k, 'v) Sp_util.Lru.t ->
  Sp_obs.Json.t ->
  unit
(** Clear [lru], then re-put the serialized entries oldest-first with
    their original write stamps — recency order, TTL stamps and future
    eviction behavior all match the cache that was serialized (the
    cache must have been created with the same capacity/TTL). *)

val fingerprint_paths_fields :
  Sp_syzlang.Prog.fingerprint ->
  Sp_syzlang.Prog.path list ->
  (string * Sp_obs.Json.t) list
(** The entry of a base-fingerprint → predicted-paths cache:
    [{"key", "paths"}]. *)

val fingerprint_paths_of_json :
  string ->
  Sp_obs.Json.t ->
  Sp_syzlang.Prog.fingerprint * Sp_syzlang.Prog.path list
(** Inverse of {!fingerprint_paths_fields}; the string labels decode
    errors. *)
