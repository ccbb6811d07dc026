module Json = Sp_obs.Json

(* The snowplow strategy's live state outside the campaign proper:
   the inference service (queue, clock, caches), the funnel lanes
   (outboxes/inboxes in flight at the barrier; [Null] for a one-job
   campaign, whose shard talks to the service directly) and each shard's
   delivered-prediction memo. Bundled as the campaign snapshot's [aux]
   field so a resumed snowplow campaign is bit-for-bit the
   uninterrupted one. *)
let aux ~parse ~inference ~funnel ~predictions =
  let aux_json () =
    Json.Obj
      [ ("inference", Inference.state_json inference);
        ( "funnel",
          match funnel with None -> Json.Null | Some f -> Funnel.state_json f );
        ( "predictions",
          Json.Arr
            (Array.to_list (Array.map Hybrid.predictions_json predictions)) )
      ]
  in
  let aux_restore j =
    let open Json.Decode in
    Inference.restore_state inference ~parse (field "inference" j);
    (match (funnel, field "funnel" j) with
    | Some f, fj -> Funnel.restore_state f ~parse fj
    | None, Json.Null -> ()
    | None, _ -> error "Persist.aux: snapshot has funnel lanes, campaign has none");
    match field "predictions" j with
    | Json.Arr ps ->
      if List.length ps <> Array.length predictions then
        error "Persist.aux: snapshot has %d prediction memos, campaign has %d"
          (List.length ps) (Array.length predictions);
      List.iteri
        (fun i pj -> Hybrid.restore_predictions predictions.(i) pj)
        ps
    | _ -> error "Persist.aux: predictions: expected array"
  in
  { Sp_fuzz.Campaign.aux_json; aux_restore }
