(** The exit codes by which the DMTCP programs report failure.

    - {!no_images} (1): [dmtcp:restart] found nothing to restore.
    - {!manager_failed} (70): a checkpoint manager stopped: it raised,
      or its coordinator died mid-checkpoint.
    - {!restarter_crashed} (71): [dmtcp:restart] raised — a bug, never a
      damaged image.
    - {!corrupt_image} (72): an image failed to decode.  Every decoder
      reports damage as {!Util.Codec.Reader.Corrupt}, so a damaged image
      ends here and never in {!restarter_crashed}.
    - {!blocks_lost} (73): some image's store blocks are lost on every
      replica. *)

val no_images : int
val manager_failed : int
val restarter_crashed : int
val corrupt_image : int
val blocks_lost : int
