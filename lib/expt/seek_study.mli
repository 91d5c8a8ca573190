(** E19 — sled scheduling: random IO service time vs. request ordering.

    Section 3 expects the SERO device to offer disk-class random WMRM
    access; like a disk, the shared sled rewards elevator scheduling.
    The experiment serves random block batches under FIFO, SSTF and
    elevator ordering and reports simulated service time per batch —
    who wins and by what factor. *)

type row = {
  policy : string;
  batch : int;
  mean_service_s : float;  (** Simulated time to serve one batch. *)
  vs_fifo : float;  (** Speed-up factor over FIFO. *)
}

val print : Format.formatter -> unit
