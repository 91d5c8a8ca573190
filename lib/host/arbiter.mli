(** Tenant arbiters by name: the host layer's handle on
    {!Sero.Queue.arbiter}, which decides {e which tenant} the sled
    serves next (the queue's own scheduling policy still orders that
    tenant's requests).  The rules live in the queue. *)

type policy = Sero.Queue.arbiter =
  | Tenant_blind
  | Arrival_order
  | Fair_share of (int -> float)

val policy_name : policy -> string
(** ["blind"], ["fifo"], ["wfs"] — table labels. *)

val install : Sero.Queue.t -> policy -> unit
(** {!Sero.Queue.set_arbiter}. *)
