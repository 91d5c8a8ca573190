(** Per-device trust ledger.

    The health ledger ({!Sero.Health}) tracks a device's {e physical}
    margins; the trust ledger tracks its {e testimonial} record: how
    often its burned hashes agreed with the mirror-group majority.  A
    device whose replica diverges from a clean majority is charged with
    a divergence and becomes [Suspect] — it keeps serving reads (its
    data may still be good block-by-block) but drops to the back of
    every read order and its vote carries a flag.  A device caught with
    a locally self-evident tampered line (its own burned hash refutes
    its data) is charged with a conviction.  Enough strikes and the
    device is [Quarantined]: dropped from quorums and read orders
    entirely, awaiting rebuild onto a spare. *)

type status = Trusted | Suspect | Quarantined

type entry = {
  votes : int;  (** Quorum rounds this device participated in. *)
  agreements : int;  (** Votes that matched the winning hash. *)
  divergences : int;  (** Clean burned hash, outvoted by the majority. *)
  convictions : int;  (** Locally self-evident tampered/torn lines. *)
  unreadable : int;  (** Hash block unreadable during a quorum. *)
  status : status;
}

type t

val create : devices:int -> t
(** All devices start [Trusted] with empty ledgers. *)

val entry : t -> dev:int -> entry
val status : t -> dev:int -> status

(** {1 Charges}

    Each mutator is one ledger line; status transitions are a pure
    function of the accumulated counts so replaying the same charges
    always yields the same ledger. *)

type charge =
  | Agreement
  | Divergence
  | Conviction
  | Unreadable

val charge : t -> dev:int -> charge -> unit
(** Record one charge.  First [Divergence] or [Conviction] demotes
    [Trusted] to [Suspect]; accumulating 3 divergences + convictions
    demotes to [Quarantined].  [Agreement]
    never promotes — rehabilitation requires an explicit {!reset}
    (i.e. a rebuild onto fresh media). *)

val quarantine : t -> dev:int -> unit
(** Force [Quarantined] (operator decision or rebuild source). *)

val reset : t -> dev:int -> unit
(** Fresh [Trusted] entry — used when a spare takes over a slot. *)

val restore : t -> dev:int -> entry -> unit
(** Install a persisted entry verbatim (array image load).
    @raise Invalid_argument on an entry no sequence of {!charge},
    {!quarantine} and {!reset} can produce: a negative counter, [votes]
    other than the sum of the four charge counters, a [Trusted] entry
    with divergences or convictions, or a [Suspect] one with none or
    with 3 or more. *)

val pp_entry : Format.formatter -> entry -> unit
