(** The host front-end: concurrent tenant sessions submitting
    {!Proto.command}s against a device queue or an array volume, with
    admission control (per-tenant depth + token-bucket rate limits),
    the tenant arbiter installed via {!Arbiter}, and per-tenant
    {!Slo} ledgers on the DES clock.

    Queue-path commands on a [Device] target (read/write/heat) are
    {e asynchronous}: [submit] returns immediately and the response is
    recorded when the queued request completes, so many tenants'
    commands genuinely contend under the installed arbiter.
    Electrical-path commands (verify, audit — they read the write-once
    areas, not the sled) and every command on a [Volume] target execute
    synchronously at submit time; QoS for volumes is admission control
    and per-tenant accounting only, because the volume facade is
    synchronous.

    The single-tenant sync facade ({!call}) is bit-identical — payloads,
    hashes, verdicts, completion order — to submitting the same request
    through {!Sero.Queue.await} directly (the equivalence qcheck suite
    holds the layer to that). *)

type target = Device of Sero.Queue.t | Volume of Sarray.Volume.t

(** A tenant's admission limits.  Fair-share weights are not a limit:
    they are the function {!Arbiter.Fair_share} carries. *)
type limits = {
  max_depth : int;  (** Max in-flight commands before [REJECTED_DEPTH]. *)
  rate : float;  (** Token refill per simulated second ([infinity] = off). *)
  burst : float;  (** Bucket capacity. *)
}

val default_limits : limits
(** Unlimited depth and rate. *)

type t

val create : ?limits_of:(int -> limits) -> target -> t
(** [limits_of tenant] fixes a tenant's limits at first contact
    (default: {!default_limits} for everyone). *)

val set_policy : t -> Arbiter.policy -> unit
(** Install the tenant arbiter on the target's queue (every member
    queue for a volume). *)

val submit_frame : t -> Proto.frame -> unit
(** Admit and execute one command.  Rejected commands get a one-phase
    response immediately; accepted queue-path commands respond at
    completion (pump with {!drain}). *)

val drain : t -> unit
(** Pump the DES until the target is idle; all outstanding responses
    arrive. *)

val responses : t -> Proto.response list
(** Every response so far, in completion order. *)

val set_on_response : t -> (Proto.response -> unit) option -> unit
(** Hook fired as each response is recorded (rejections fire inside
    {!submit_frame}; queue-path completions fire while pumping) —
    closed-loop clients use it to schedule their next command. *)

val tenants : t -> int list
val slo : t -> tenant:int -> Slo.t

val report : t -> tenant:int -> Slo.report
(** The tenant's SLO report with the queue's per-tenant energy and
    service charges folded in (summed over member queues for a
    volume). *)

(** {1 Sessions} *)

type session

val session : t -> tenant:int -> session
(** A tenant's command stream; sequence numbers auto-increment from
    0. *)

val next_seq : session -> int
(** The sequence number {!submit} will use next — register completion
    bookkeeping under it {e before} submitting: rejections respond
    synchronously inside {!submit}. *)

val submit : session -> Proto.command -> int
(** Asynchronous submit; returns the command's sequence number. *)

val call : session -> Proto.command -> Proto.response
(** Synchronous facade: submit, {!drain}, return this command's
    response (earlier-queued work may be served on the way, exactly as
    with {!Sero.Queue.await}). *)

(** {1 Replay} *)

val replay : t -> Proto.frame list -> Proto.response list
(** The golden-trace testbench discipline: each frame is submitted and
    {e fully drained} before the next (command, wait for status,
    next command — the u765 register-file style).  Returns the replies
    to exactly these frames, in order. *)

val format_replay : Proto.response list -> string
(** One {!Proto.pp_response} line per response — the golden expected
    output format. *)
