(** Per-line endurance ledger.

    Grown errors are the norm over a patterned medium's life (thermal
    decay, tip wear, dot defects), and the Reed-Solomon framing corrects
    them {e silently} until the budget runs out.  This module watches
    the correction margins the stack already produces — corrected-symbol
    counts from {!Codec.Sector.decode}, RAS retry outcomes, tip remaps,
    manufacturing defect density — and condenses them into a per-line
    {e margin}: the fraction of the RS budget still unspent.  The
    device's endurance layer retires a line when its margin falls to
    the device's [endurance.retire_margin], {e before} the next grown
    error is fatal.

    Observation is unconditional and side-effect-free with respect to
    device behaviour: feeding the ledger never changes what a read or
    write returns, so a health-enabled device with no retirement due is
    bit-identical to a baseline device. *)

val rs_budget : int
(** Corrected symbols a sector can absorb before the next error is
    uncorrectable: 12 per RS slice, 3 interleaved slices = 36. *)

type line_health = {
  mutable ewma_corrected : float;
      (** EWMA of corrected symbols per decode (unreadable sectors count
          as a full-budget sample). *)
  mutable reads : int;
  mutable retries : int;
  mutable retry_wins : int;
  mutable unreadable : int;
  mutable defect_dots : int;  (** Manufacturing defects in the line. *)
}

type t

val create : alpha:float -> n_lines:int -> unit -> t
(** A fresh ledger; [alpha] is the EWMA smoothing factor in (0, 1]. *)

val copy : t -> t
(** Independent ledger with the same per-line state — device cloning
    must not share mutable health entries. *)

val n_lines : t -> int

val line : t -> line:int -> line_health
(** The raw ledger entry (shared, mutable — used by image persistence
    and reporting). *)

(** {1 Signal feeders} *)

val note_decode : t -> line:int -> corrected:int -> unit
val note_unreadable : t -> line:int -> unit
val note_retry : t -> line:int -> won:bool -> unit
val note_tip_remap : t -> unit
val tip_remaps : t -> int

val set_defects : t -> line:int -> int -> unit
(** Record the line's manufacturing defect-dot count (set once at
    device create, and again when a migration rehomes the line). *)

(** {1 Margins} *)

val margin : t -> line:int -> float
(** [1 - (ewma_corrected + defect_dots) / rs_budget]: 1.0 is a pristine
    line, 0.0 means the observed error level already consumes the whole
    RS budget.  Defect dots count as permanently at-risk symbols (worst
    case: all in one sector). *)

val weakest : ?limit:int -> t -> (int * float) option
(** Line with the smallest margin among lines [0, limit) (default: all),
    ties to the lowest line number. *)

val lines_at_or_below : ?limit:int -> t -> float -> int list
(** Ascending lines of [0, limit) whose margin is at or below the
    threshold. *)

val reset_line : t -> line:int -> defect_dots:int -> unit
(** Forget a line's history (it was rehomed onto fresh medium with the
    given defect density). *)

(** {1 Persistence hooks (Image)} *)

val restore_line :
  t ->
  line:int ->
  ewma:float ->
  reads:int ->
  retries:int ->
  retry_wins:int ->
  unreadable:int ->
  defect_dots:int ->
  unit

val set_tip_remaps : t -> int -> unit
