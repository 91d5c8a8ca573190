(** The SERO device: the paper's six sector-level operations on top of
    the probe device.

    - {!read_block} / {!write_block} — the magnetic sector operations
      [mrs] / [mws];
    - {!read_hash_block} / the internal electrical write — [ers] / [ews];
    - {!heat_line} — the atomic read/hash/burn/verify sequence;
    - {!verify_line} — recompute and compare.

    Two properties the paper insists on are enforced here and nowhere
    else:

    {b Physical addressing.}  Blocks are addressed by PBA, every frame
    embeds its own PBA, and hashes live only in block 0 of each 2^N-
    aligned line, so a verifier always knows "exactly at which PBA to
    look for heated hashes" and a splicing attacker cannot present data
    as a hash (Section 5.1, fourth bullet).  The [strict_hash_locations]
    flag exists solely so experiment E10 can ablate this and demonstrate
    the splice going undetected.

    {b Tamper evidence, not prevention.}  Magnetic writes into heated
    lines are physically possible (the attacker has the hardware) and
    are not blocked — honest software should consult {!is_line_heated}.
    What the device guarantees is that {!verify_line} afterwards returns
    a {!Tamper.verdict} exposing the interference. *)

type t

type ras = {
  ras_enabled : bool;
      (** Master switch for read retry, burn re-pulse and torn-burn
          completion; tip sparing additionally needs [spare_tips > 0]. *)
  read_retries : int;  (** Extra {!read_block} attempts on failure. *)
  max_repulses : int;  (** Extra burn attempts before giving up. *)
  spare_tips : int;  (** Physical spare tips built into the array. *)
}

val default_ras : ras
(** Everything off — the fail-stop device of the paper. *)

val active_ras : ras
(** A serviceable profile: 3 retries, 2 re-pulses, 4 spare tips.
    {!Scrub}'s own [correction_threshold] decides when a scrub
    rewrites a sector. *)

type endurance = {
  health_enabled : bool;
      (** Gate for retirement {e decisions} ({!line_due}, {!maintenance},
          the Healthy/Degraded/Read-only state machine).  The health
          ledger itself observes unconditionally — observation never
          changes device behaviour. *)
  spare_lines : int;
      (** Lines reserved at format time at the top of the address space
          for grown-defect remapping ({!Layout.usable_lines}). *)
  ewma_alpha : float;  (** Smoothing for the per-line error EWMA. *)
  retire_margin : float;
      (** RS-budget margin at or below which a line is evacuated. *)
}

val default_endurance : endurance
(** Lifecycle off, no spares. *)

val active_endurance : endurance
(** Lifecycle on: 4 spare lines, alpha 0.4, retire at margin 0.5. *)

type config = {
  n_blocks : int;
  line_exp : int;  (** Lines are [2^line_exp] blocks. *)
  n_tips : int;
  seed : int;
  defect_rate : float;
  geometry : Physics.Constants.dot_geometry;
  material : Physics.Constants.material;
  costs : Probe.Timing.costs;
  erb_cycles : int;
  strict_hash_locations : bool;
      (** When [false] (ablation only), {!verify_line} accepts a burned
          hash found at {e any} block of the line. *)
  ras : ras;
  endurance : endurance;
}

val default_config : ?n_blocks:int -> ?line_exp:int -> unit -> config
(** 512 blocks in lines of 8, 32 tips, seed 42, no defects, 100 nm
    Co/Pt medium, default costs, 8 erb cycles, strict locations, RAS
    off. *)

val create : config -> t

val clone : ?plan:Fault.Plan.t -> t -> t
(** Copy-on-write snapshot for fleet fan-out: the medium shares every
    unmutated segment with the parent (each side pays per-segment copies
    only as it diverges), all mutable SERO state (generations, remap
    tables, health ledger, counters, probe ledgers) is deep-copied, and
    the clone's PRNG continues independently from the parent's current
    state.  Mutation/fault listeners are {e not} inherited — an observer
    attached to one device never sees the other's mutations, so clones
    cannot share or launder tamper evidence.  A live fault injector on
    the parent is never inherited either (its PRNG cursor and event
    ledger are the parent's history); pass [?plan] to arm the clone with
    a {e fresh} injector over that plan, so campaign fan-outs can fault
    clones independently while parent evidence still never crosses the
    clone boundary.  The clone starts parked (no scratch buffers; see
    {!park}). *)

val park : t -> unit
(** Return the device's scratch buffers to the per-domain pool.  A
    parked device holds no transient buffers (they re-materialise from
    the pool on the next operation), so thousands of idle clones cost
    only their state arrays. *)

val config : t -> config
val layout : t -> Layout.t
val pdevice : t -> Probe.Pdevice.t
val health : t -> Health.t
(** The per-line endurance ledger (indexed by logical line). *)

(** {1 Fault injection and servicing} *)

val install_fault : t -> Fault.Injector.t -> unit
(** Route the device's bit operations through a fault injector (see
    {!Probe.Pdevice.install_fault}); a configured power cut surfaces as
    {!Fault.Injector.Power_cut} from whatever device call was in
    flight. *)

val clear_fault : t -> unit

val fault_installed : t -> bool
(** Whether a fault injector is currently routed through the device's
    bit operations. *)

val on_fault_install : t -> (unit -> unit) -> unit
(** Register a callback that fires at each {!install_fault}, {e before}
    the injector arms.  The buffer cache uses this as a barrier: it
    flushes write-behind data through the still-healthy device and
    drops its copies, so a fault plan perturbs exactly the medium an
    uncached device would present. *)

val add_mutation_listener : t -> (pba:int -> n:int -> unit) -> unit
(** Register a callback fired after any operation that changes block
    contents on the medium — writes (including {!scrub_rewrite_block}
    and the raw attacker surface), successful {!heat_line} burns and
    torn-burn completions, and {!unsafe_magnetic_wipe} — with the
    affected PBA range.  Lets a cache above the device invalidate
    stale copies so they can never mask a tamper verdict. *)

val service_failed_tips : t -> int
(** Remap every failed logical tip onto a healthy spare (when [ras]
    reserves any); returns the number of remaps performed.  Called
    automatically by {!read_block}'s retry path and by {!Scrub}. *)

(** {1 Magnetic sector operations} *)

type write_error =
  | Reserved_hash_block  (** Block 0 of a line is not for data. *)
  | In_heated_line
      (** Honest firmware refuses to overwrite read-only data; attackers
          use {!unsafe_write_block}. *)
  | Read_only_device
      (** The endurance state machine has reached [Read_only]: spares
          are exhausted and a critically weak line cannot be evacuated,
          so the device stops taking writes to degrade gracefully. *)

type read_error =
  | Blank  (** Never written (or wiped): no valid frame. *)
  | Unreadable of Codec.Sector.error
  | Wrong_location of int  (** Frame decodes but was written for PBA [n]. *)

val write_block : t -> pba:int -> string -> (unit, write_error) result
(** [mws]: frame and magnetically write up to 512 bytes at [pba]. *)

val read_block : t -> pba:int -> (string, read_error) result
(** [mrs]: read and unframe the 512-byte payload at [pba].  With
    [ras.ras_enabled], a failed decode first remaps any failed tips
    ({!service_failed_tips}) and then re-reads up to
    [ras.read_retries] times — transient flips decorrelate between
    attempts ([stats] counts attempts and wins). *)

val read_blocks :
  t -> pba:int -> n:int -> (string, read_error) result array
(** [n] consecutive sectors [pba .. pba+n-1] in one sled pass — the
    coalescing primitive behind {!Queue}'s adjacent-request batching.
    When the span is served in one kernel pass
    ({!Probe.Pdevice.one_pass}: healthy tips, no fault injector, zero
    read noise, defect-free span) and block boundaries align on scan
    rows, the whole span is transferred in a single run; otherwise
    every block goes through {!read_block}.  Results,
    counters, ledger charges and PRNG draws are identical to calling
    {!read_block} sequentially; the only possible divergence is the
    position of RAS retry re-reads for a corrupted non-blank frame
    (issued after the span rather than mid-pass).
    @raise Invalid_argument if the range leaves the device or [n <= 0]. *)

val pp_write_error : Format.formatter -> write_error -> unit
val pp_read_error : Format.formatter -> read_error -> unit

(** {1 Line operations} *)

type heat_error =
  | Unreadable_data of int list
      (** Data blocks that failed [mrs]; the line cannot be hashed.
          Write (e.g. zero-fill) them first. *)
  | Already_heated
  | Burn_verify_failed
      (** The post-burn read-back ([ers]) did not return the burned
          hash — device failure. *)

val heat_line :
  t -> line:int -> ?timestamp:float -> unit -> (Hash.Sha256.t, heat_error) result
(** The WO operation of Section 3: read blocks 1..2^N−1, hash them with
    their PBAs, burn the Manchester-encoded hash + metadata into block
    0's write-once area, and verify the burn.  Returns the burned hash.

    Recovery semantics: a {e torn} area (interrupted or underpowered
    earlier burn, see {!read_hash_block}) is completed idempotently —
    re-burning only fills the missing cells, and if the line's data no
    longer matches the burned prefix the completion creates HH cells
    and fails, preserving the tamper evidence.  With
    [ras.ras_enabled], an incomplete post-burn readback is re-pulsed
    up to [ras.max_repulses] times before [Burn_verify_failed]. *)

val pp_heat_error : Format.formatter -> heat_error -> unit

type burned_meta = {
  line : int;
  n_data_blocks : int;
  timestamp : float;
  hash : Hash.Sha256.t;
}

type torn = {
  burned_cells : int;  (** Cells carrying a valid Manchester symbol. *)
  partial_payload : string;  (** Blank cells decode as zero bits. *)
}

val read_hash_block :
  t ->
  line:int ->
  [ `Not_heated
  | `Burned of burned_meta
  | `Torn of torn
  | `Tampered of Tamper.evidence list ]
(** [ers]: electrically read line [line]'s write-once area.  [`Torn] is
    a mixed burned/blank area with {e no} HH cells — the signature of
    an interrupted burn (cells burn low-to-high, so a power cut leaves
    a prefix) or of underpowered pulses; {!verify_line} reports it as
    [Partially_burned] evidence until {!heat_line} completes it. *)

val verify_line : t -> line:int -> Tamper.verdict
(** Recompute the hash of the line's data blocks and compare against the
    burned hash; any discrepancy is evidence (Section 3, "Verify a
    heated line"). *)

val verify_region : t -> hash_pba:int -> data_pbas:int list -> Tamper.verdict
(** Verify an arbitrary (hash block, data blocks) region — the primitive
    behind the splice/coalesce attack study (E10).  A strict device
    rejects a [hash_pba] that is not a line's block 0 as evidence
    ([Address_mismatch]); the ablated device ([strict_hash_locations =
    false]) accepts any burned-looking area, which is exactly what lets
    the Section 5.1 splicing attack pass. *)

val is_line_heated : t -> line:int -> bool
(** Cheap cached query (maintained by heat/scan operations). *)

(** {1 Whole-device operations} *)

type scan_entry = { scanned_line : int; verdict : Tamper.verdict }

val scan : ?deep:bool -> t -> scan_entry list
(** The fsck-style recovery pass (Section 5.2: after an attacker clears
    the directory structure, "a scan of the medium would definitely
    recover (albeit slowly) all the heated files").  Reads every line's
    write-once area electrically; a burn that names another line is
    [Tampered [Meta_corrupt]], as in {!verify_line}.  With [deep] also
    verifies the data of burned lines.  Rebuilds the heated-line cache
    as a side effect. *)

type block_class =
  | Healthy
  | Heated_block
  | Torn_block
  | Bad_block
  | Retired_block
      (** The block lies in the reserved spare region — a pristine spare
          or a retired carcass.  Owned by the endurance layer; must not
          be reported as a bad block by fsck or scrub inventories. *)

val classify_block : t -> pba:int -> block_class
(** The paper's bad-block challenge: "a heated block should not be
    misinterpreted as a bad block."  An unreadable block is probed
    electrically — heated dots answer the erb protocol as heated, while
    a merely defective (bad) block still holds reversible magnetisation.
    A hash block over a half-burned write-once area is [Torn_block]:
    recoverable by re-running {!heat_line}, not heated, not bad. *)

val pp_block_class : Format.formatter -> block_class -> unit

type device_state =
  | Healthy
  | Degraded  (** Spares exhausted; existing data still fully served. *)
  | Read_only
      (** A critically weak line cannot be evacuated: writes are refused
          ([Read_only_device]) so what is readable stays readable. *)

type stats = {
  n_lines : int;
  heated_lines : int;
  ro_fraction : float;
  wmrm_data_blocks_left : int;  (** Data blocks in unheated lines. *)
  heated_runs : int;
      (** Maximal runs of consecutive heated lines — low relative to
          [heated_lines] means well-clustered RO space (Section 4.1). *)
  elapsed : float;  (** Simulated seconds on the device ledger. *)
  energy : float;
  reads : int;  (** mrs count *)
  writes : int;  (** mws count *)
  heats : int;  (** heat_line count *)
  verifies : int;
  collateral_damage : int;  (** Dots destroyed as thermal bystanders. *)
  retries : int;  (** Extra read attempts made by the RAS path. *)
  retry_successes : int;  (** Retries that recovered the sector. *)
  repulses : int;  (** Extra burn pulses in {!heat_line}. *)
  remapped_tips : int;  (** Failed tips remapped onto spares. *)
  scrub_rewrites : int;  (** Sectors refreshed by {!Scrub}. *)
  torn_completions : int;  (** Torn burns completed by {!heat_line}. *)
  line_retirements : int;  (** Lines evacuated onto spares. *)
  reattest_failures : int;
      (** Migrations refused or failed because the evidence chain would
          not survive the move. *)
  spare_lines_left : int;
  state : device_state;
}

val stats : t -> stats
val is_fully_ro : t -> bool
(** Device end-of-life: every line heated (Section 8, the device
    "ends life as a Read-only device"). *)

val pp_stats : Format.formatter -> stats -> unit

(** {1 Raw access (attacker / test surface)}

    These bypass the honest firmware checks but obey physics: magnetic
    writes cannot alter heated dots and electrical writes are one-way. *)

val scrub_rewrite_block : t -> pba:int -> string -> unit
(** Rewrite a decaying sector in place with a fresh frame (scrubber
    use; counted in [stats.scrub_rewrites]). *)

val unsafe_write_block : t -> pba:int -> string -> unit
(** Frame and magnetically write anywhere, including heated lines and
    hash blocks. *)

val unsafe_write_raw : t -> pba:int -> string -> unit
(** Write a pre-framed 604-byte image verbatim (lets an attacker forge a
    frame whose embedded PBA differs from where it lands). *)

val unsafe_read_raw : t -> pba:int -> string
(** The raw framed bytes as the magnetic channel returns them. *)

val read_raw_view : t -> pba:int -> Bytes.t
(** Like {!unsafe_read_raw} but returning a {e view} of the device's
    internal scratch buffer instead of a fresh string: zero-copy, valid
    only until the next device operation (any read, write, heat or
    verify overwrites it), and never to be mutated.  Callers that need
    the image past the next call must copy ({!unsafe_read_raw}). *)

val bytes_copied : t -> int
(** Running total of payload-sized bytes the device copied into fresh
    buffers: the strings {!unsafe_read_raw} hands out.  Sector reads and
    writes pass images straight between the medium and the device's
    scratch, on every path, and leave it untouched — the bench counters
    assert exactly that. *)

val unsafe_forge_burn :
  t -> hash_pba:int -> data_pbas:int list -> claim_line:int -> unit
(** Burn a structurally valid hash+metadata area at an arbitrary block,
    covering [data_pbas] and claiming region id [claim_line] — the
    splice/coalesce forgery of Section 5.1.  {!verify_region} on a
    strict device still rejects it by location; the ablated device
    accepts it (E10). *)

val unsafe_heat_dots : t -> dot:int -> n:int -> unit
(** Apply ewb pulses to [n] consecutive dots starting at [dot]. *)

val unsafe_magnetic_wipe : t -> unit
(** Bulk eraser (Section 5.2): drives every dot's magnetisation to a
    single direction.  Heated dots are unaffected — they have no
    perpendicular axis left — so burned evidence survives. *)

val refresh_heated_cache : t -> unit
(** Re-derive the heated-line cache from the medium (used after raw
    attacks so honest queries see ground truth). *)

(** {1 Endurance lifecycle}

    The graceful-degradation layer over the health ledger: spare lines
    reserved at format time, a grown-defect remap table (logical line ->
    physical line permutation; frames keep their logical PBAs so a
    migrated line reproduces its burned hash at its new home), and
    evacuate-and-re-attest migration off weakening lines before the RS
    budget exhausts. *)

val device_state : t -> device_state
val pp_device_state : Format.formatter -> device_state -> unit

type migration = {
  m_line : int;  (** Logical line that was rehomed. *)
  m_from : int;  (** Physical line it vacated (the carcass). *)
  m_to : int;  (** Physical line now serving it. *)
  m_heated : bool;
  m_hash : Hash.Sha256.t option;
      (** The burned hash carried across — the old->new attestation
          link.  {!verify_line} on the quarantined carcass checks its
          burn against this, and the re-burned area at the new home
          must reproduce it exactly. *)
  m_timestamp : float;
}

val migrations : t -> migration list
(** The grown-defect list, oldest first. *)

val spares_left : t -> int

val spare_pool : t -> int list
(** Physical line ids of the unused spares (image persistence). *)

val phys_of_line : t -> line:int -> int
(** Current physical line serving a logical line (identity until the
    line is retired). *)

val quarantined : t -> line:int -> bool
(** Whether logical [line] (necessarily in the spare region) addresses
    a retired carcass.  {!verify_line} and {!scan} judge such lines
    against their migration link, never against the superseded data. *)

type migrate_error =
  | No_spare
  | Line_quarantined
  | Source_unreadable of int list
      (** Data blocks that could not be read even through RAS; the line
          cannot be relocated without loss and is left in place. *)
  | Reattest_failed
      (** The source is tamper-evident (hash mismatch, torn or tampered
          write-once area) or the re-burn failed verification: migrating
          would launder the evidence, so the line stays. *)

val evacuate_line :
  t -> line:int -> ?timestamp:float -> unit -> (migration, migrate_error) result
(** Relocate a usable logical line onto a fresh spare: read every data
    payload through the current mapping, pre-image the spare (frames
    with logical PBAs and bumped generations, explicit blanks for
    unwritten slots), swap the remap entries (the commit point), and —
    for a heated line — re-burn the {e original} hash and metadata at
    the new home and verify the burn.  A power cut before the swap
    leaves the old line serving; a cut during the re-burn leaves a torn
    area over complete matching data, which [Fs.recover]'s torn-burn
    completion finishes to the identical hash and timestamp.  Mutation
    listeners fire over both affected line ranges (cache coherence).
    @raise Invalid_argument if [line] is not a usable line. *)

val pp_migrate_error : Format.formatter -> migrate_error -> unit

val line_margin : t -> line:int -> float
(** {!Health.margin} of the line's ledger entry. *)

val line_due : t -> line:int -> bool
(** Whether the endurance policy wants this line evacuated (lifecycle
    enabled, margin at or below the retirement threshold, not already
    rehomed onto a spare that is itself failing). *)

val next_due : t -> int option
(** The weakest due line, if any — what a background migration task
    should evacuate next. *)

val maintenance : t -> ?timestamp:float -> unit -> migration list
(** One synchronous maintenance sweep: evacuate every due line, weakest
    first, while spares last; failed evacuations are skipped.  Updates
    the device state machine and returns the performed migrations. *)

(** {1 Image persistence hooks} *)

val restore_endurance :
  t ->
  phys_line:int array ->
  spare_pool:int list ->
  migrations:migration list ->
  state:device_state ->
  unit
(** Overwrite the remap table, spare pool, grown-defect list and state
    machine from a loaded image (the inverse permutation and carcass
    flags are rebuilt).  Follow with {!refresh_heated_cache}. *)
