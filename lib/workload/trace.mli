(** File-system operation traces: serialise and replay.

    Experiments that compare allocation policies need the {e same}
    operation stream applied to differently configured file systems; a
    trace makes the stream a first-class, storable value.  Replay is
    deterministic: replaying one trace onto two identically configured
    devices yields bit-identical media (tested). *)

type op =
  | Mkdir of string
  | Create of { path : string; heat_group : int }
  | Write of { path : string; offset : int; data : string }
  | Append of { path : string; data : string }
  | Unlink of string
  | Heat of string
  | Sync

type t = op list

val encode : t -> string
val decode : string -> (t, string) result

val load : string -> (t, string) result

type outcome = {
  applied : int;
  refused : int;  (** Operations the FS rejected (e.g. writes to heated files). *)
}

val replay : Lfs.Fs.t -> t -> outcome
(** Apply every operation in order; refusals are counted, not fatal —
    a trace captured on one policy may legitimately see refusals on
    another. *)
