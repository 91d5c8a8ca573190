(** Directories and path resolution.

    A directory is a regular-looking file whose blocks each hold an
    independently decodable entry list ({!Enc.pack_dirents}); entries
    never span blocks, so fsck can parse any single recovered block.
    Each block read is decoded through [State.t.dir_memo], whose slot
    serves only a byte-equal payload, so answers never depend on it.
    Paths are slash-separated, absolute ("/a/b/c"); the root directory
    is inode 1. *)

val root_ino : int

val init_root : State.t -> unit
(** Create the root directory on a freshly formatted file system. *)

val lookup : State.t -> string -> (int * Enc.kind) option
(** Resolve an absolute path to [(ino, kind)]. *)

val store_empty : State.t -> int -> unit
(** Write an empty entry list into a fresh directory inode. *)

val entries : State.t -> int -> Enc.dirent list
(** All entries of directory [ino].
    @raise State.Fs_error if [ino] is not a directory. *)

val add_entry : State.t -> dir:int -> Enc.dirent -> unit
(** @raise State.Fs_error on duplicate names. *)

val remove_entry : State.t -> dir:int -> string -> unit
(** @raise State.Fs_error if the name is absent. *)

val parent_of : State.t -> string -> (int * string, string) result
(** [(parent directory inode, basename)] of a path, or an error
    message. *)
