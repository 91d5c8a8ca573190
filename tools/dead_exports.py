#!/usr/bin/env python3
"""List exported values that nothing outside their own module names.

For every `val NAME` in lib/**/*.mli, look for `MODULE.NAME` in every
.ml and .mli file under lib/, bin/, bench/, perfbench/, examples/ and
test/ other than the declaring module's own pair.  MODULE is the
innermost module the declaration sits in: the file's own module, or a
`module M : sig ... end` nested in it.  A file that binds an alias
(`module P = Host.Proto`) may name the value through the alias.

Prints one line per value that no other file names and exits 1 if
there is any.  A value reached only through `open` or a local
`M.( ... )` is not seen, so such a use is written qualified.

Usage: python3 tools/dead_exports.py [REPO_ROOT]
"""

import os
import re
import sys

SEARCHED = ["lib", "bin", "bench", "perfbench", "examples", "test"]

VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)\s*:")
SIG_OPEN = re.compile(r"^\s*module\s+([A-Z][A-Za-z0-9_']*)\s*:\s*sig\b")
SIG_END = re.compile(r"^\s*end\b")
ALIAS = re.compile(r"\bmodule\s+([A-Z][A-Za-z0-9_']*)\s*=\s*([A-Z][A-Za-z0-9_'.]*)")
CHAR = re.compile(r"'(?:\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3})|[^\\'])'")


def strip(text):
    """The text with comments (nested) and string and character
    literals blanked out, line breaks kept."""
    out = []
    i, n, depth = 0, len(text), 0
    while i < n:
        c = text[i]
        if text.startswith("(*", i) and not text.startswith("(*)", i):
            depth += 1
            i += 2
        elif depth and text.startswith("*)", i):
            depth -= 1
            i += 2
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append("\n" * text.count("\n", i, j + 1))
            i = j + 1
        elif c == "'" and not depth and CHAR.match(text, i):
            i = CHAR.match(text, i).end()
        else:
            if not depth or c == "\n":
                out.append(c)
            i += 1
    return "".join(out)


def module_of(path):
    stem = os.path.basename(path).split(".")[0]
    return stem[:1].upper() + stem[1:]


def exported(mli, text):
    """(qualifier, name) for every value the interface declares."""
    stack = [module_of(mli)]
    out = []
    for line in text.splitlines():
        m = SIG_OPEN.match(line)
        if m:
            stack.append(m.group(1))
        elif SIG_END.match(line) and len(stack) > 1:
            stack.pop()
        else:
            m = VAL.match(line)
            if m:
                out.append((stack[-1], m.group(1)))
    return out


def sources(root):
    for top in SEARCHED:
        for d, dirs, files in os.walk(os.path.join(root, top)):
            dirs[:] = [x for x in dirs if x != "_build"]
            for f in files:
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(d, f)


QUALIFIED = re.compile(r"(?<![\w'])([A-Z][A-Za-z0-9_']*)\.([a-z_][A-Za-z0-9_']*)")


def names(text):
    """Every (qualifier, name) pair the text writes as `Q.name`, with an
    alias's uses also counted under the module it stands for."""
    aliases = {}
    for a, path in ALIAS.findall(text):
        aliases.setdefault(a, set()).add(path.split(".")[-1])
    out = set()
    for q, name in QUALIFIED.findall(text):
        out.add((q, name))
        for target in aliases.get(q, ()):
            out.add((target, name))
    return out


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    texts = {}
    for p in sources(root):
        with open(p, encoding="utf-8") as f:
            texts[p] = strip(f.read())
    # Who names each (qualifier, name): the module stems (path without
    # extension) of the files that write it.
    named_by = {}
    for p, text in texts.items():
        for key in names(text):
            named_by.setdefault(key, set()).add(os.path.splitext(p)[0])
    unused = []
    for mli in sorted(texts):
        rel = os.path.relpath(mli, root)
        if not (mli.endswith(".mli") and rel.startswith("lib" + os.sep)):
            continue
        own = os.path.splitext(mli)[0]
        for qual, name in exported(mli, texts[mli]):
            if not named_by.get((qual, name), set()) - {own}:
                unused.append(f"{rel}: {qual}.{name}")
    for u in unused:
        print(u)
    if unused:
        print(f"{len(unused)} exported value(s) named by no other module", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
