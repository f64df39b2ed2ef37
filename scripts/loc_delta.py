#!/usr/bin/env python3
"""Print added, deleted and net lines per top-level directory of a diff.

Usage: loc_delta.py BASE [--files] [PATHSPEC ...]

Counts `git diff --numstat --no-renames BASE`: the working tree against
commit BASE, over the files git tracks (stage new files with `git add`
first, or they are not counted). Binary files count no lines. Files at
the repository root are grouped under ".". With --files, every changed
file gets its own row after its directory's. PATHSPECs limit the diff as
they limit `git diff` (e.g. `src/`).
"""
import subprocess
import sys
from collections import defaultdict


def numstat(base, pathspecs):
    out = subprocess.run(
        ["git", "diff", "--numstat", "--no-renames", base, "--", *pathspecs],
        check=True, capture_output=True, text=True).stdout
    for line in out.splitlines():
        added, deleted, path = line.split("\t", 2)
        if added == "-":  # binary
            added = deleted = "0"
        yield path, int(added), int(deleted)


def row(name, added, deleted):
    return f"{name:<48} {added:>7} {deleted:>7} {added - deleted:>+7}"


def main(argv):
    args = [a for a in argv if a != "--files"]
    if not args or args[0].startswith("-"):
        sys.exit(__doc__)
    base, pathspecs = args[0], args[1:]
    files = defaultdict(list)
    for path, added, deleted in numstat(base, pathspecs):
        top = path.split("/", 1)[0] if "/" in path else "."
        files[top].append((path, added, deleted))
    print(f"{'directory':<48} {'added':>7} {'deleted':>7} {'net':>7}")
    total_added = total_deleted = 0
    for top in sorted(files):
        added = sum(a for _, a, _ in files[top])
        deleted = sum(d for _, _, d in files[top])
        total_added += added
        total_deleted += deleted
        print(row(top + ("/" if top != "." else ""), added, deleted))
        if "--files" in argv:
            for path, a, d in sorted(files[top]):
                print(row("  " + path, a, d))
    print(row("total", total_added, total_deleted))


if __name__ == "__main__":
    main(sys.argv[1:])
