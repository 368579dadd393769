#!/usr/bin/env python3
"""Fail when a library header has no production caller.

Every header under src/ is code someone must run. A header passes when a
production file includes it. Production files are the sources under src/,
bench/, examples/, tools/ and perfbench/; tests/ never counts. Two more rules
keep a dead header from vouching for others:

- a header's own `.cpp` (same directory, same stem) does not count for it;
- an includer that is itself a src/ header, or the `.cpp` of one, counts only
  once that header passes.

So a header reachable only through a dead header fails too, as soon as the
dead one is deleted and on the same run. Includes are matched by path
relative to src/ (`#include "common/stats.hpp"`) or relative to the including
file's directory.

Usage: check_reachability.py [REPO_ROOT]   (default: the parent of this
script's directory). Exits 1 and lists the headers when any header has no
production caller.
"""
import pathlib
import re
import sys

PRODUCTION_DIRS = ("src", "bench", "examples", "tools", "perfbench")
HEADER_SUFFIXES = {".hpp", ".h"}
SOURCE_SUFFIXES = HEADER_SUFFIXES | {".cpp", ".cc"}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.M)


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent).resolve()
    src = root / "src"
    files = [path for directory in PRODUCTION_DIRS
             for path in sorted((root / directory).rglob("*"))
             if path.suffix in SOURCE_SUFFIXES and path.is_file()]
    headers = {path for path in files
               if path.suffix in HEADER_SUFFIXES and path.is_relative_to(src)}
    if not headers:
        print("check_reachability: no headers found under src/", file=sys.stderr)
        return 1

    def owner(path):
        """The src/ header a file stands or falls with: itself if it is one,
        its same-stem header if it is that header's .cpp, else None."""
        if path in headers:
            return path
        for suffix in HEADER_SUFFIXES:
            header = path.with_suffix(suffix)
            if header in headers:
                return header
        return None

    includes = {}  # includer -> headers it includes
    for path in files:
        text = path.read_text(errors="replace")
        found = set()
        for name in INCLUDE_RE.findall(text):
            for candidate in (src / name, path.parent / name):
                candidate = candidate.resolve()
                if candidate in headers:
                    found.add(candidate)
                    break
        includes[path] = found

    # An includer counts once its own header passes, so a header's .cpp
    # never vouches for the header itself.
    reached = set()
    changed = True
    while changed:
        changed = False
        for path, included in includes.items():
            own = owner(path)
            if own is not None and own not in reached:
                continue
            if included - reached:
                reached |= included
                changed = True

    dead = sorted(headers - reached)
    if dead:
        print(f"check_reachability: {len(dead)} header(s) under src/ that no "
              "production file includes (only tests or their own .cpp do; "
              "delete them or give them a caller):")
        for header in dead:
            print(f"  {header.relative_to(root)}")
        return 1
    print(f"check_reachability: {len(headers)} headers under src/, "
          "every header has a production caller")
    return 0


if __name__ == "__main__":
    sys.exit(main())
