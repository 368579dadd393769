#!/usr/bin/env python3
"""Fail when an option field has no caller.

Every field of a `struct *Options` declared under src/ is a configuration
someone must run. A field passes when some file other than the header that
declares it assigns it, as `x.field = ...` or as a designated initializer
`{.field = ...}`. A field whose type is itself an option struct (a nested
`ScannerOptions scanner;`) is checked through its own fields instead, and
passes when some caller sets one of them through it (`x.scanner.min_cores =
...`) or assigns it whole.

The search covers src/, bench/, examples/, tools/, tests/ and perfbench/.
Fields are matched by name, so a name shared by two option structs is
satisfied by either's caller.

Usage: check_options.py [REPO_ROOT]   (default: the parent of this script's
directory). Exits 1 and lists the fields when any field has no caller.
"""
import pathlib
import re
import sys

SEARCH_DIRS = ("src", "bench", "examples", "tools", "tests", "perfbench")
SOURCE_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}

STRUCT_RE = re.compile(r"^\s*struct\s+(\w+Options)\s*\{", re.M)
# `Type name;` or `Type name = init;` / `Type name{init};` on one line.
FIELD_RE = re.compile(r"^\s*(?P<type>[\w:<>,\s\*&]+?)\s+(?P<name>\w+)\s*(?:=[^;]*|\{[^;]*\})?;")


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def struct_bodies(text):
    """Yield (struct name, body) for each `struct *Options { ... };`."""
    for match in STRUCT_RE.finditer(text):
        depth, i = 1, match.end()
        while depth and i < len(text):
            depth += {"{": 1, "}": -1}.get(text[i], 0)
            i += 1
        yield match.group(1), text[match.end():i - 1]


def fields(body):
    """Top-level data members of a struct body: (type, name)."""
    depth, line_start, out = 0, 0, []
    for i, ch in enumerate(body):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif ch == ";" and depth == 0:
            decl = " ".join(body[line_start:i + 1].split())
            line_start = i + 1
            if "(" in decl or decl.startswith(("using ", "static ", "friend ")):
                continue
            match = FIELD_RE.match(decl)
            if match:
                out.append((match.group("type").strip(), match.group("name")))
    return out


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent)
    sources = {}
    for directory in SEARCH_DIRS:
        for path in sorted((root / directory).rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                sources[path] = strip_comments(path.read_text(errors="replace"))

    option_structs = {}  # (header, struct) -> [(type, name)]
    for path, text in sources.items():
        if path.is_relative_to(root / "src"):
            for struct, body in struct_bodies(text):
                option_structs[(path, struct)] = fields(body)
    nested = {struct for _, struct in option_structs}

    unset = []
    for (header, struct), members in sorted(option_structs.items()):
        for type_name, name in members:
            through = r"(?:\s*\.\s*\w+)?" if type_name.split("::")[-1] in nested else ""
            assign = re.compile(r"\.\s*" + name + through + r"\s*=(?!=)")
            if not any(assign.search(text)
                       for path, text in sources.items() if path != header):
                unset.append(f"{header.relative_to(root)}: {struct}::{name}")

    if not option_structs:
        print("check_options: no option structs found under src/", file=sys.stderr)
        return 1
    count = sum(len(m) for m in option_structs.values())
    if unset:
        print(f"check_options: {len(unset)} option field(s) that nothing assigns "
              "(make each a constexpr in the one file that reads it):")
        for line in unset:
            print(f"  {line}")
        return 1
    print(f"check_options: {count} fields in {len(option_structs)} option structs, "
          "every field has a caller")
    return 0


if __name__ == "__main__":
    sys.exit(main())
