#!/usr/bin/env python3
"""Fail when an option field has no production caller.

Every field of a `struct *Options` declared under src/ is a configuration
some shipped binary must run. A field passes when a production file other
than the header that declares it assigns it, as `x.field = ...` or as a
designated initializer `{.field = ...}`. Production means src/, bench/,
examples/, tools/ and perfbench/; a test is not a caller. A field whose type
is itself an option struct (a nested `ScannerOptions scanner;`) is checked
through its own fields instead, and passes when some caller sets one of them
through it (`x.scanner.proc_root = ...`) or assigns it whole.

A field only tests set passes only when KNOWN_TEST_ONLY below names it, with
the reason it stays a field. An entry fails too when its struct has no such
field or the field has gained a production caller, so the list stays exact.

Fields are matched by name, so a name shared by two option structs is
satisfied by either's caller.

Usage: check_options.py [REPO_ROOT]   (default: the parent of this script's
directory). Exits 1 and lists the fields when any field has no caller.
"""
import pathlib
import re
import sys

PRODUCTION_DIRS = ("src", "bench", "examples", "tools", "perfbench")
SOURCE_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}

# Fields that only tests set, each with the reason it is still a field.
KNOWN_TEST_ONLY = {
    # The connect retry and activation bounds of FailoverClient, the one
    # client type: the fork-based fault and failover sweeps run clients
    # against real daemons in real time and need tighter bounds than a
    # deployment's. (Its failover windows are constants in seconds.)
    "ClientConnectOptions::max_attempts": "fork-based sweeps bound retries in real time",
    "ClientConnectOptions::initial_backoff_us": "fork-based sweeps bound retries in real time",
    "ClientConnectOptions::max_backoff_us": "fork-based sweeps bound retries in real time",
    "ClientConnectOptions::backoff_seed": "the sweeps replay one jitter sequence per seed",
    "ClientConnectOptions::activation_timeout_s": "fork-based sweeps bound activation in real time",
    # The advertised data home of a NUMA-bad client: no shipped client pins
    # its data yet, so only tests reach the daemon's home-aware decisions.
    "ClientConnectOptions::data_home": "no shipped client advertises a data home yet",
    # Feature-off and fake-backend seams: tests compare against the
    # feature turned off, or run on a simulated memory backend.
    "RuntimeOptions::bind_mode": "tests bind workers to the host's real cpusets",
    "RuntimeOptions::poach_threshold_bytes": "0 turns the poach veto off for comparison",
    "RuntimeOptions::migration_budget_bytes": "0 turns migration off for comparison",
    "RuntimeOptions::memory_backend": "tests place datablocks on a simulated backend",
    "DiscoveryOptions::sysfs_root": "tests read a fake sysfs tree",
}

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
    for directory in PRODUCTION_DIRS:
        for path in sorted((root / directory).rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                sources[path] = strip_comments(path.read_text(errors="replace"))

    option_structs = {}  # (header, struct) -> [(type, name)]
    for path, text in sources.items():
        if path.is_relative_to(root / "src"):
            for struct, body in struct_bodies(text):
                option_structs[(path, struct)] = fields(body)
    if not option_structs:
        print("check_options: no option structs found under src/", file=sys.stderr)
        return 1
    structs = {struct for _, struct in option_structs}

    unset, stale, known = [], [], set()
    for (header, struct), members in sorted(option_structs.items()):
        for type_name, name in members:
            key = f"{struct}::{name}"
            through = r"(?:\s*\.\s*\w+)?" if type_name.split("::")[-1] in structs else ""
            assign = re.compile(r"\.\s*" + name + through + r"\s*=(?!=)")
            called = any(assign.search(text)
                         for path, text in sources.items() if path != header)
            if key in KNOWN_TEST_ONLY:
                known.add(key)
                if called:
                    stale.append(f"{key}: has a production caller now")
            elif not called:
                unset.append(f"{header.relative_to(root)}: {key}")
    stale += [f"{key}: no such option field"
              for key in sorted(KNOWN_TEST_ONLY.keys() - known)
              if key.split("::")[0] in structs]

    count = sum(len(m) for m in option_structs.values())
    if unset:
        print(f"check_options: {len(unset)} option field(s) that no production "
              "file assigns (make each a constexpr in the one file that reads "
              "it, or derive it from the option that sets its scale):")
        for line in unset:
            print(f"  {line}")
    if stale:
        print(f"check_options: {len(stale)} stale KNOWN_TEST_ONLY entries:")
        for line in stale:
            print(f"  {line}")
    if unset or stale:
        return 1
    print(f"check_options: {count} fields in {len(option_structs)} option structs, "
          f"every field has a production caller but the {len(known)} known "
          "test-only ones")
    return 0


if __name__ == "__main__":
    sys.exit(main())
