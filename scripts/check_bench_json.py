#!/usr/bin/env python3
"""Validate a numashare-bench/1 document, the one format every gated bench emits.

A document is {schema, bench, quick, sanitized, host_cpus, protocol, results,
gates} (docs/OBSERVABILITY.md "Bench format").

Rows. A result row is {name, scenario, unit, value} or a latency distribution
{name, scenario, unit: "ns", [count,] p50, p99, p999, max}. (name, scenario)
is unique, every number is positive and finite, percentiles are monotone and
a recorded count is non-zero.

Gates. A gate is {metric, op, limit | ref [, scale] [, offset], enforce}.
`metric` and `ref` address a row as "name@scenario", plus ".p99" (or another
percentile field) for a distribution. The bound is `limit`, or
scale * ref + offset. `op` is <=, >= or ==. `enforce` says which documents
the verdict counts on: always, full (quick=false) or full_unsanitized
(quick=false and sanitized=false). Every verdict is recomputed from the rows;
an enforced gate whose rows are missing fails.

Pins. PINS names, per bench, what its document must carry: its units, the
shape of its scenario names, the row names present in every document (and in
full documents), the scenarios, single rows, per-row flags, and its gates at
today's limits and enforce levels, so a document cannot pass by dropping or
loosening a gate.

Diff. With --against COMMITTED, the checker then prints one line per
(name, scenario) row found in either document: the committed value, the new
value and the relative change. A distribution row compares its p99. A row
in only one document reads `added` or `removed`. The exit code is still the
validation result of BENCH.json alone.

Usage: check_bench_json.py BENCH.json [--against COMMITTED.json]
"""
import argparse
import json
import math
import operator
import re
import sys

SCHEMA = "numashare-bench/1"
PERCENTILES = ("p50", "p99", "p999", "max")
OPS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq}
ENFORCE = {
    "always": lambda doc: True,
    "full": lambda doc: not doc["quick"],
    "full_unsanitized": lambda doc: not doc["quick"] and not doc["sanitized"],
}

PINS = {
    "bench_spawn": {
        "units": {"tasks_per_sec", "ns_per_steal", "ns_median", "x", "ns"},
        # Worker count (1..1024); eb74b81_ rows are the committed baseline.
        "scenario": r"(?:eb74b81_)?w(\d+)",
        "names": ["spawn_retire_external", "spawn_retire_nested", "steal_drain",
                  "handoff_latency", "wait_idle_latency"],
        # Quick runs may legitimately miss a distribution (e.g. no steals).
        "full_names": ["handoff", "steal", "wake", "enact_lag"],
        "gates": [
            {"metric": "obs_overhead@w4", "op": "<=", "limit": 1.02, "enforce": "full"},
            {"metric": "handoff@w1.p99", "op": "<=", "limit": 25000, "enforce": "full"},
        ],
    },
    "bench_alloc_scale": {
        "units": {"us_per_search", "us_per_solve", "evals", "kb", "x"},
        # nodes x cores_per_node x apps, each 1..1024; _churn marks the
        # daemon's shape in join_churn's app order.
        "scenario": r"(\d+)x(\d+)x(\d+)(?:_churn)?",
        "names": ["solve", "solve_into", "search_before", "search_after", "search_speedup",
                  "search_evals", "search_solves", "search_candidates", "refine",
                  "peak_rss", "peak_rss_full"],
        # The search's cost on the daemon's shape, in both app orders.
        "rows": ["search_evals@4x20x12", "search_solves@4x20x12",
                 "search_evals@4x20x12_churn", "search_solves@4x20x12_churn"],
        # Every search_before row says whether its brute-force time was estimated.
        "flags": {"search_before": "estimated"},
        "gates": [
            {"metric": "search_before@8x64x8", "op": ">=", "ref": "search_after@8x64x8",
             "scale": 10, "enforce": "full"},
            # The streaming phase must not materialize the candidate set: 512 MB.
            {"metric": "peak_rss@8x64x8", "op": "<=", "limit": 524288, "enforce": "always"},
            {"metric": "peak_rss_full@8x64x8", "op": ">=", "ref": "peak_rss@8x64x8",
             "enforce": "always"},
        ],
    },
    "bench_foreign": {
        "units": {"gflops", "x", "us_per_search", "us_per_scan", "ns"},
        "names": ["blind", "aware", "advantage", "aware_search", "scan"],
        "gates": [
            {"metric": "aware@bw_shift", "op": ">=", "ref": "blind@bw_shift", "scale": 1.3,
             "enforce": "always"},
        ],
    },
    "bench_datablock": {
        "units": {"gbps", "x", "ns", "ms", "count"},
        "names": ["blind", "aware", "advantage", "migrate_payoff"],
        # A trimmed quick round may drain before any thief records a steal.
        "full_names": ["steal_p99_blind", "steal_p99_aware", "steal_p99_ratio"],
        "gates": [
            {"metric": "aware@bw_skew", "op": ">=", "ref": "blind@bw_skew", "scale": 1.3,
             "enforce": "always"},
            {"metric": "steal_p99_aware@steal_2x2", "op": "<=", "ref": "steal_p99_blind@steal_2x2",
             "scale": 1.05, "offset": 1000, "enforce": "full_unsanitized"},
        ],
    },
    "bench_daemon_scale": {
        "units": {"ticks/s", "ns", "x", "slots"},
        "names": ["ticks_per_sec", "tick", "speedup", "capacity"],
        "scenarios": ["bitmap_1024cap_32active", "full_scan_1024cap_32active",
                      "sweep16_1024cap_32active", "active_32", "active_256", "active_1024"],
        "gates": [
            {"metric": "ticks_per_sec@bitmap_1024cap_32active", "op": ">=",
             "ref": "ticks_per_sec@full_scan_1024cap_32active", "scale": 8,
             "enforce": "full_unsanitized"},
            {"metric": "tick@active_1024.p99", "op": "<=", "limit": 25000000,
             "enforce": "full_unsanitized"},
            {"metric": "capacity@registry", "op": "==", "limit": 1024, "enforce": "always"},
        ],
    },
}


class BenchError(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise BenchError(msg)


def positive_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and \
        math.isfinite(float(v)) and v > 0


def check_row(where, r, pin):
    for field in ("name", "scenario", "unit"):
        require(isinstance(r.get(field), str) and r[field],
                f"{where}: field {field!r} missing or not a string")
    require(r["unit"] in pin["units"], f"{where}: unknown unit {r['unit']!r}")
    m = re.fullmatch(pin.get("scenario", r"\w+"), r["scenario"])
    require(m is not None, f"{where}: malformed scenario {r['scenario']!r}")
    for dim in m.groups():
        require(0 < int(dim) <= 1024, f"{where}: implausible dimension {dim} "
                                      f"in scenario {r['scenario']!r}")
    if "value" in r:
        require(not any(f in r for f in PERCENTILES + ("count",)),
                f"{where}: a row carries either a value or percentiles, not both")
        require(positive_number(r["value"]),
                f"{where}: value {r['value']!r} is not a positive finite number")
        return
    require(r["unit"] == "ns", f"{where}: distribution rows must be in ns, got {r['unit']!r}")
    for field in PERCENTILES:
        require(positive_number(r.get(field)),
                f"{where}: {field} {r.get(field)!r} is not a positive finite number")
    q = [r[f] for f in PERCENTILES]
    require(q == sorted(q), f"{where}: percentiles not monotone: " +
            " ".join(f"{f}={r[f]}" for f in PERCENTILES))
    if "count" in r:
        require(isinstance(r["count"], int) and not isinstance(r["count"], bool)
                and r["count"] > 0, f"{where}: empty distribution (count={r['count']!r})")


def lookup(rows, address):
    """Value of "name@scenario[.field]", or None when the row is absent."""
    m = re.fullmatch(r"(\w+)@(\w+)(?:\.(\w+))?", address or "")
    require(m is not None, f"malformed row address {address!r}")
    name, scenario, field = m.groups()
    r = rows.get((name, scenario))
    if r is None:
        return None
    field = field or "value"
    require(field in r and field in ("value",) + PERCENTILES,
            f"{address}: row has no field {field!r}")
    return float(r[field])


def normalize(gate):
    """The gate as a comparable tuple, with defaults filled in."""
    return (gate.get("metric"), gate.get("op"), gate.get("limit"), gate.get("ref"),
            gate.get("scale", 1), gate.get("offset", 0), gate.get("enforce"))


def check_gate(where, gate, rows, doc):
    """Replays one gate; returns its report line."""
    require(isinstance(gate, dict), f"{where}: not an object")
    require(gate.get("op") in OPS, f"{where}: op {gate.get('op')!r} is not <=, >= or ==")
    require(gate.get("enforce") in ENFORCE,
            f"{where}: enforce {gate.get('enforce')!r} is not one of {', '.join(ENFORCE)}")
    require(("limit" in gate) != ("ref" in gate), f"{where}: needs exactly one of limit, ref")
    for field in ("limit", "scale", "offset"):
        v = gate.get(field, 0)
        require(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v),
                f"{where}: {field} {v!r} is not a finite number")
    require("ref" in gate or not ("scale" in gate or "offset" in gate),
            f"{where}: scale and offset apply only to a ref")
    actual = lookup(rows, gate.get("metric"))
    ref = lookup(rows, gate["ref"]) if "ref" in gate else None
    label = f"{gate['metric']} {gate['op']} " + (
        f"{gate['limit']}" if "limit" in gate else
        f"{gate.get('scale', 1)} x {gate['ref']}" +
        (f" + {gate['offset']}" if gate.get("offset") else ""))
    enforced = ENFORCE[gate["enforce"]](doc)
    if actual is None or ("ref" in gate and ref is None):
        require(not enforced, f"gate {label} ({gate['enforce']}): row missing")
        return f"  gate {label}: not measured ({gate['enforce']}, not enforced)"
    bound = gate["limit"] if "limit" in gate else \
        gate.get("scale", 1) * ref + gate.get("offset", 0)
    ok = OPS[gate["op"]](actual, bound)
    require(ok or not enforced,
            f"gate {label} ({gate['enforce']}) failed: {actual:g} vs bound {bound:g}")
    verdict = "PASS" if ok else "FAIL (not enforced)"
    return f"  gate {label}: {actual:g} vs {bound:g} {verdict} ({gate['enforce']})"


def check(doc):
    """Validates a parsed document; returns the gate report lines."""
    require(isinstance(doc, dict), "document is not a JSON object")
    require(doc.get("schema") == SCHEMA, f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    for field, kind in (("bench", str), ("quick", bool), ("sanitized", bool),
                        ("host_cpus", int), ("protocol", str), ("results", list),
                        ("gates", list)):
        require(isinstance(doc.get(field), kind), f"field {field!r} missing or not a {kind.__name__}")
    pin = PINS.get(doc["bench"])
    require(pin is not None, f"unknown bench {doc['bench']!r}: add it to PINS")
    require(doc["results"], "results array is empty")

    rows = {}
    for i, r in enumerate(doc["results"]):
        require(isinstance(r, dict), f"results[{i}]: not an object")
        check_row(f"results[{i}]", r, pin)
        key = (r["name"], r["scenario"])
        require(key not in rows, f"results[{i}]: duplicate row {key[0]}@{key[1]}")
        rows[key] = r
        flag = pin.get("flags", {}).get(r["name"])
        if flag is not None:
            require(isinstance(r.get(flag), bool),
                    f"results[{i}]: {r['name']} row must carry a bool {flag!r}")

    names = {name for name, _ in rows}
    missing = [n for n in pin["names"] if n not in names]
    require(not missing, f"required result names absent: {', '.join(missing)}")
    if not doc["quick"]:
        missing = [n for n in pin.get("full_names", []) if n not in names]
        require(not missing, f"full run missing rows: {', '.join(missing)}")
    missing = [a for a in pin.get("rows", []) if lookup(rows, a) is None]
    require(not missing, f"required rows absent: {', '.join(missing)}")
    scenarios = {scenario for _, scenario in rows}
    missing = [s for s in pin.get("scenarios", []) if s not in scenarios]
    require(not missing, f"required scenarios absent: {', '.join(missing)}")

    carried = [normalize(g) for g in doc["gates"] if isinstance(g, dict)]
    for want in pin["gates"]:
        require(normalize(want) in carried,
                f"pinned gate missing or changed: {json.dumps(want)}")
    return [check_gate(f"gates[{i}]", g, rows, doc) for i, g in enumerate(doc["gates"])]


def compared(doc):
    """{"name@scenario[.p99]": number} for every well-formed row."""
    out = {}
    for r in doc.get("results", []) if isinstance(doc, dict) else []:
        if not isinstance(r, dict):
            continue
        address = f"{r.get('name')}@{r.get('scenario')}"
        field = "value" if "value" in r else "p99"
        if positive_number(r.get(field)):
            out[address + ("" if field == "value" else ".p99")] = float(r[field])
    return out


def diff(committed, new):
    """One line per row of either document: committed, new, relative change."""
    old_rows, new_rows = compared(committed), compared(new)
    lines = []
    for address in sorted(old_rows.keys() | new_rows.keys()):
        if address not in new_rows:
            lines.append(f"  {address}: {old_rows[address]:g} -> (none) removed")
        elif address not in old_rows:
            lines.append(f"  {address}: (none) -> {new_rows[address]:g} added")
        else:
            before, after = old_rows[address], new_rows[address]
            lines.append(f"  {address}: {before:g} -> {after:g} "
                         f"{(after - before) / before:+.1%}")
    return lines


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description="Validate a numashare-bench/1 document.")
    parser.add_argument("path", help="the document to validate")
    parser.add_argument("--against", metavar="COMMITTED",
                        help="also print per-row deltas from this document")
    args = parser.parse_args()
    status, doc = 0, None
    try:
        doc = load(args.path)
        report = check(doc)
        print(f"check_bench_json: OK: {args.path} ({len(doc['results'])} results, "
              f"{len(doc['gates'])} gates, bench={doc['bench']}, quick={doc['quick']}, "
              f"sanitized={doc['sanitized']})")
        print("\n".join(report))
    except (OSError, json.JSONDecodeError, BenchError) as e:
        print(f"check_bench_json: FAIL: {args.path}: {e}", file=sys.stderr)
        status = 1
    if args.against and doc is not None:
        try:
            committed = load(args.against)
        except (OSError, json.JSONDecodeError) as e:
            print(f"check_bench_json: cannot diff against {args.against}: {e}", file=sys.stderr)
        else:
            print(f"check_bench_json: rows of {args.path} against {args.against}:")
            print("\n".join(diff(committed, doc)))
    sys.exit(status)


if __name__ == "__main__":
    main()
