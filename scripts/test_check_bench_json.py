#!/usr/bin/env python3
"""Self-test for check_bench_json.py: the committed BENCH files pass, and each
mutation that breaks a pin or a row rule fails.

Every pinned gate is pushed just past its bound in a full, a quick and a full
sanitized copy, and must fail exactly where its enforce level applies. Every
pinned gate, row name, single row and scenario is dropped, and every file
gets a zero and a NaN value. Diff mode (--against) shows zero deltas for
identical documents, marks a dropped row `removed`, and keeps the validation
exit code.
Run: python3 scripts/test_check_bench_json.py
"""
import copy
import json
import math
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import check_bench_json as cbj  # noqa: E402

ROOT = os.path.dirname(HERE)
FILES = {"bench_spawn": "BENCH_runtime.json", "bench_alloc_scale": "BENCH_model.json",
         "bench_foreign": "BENCH_foreign.json", "bench_datablock": "BENCH_memory.json",
         "bench_daemon_scale": "BENCH_daemon.json"}
MODES = {"full": (False, False), "quick": (True, False), "full_sanitized": (False, True)}


def load(bench):
    with open(os.path.join(ROOT, FILES[bench]), encoding="utf-8") as f:
        return json.load(f)


def verdict(doc):
    try:
        cbj.check(doc)
        return "PASS"
    except cbj.BenchError:
        return "FAIL"


def find(doc, address):
    """(row, field) addressed by "name@scenario[.field]"."""
    head, _, field = address.partition(".")
    name, scenario = head.split("@")
    row = next(r for r in doc["results"] if (r["name"], r["scenario"]) == (name, scenario))
    return row, field or "value"


def read(doc, address):
    row, field = find(doc, address)
    return row[field]


def push_past(doc, gate):
    """Moves the gated value just past its bound, keeping percentiles monotone."""
    bound = gate["limit"] if "limit" in gate else \
        gate.get("scale", 1) * read(doc, gate["ref"]) + gate.get("offset", 0)
    step = max(abs(bound) * 1e-3, 1e-3)
    value = {"<=": bound + step, ">=": bound - step, "==": bound + 1}[gate["op"]]
    row, field = find(doc, gate["metric"])
    row[field] = value
    if field in cbj.PERCENTILES:
        i = cbj.PERCENTILES.index(field)
        for f in cbj.PERCENTILES[i + 1:]:
            row[f] = max(row[f], value)
        for f in cbj.PERCENTILES[:i]:
            row[f] = min(row[f], value)


def carried(doc, gate):
    """The document's copy of a pinned gate."""
    return next(g for g in doc["gates"] if g["metric"] == gate["metric"])


def loosen(doc, gate):
    """Doubles the gate's allowance: the limit, or the scale on its ref."""
    g = carried(doc, gate)
    key = "limit" if "limit" in g else "scale"
    g[key] = {"<=": g[key] * 2, ">=": g[key] / 2, "==": g[key] + 1}[g["op"]]


def cases():
    """(label, bench, mutate, expected verdict)."""
    out = [(f"committed {FILES[b]}", b, lambda d: None, "PASS") for b in FILES]
    for bench, pin in cbj.PINS.items():
        for gate in pin["gates"]:
            tag = f"{bench} gate {gate['metric']} {gate['op']}"
            for mode, (quick, sanitized) in MODES.items():
                def mutate(d, gate=gate, quick=quick, sanitized=sanitized):
                    push_past(d, gate)
                    d["quick"], d["sanitized"] = quick, sanitized
                doc = {"quick": quick, "sanitized": sanitized}
                expect = "FAIL" if cbj.ENFORCE[gate["enforce"]](doc) else "PASS"
                out.append((f"{tag} past bound [{mode}]", bench, mutate, expect))
            out.append((f"{tag} dropped", bench,
                        lambda d, g=gate: d["gates"].remove(carried(d, g)), "FAIL"))
            out.append((f"{tag} loosened", bench, lambda d, g=gate: loosen(d, g), "FAIL"))
            if gate["enforce"] != "full_unsanitized":
                out.append((f"{tag} enforce weakened", bench,
                            lambda d, g=gate: carried(d, g).update(enforce="full_unsanitized"),
                            "FAIL"))
        for name in pin["names"]:
            out.append((f"{bench} drop rows {name}", bench,
                        lambda d, n=name: d.update(
                            results=[r for r in d["results"] if r["name"] != n]), "FAIL"))
        for name in pin.get("full_names", []):
            for mode in ("full", "quick"):
                def drop(d, n=name, quick=mode == "quick"):
                    d["results"] = [r for r in d["results"] if r["name"] != n]
                    d["quick"] = quick
                out.append((f"{bench} drop rows {name} [{mode}]", bench, drop,
                            "PASS" if mode == "quick" else "FAIL"))
        for scenario in pin.get("scenarios", []):
            out.append((f"{bench} drop scenario {scenario}", bench,
                        lambda d, s=scenario: d.update(
                            results=[r for r in d["results"] if r["scenario"] != s]), "FAIL"))
        for address in pin.get("rows", []):
            out.append((f"{bench} drop row {address}", bench,
                        lambda d, a=address: d["results"].remove(find(d, a)[0]), "FAIL"))
        for name, flag in pin.get("flags", {}).items():
            out.append((f"{bench} drop {flag} flag", bench,
                        lambda d, n=name, f=flag: find(d, f"{n}@8x64x8")[0].pop(f), "FAIL"))
        for bad in (0.0, math.nan):
            out.append((f"{bench} value {bad}", bench,
                        lambda d, v=bad: d["results"][0].update(value=v)
                        if "value" in d["results"][0] else d["results"][0].update(p50=v), "FAIL"))
    out += [
        ("bench_spawn non-monotone percentiles", "bench_spawn",
         lambda d: find(d, "wake@w4")[0].update(p99=40000.0), "FAIL"),
        ("bench_spawn empty distribution", "bench_spawn",
         lambda d: find(d, "steal@w4")[0].update(count=0), "FAIL"),
        ("bench_daemon_scale non-monotone percentiles", "bench_daemon_scale",
         lambda d: find(d, "tick@active_32")[0].update(p50=7000.0), "FAIL"),
        ("bench_foreign duplicate row", "bench_foreign",
         lambda d: d["results"].append(dict(d["results"][0])), "FAIL"),
        ("bench_alloc_scale implausible dimension", "bench_alloc_scale",
         lambda d: d["results"][0].update(scenario="2x8x2048"), "FAIL"),
        ("bench_datablock unknown unit", "bench_datablock",
         lambda d: d["results"][0].update(unit="furlongs"), "FAIL"),
        ("bench_spawn unknown bench", "bench_spawn",
         lambda d: d.update(bench="bench_spawn_v2"), "FAIL"),
        ("bench_spawn unknown schema tag", "bench_spawn",
         lambda d: d.update(schema="numashare-bench/2"), "FAIL"),
    ]
    return out


class CheckBenchJson(unittest.TestCase):
    def test_cases(self):
        committed = {b: load(b) for b in FILES}
        for label, bench, mutate, expect in cases():
            with self.subTest(label):
                doc = copy.deepcopy(committed[bench])
                mutate(doc)
                self.assertEqual(verdict(doc), expect, label)



def run_checker(path, against):
    result = subprocess.run([sys.executable, os.path.join(HERE, "check_bench_json.py"), path,
                             "--against", against], capture_output=True, text=True, check=False)
    return result.returncode, result.stdout


class DiffMode(unittest.TestCase):
    def test_identical_documents_show_zero_deltas(self):
        for bench, name in FILES.items():
            doc = load(bench)
            lines = cbj.diff(doc, doc)
            self.assertEqual(len(lines), len(doc["results"]), name)
            self.assertTrue(all(line.endswith(" +0.0%") for line in lines), name)
            path = os.path.join(ROOT, name)
            code, out = run_checker(path, path)
            self.assertEqual(code, 0, out)
            self.assertNotIn(" added", out)
            self.assertNotIn(" removed", out)

    def test_removed_row_is_marked_and_exit_code_is_validation(self):
        committed = load("bench_spawn")
        changed = copy.deepcopy(committed)
        # Drop a row the validator does not require, so only the diff sees it.
        for i, row in enumerate(changed["results"]):
            trial = copy.deepcopy(changed)
            del trial["results"][i]
            if verdict(trial) == "PASS":
                changed = trial
                break
        else:
            self.fail("every bench_spawn row is required")
        address = f"{row['name']}@{row['scenario']}" + ("" if "value" in row else ".p99")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "new.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(changed, f)
            code, out = run_checker(path, os.path.join(ROOT, FILES["bench_spawn"]))
            self.assertEqual(code, 0, out)
            self.assertIn(f"  {address}: ", out)
            removed = [line for line in out.splitlines() if line.endswith(" removed")]
            self.assertEqual(removed, [line for line in out.splitlines()
                                       if line.startswith(f"  {address}: ")], out)
            # An invalid document still fails with --against.
            changed["results"] = []
            with open(path, "w", encoding="utf-8") as f:
                json.dump(changed, f)
            code, out = run_checker(path, os.path.join(ROOT, FILES["bench_spawn"]))
            self.assertEqual(code, 1, out)


if __name__ == "__main__":
    unittest.main()
