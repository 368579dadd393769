#!/usr/bin/env python3
"""Self-test for check_options.py on fixture trees.

A field only a test assigns fails and is named; a field a bench assigns
passes; this repository passes; and a copy of this repository with
`MonitorOptions::appear_ticks` put back (its test callers too) fails on
exactly that field.
Run: python3 scripts/test_check_options.py
"""
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SCRIPT = HERE / "check_options.py"
TREE_DIRS = ("src", "bench", "examples", "tools", "perfbench", "tests")

KNOBS_HPP = """#pragma once
#include <cstdint>

namespace demo {
struct KnobOptions {
  std::uint32_t period = 4;
  double tuned_only_in_tests = 0.5;
};
}  // namespace demo
"""


def run(root):
    result = subprocess.run([sys.executable, str(SCRIPT), str(root)],
                            capture_output=True, text=True, check=False)
    return result.returncode, result.stdout + result.stderr


def write(root, files):
    for name, text in files.items():
        path = pathlib.Path(root) / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


class FixtureTrees(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.root = pathlib.Path(self.dir.name)

    def tearDown(self):
        self.dir.cleanup()

    def test_field_set_only_by_a_test_fails(self):
        write(self.root, {
            "src/demo/knobs.hpp": KNOBS_HPP,
            "tools/main.cpp": '#include "demo/knobs.hpp"\n'
                              "int main() { demo::KnobOptions o; o.period = 8; }\n",
            "tests/demo/knobs_test.cpp": '#include "demo/knobs.hpp"\n'
                                         "void f() { demo::KnobOptions o;"
                                         " o.tuned_only_in_tests = 0.9; }\n",
        })
        code, out = run(self.root)
        self.assertEqual(code, 1, out)
        self.assertIn("KnobOptions::tuned_only_in_tests", out)
        self.assertNotIn("KnobOptions::period", out)

    def test_field_set_by_a_bench_passes(self):
        write(self.root, {
            "src/demo/knobs.hpp": KNOBS_HPP,
            "bench/bench_knobs.cpp": '#include "demo/knobs.hpp"\n'
                                     "int main() {\n"
                                     "  demo::KnobOptions o{.period = 2,"
                                     " .tuned_only_in_tests = 0.1};\n"
                                     "}\n",
        })
        code, out = run(self.root)
        self.assertEqual(code, 0, out)
        self.assertIn("2 fields in 1 option structs", out)


class RepositoryCopy(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.dir = tempfile.TemporaryDirectory()
        cls.root = pathlib.Path(cls.dir.name)
        keep = {".hpp", ".h", ".cpp", ".cc"}
        for name in TREE_DIRS:
            for path in (ROOT / name).rglob("*"):
                if path.is_file() and path.suffix in keep:
                    target = cls.root / path.relative_to(ROOT)
                    target.parent.mkdir(parents=True, exist_ok=True)
                    shutil.copyfile(path, target)

    @classmethod
    def tearDownClass(cls):
        cls.dir.cleanup()

    def test_repository_passes(self):
        code, out = run(self.root)
        self.assertEqual(code, 0, out)

    def test_restoring_appear_ticks_fails(self):
        header = self.root / "src/foreign/monitor.hpp"
        test = self.root / "tests/foreign/monitor_test.cpp"
        originals = {path: path.read_text() for path in (header, test)}
        anchor = "  bool enforce_fences = false;\n"
        self.assertIn(anchor, originals[header])
        header.write_text(originals[header].replace(
            anchor, anchor + "  std::uint32_t appear_ticks = 2;\n", 1))
        anchor = "  options.scanner.ticks_per_second = 100;\n"
        self.assertIn(anchor, originals[test])
        test.write_text(originals[test].replace(
            anchor, anchor + "  options.appear_ticks = 2;\n", 1))
        try:
            code, out = run(self.root)
        finally:
            for path, text in originals.items():
                path.write_text(text)
        self.assertEqual(code, 1, out)
        self.assertIn("src/foreign/monitor.hpp: MonitorOptions::appear_ticks", out)
        self.assertIn("1 option field(s)", out)


if __name__ == "__main__":
    unittest.main()
