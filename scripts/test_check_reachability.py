#!/usr/bin/env python3
"""Self-test for check_reachability.py on fixture trees.

A header that only its own .cpp and a test include fails and is named; a
header a bench file includes passes; a header reachable only through a dead
header fails with it; and a copy of this repository with a test-only
`common/csv.{hpp,cpp}` put back fails on exactly that header.
Run: python3 scripts/test_check_reachability.py
"""
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SCRIPT = HERE / "check_reachability.py"
TREE_DIRS = ("src", "bench", "examples", "tools", "perfbench", "tests")

CSV_HPP = """#pragma once
#include <ostream>
#include <string>
#include <vector>

namespace numashare {
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& os) : os_(os) {}
  void row(const std::vector<std::string>& cells);
 private:
  std::ostream& os_;
};
}  // namespace numashare
"""
CSV_CPP = """#include "common/csv.hpp"

namespace numashare {
void CsvWriter::row(const std::vector<std::string>& cells) {
  for (const auto& cell : cells) os_ << cell << ',';
  os_ << '\\n';
}
}  // namespace numashare
"""
CSV_TEST = """#include "common/csv.hpp"

#include <gtest/gtest.h>
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

    def test_header_used_only_by_its_cpp_and_a_test_fails(self):
        write(self.root, {
            "src/lib/dead.hpp": "#pragma once\nint dead();\n",
            "src/lib/dead.cpp": '#include "lib/dead.hpp"\nint dead() { return 1; }\n',
            "tests/lib/dead_test.cpp": '#include "lib/dead.hpp"\n',
            "src/lib/live.hpp": "#pragma once\n",
            "tools/main.cpp": '#include "lib/live.hpp"\nint main() {}\n',
        })
        code, out = run(self.root)
        self.assertEqual(code, 1, out)
        self.assertIn("src/lib/dead.hpp", out)
        self.assertNotIn("src/lib/live.hpp", out)

    def test_header_included_by_a_bench_passes(self):
        write(self.root, {
            "src/lib/used.hpp": "#pragma once\nint used();\n",
            "src/lib/used.cpp": '#include "lib/used.hpp"\nint used() { return 1; }\n',
            "bench/bench_used.cpp": '#include "lib/used.hpp"\nint main() {}\n',
        })
        code, out = run(self.root)
        self.assertEqual(code, 0, out)

    def test_header_reached_only_through_a_dead_header_fails(self):
        write(self.root, {
            "src/lib/inner.hpp": "#pragma once\n",
            "src/lib/outer.hpp": '#pragma once\n#include "inner.hpp"\n',
            "src/lib/live.hpp": "#pragma once\n",
            "examples/demo.cpp": '#include "lib/live.hpp"\nint main() {}\n',
            "tests/lib/outer_test.cpp": '#include "lib/outer.hpp"\n',
        })
        code, out = run(self.root)
        self.assertEqual(code, 1, out)
        self.assertIn("src/lib/outer.hpp", out)
        self.assertIn("src/lib/inner.hpp", out)
        self.assertNotIn("src/lib/live.hpp", out)


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

    def test_restoring_csv_fails(self):
        restored = {"src/common/csv.hpp": CSV_HPP, "src/common/csv.cpp": CSV_CPP,
                    "tests/common/csv_test.cpp": CSV_TEST}
        write(self.root, restored)
        try:
            code, out = run(self.root)
        finally:
            for name in restored:
                os.remove(self.root / name)
        self.assertEqual(code, 1, out)
        self.assertIn("src/common/csv.hpp", out)
        self.assertIn("1 header(s)", out)


if __name__ == "__main__":
    unittest.main()
