#!/usr/bin/env python3
"""Self-test for scripts/oda_lint.py: each rule must fire on a minimal
synthetic violation and stay quiet on the idiomatic equivalent, and the
ODA-LINT-ALLOW suppression contract (reason required, next-line coverage)
must hold. Run directly or via ctest (lint.selftest); exits non-zero on the
first failed expectation."""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

LINT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "scripts", "oda_lint.py")

FAILURES = []


def run_lint(root: str) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, LINT, "--root", root],
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout + proc.stderr


def expect(cond: bool, label: str, detail: str = "") -> None:
    status = "ok" if cond else "FAIL"
    print(f"  [{status}] {label}")
    if not cond:
        FAILURES.append(label)
        if detail:
            print(detail)


def write_tree(root: str, files: dict[str, str]) -> None:
    for rel, content in files.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)


def case(name: str, files: dict[str, str], expect_rules: set[str],
         forbid_rules: set[str] = frozenset(),
         expect_lines: tuple[str, ...] = ()) -> None:
    print(f"case: {name}")
    with tempfile.TemporaryDirectory() as root:
        write_tree(root, files)
        code, out = run_lint(root)
        if expect_rules:
            expect(code == 1, "exit code signals findings", out)
        else:
            expect(code == 0, "exit code clean", out)
        for rule in sorted(expect_rules):
            expect(f"[{rule}]" in out, f"rule '{rule}' fires", out)
        for rule in sorted(forbid_rules):
            expect(f"[{rule}]" not in out, f"rule '{rule}' stays quiet", out)
        for text in expect_lines:
            expect(text in out, f"finding '{text}' reported", out)


HEADER = "#pragma once\n"


def main() -> int:
    case("raw-mutex: std primitives and headers in src/ are flagged",
         {"src/a.hpp": HEADER + "#include <mutex>\n",
          "src/b.cpp": "#include <shared_mutex>\n"
                       "static std::mutex g_mu;\n"
                       "void f() { std::lock_guard lock(g_mu); }\n",
          "src/c.cpp": "#include <condition_variable>\n"
                       "static std::condition_variable g_cv;\n"},
         {"raw-mutex"})

    case("raw-mutex: sync.hpp itself and non-src trees are exempt",
         {"src/common/sync.hpp": HEADER + "#include <mutex>\n"
                                          "#include <condition_variable>\n",
          "tests/t.cpp": "#include <mutex>\nstatic std::mutex g_mu;\n"},
         set(), {"raw-mutex"})

    case("raw-mutex: the annotated wrappers do not trip the token scan",
         {"src/clean.hpp": HEADER +
          "namespace oda { class Mutex {}; class MutexLock {}; }\n"
          "struct S { oda::Mutex mu; };\n"},
         set(), {"raw-mutex"})

    case("raw-mutex: commented/string occurrences are ignored",
         {"src/doc.hpp": HEADER +
          "// replaces std::mutex with annotated wrappers\n"
          "/* std::lock_guard era */\n"
          "inline const char* k = \"std::condition_variable\";\n"},
         set(), {"raw-mutex"})

    case("raw-mutex: ODA-LINT-ALLOW with a reason suppresses",
         {"src/special.cpp":
          "#include <mutex>  // ODA-LINT-ALLOW(raw-mutex): "
          "self-test fixture exercising the suppression path\n"},
         set(), {"raw-mutex"})

    case("raw-mutex: ODA-LINT-ALLOW without a reason is itself a finding",
         {"src/special.cpp": "#include <mutex>  // ODA-LINT-ALLOW(raw-mutex)\n"},
         {"raw-mutex"})

    case("pragma-once fires on a bare header",
         {"src/h.hpp": "struct S {};\n"}, {"pragma-once"})

    case("naked-new fires, owning containers do not",
         {"src/n.cpp": "int* f() { return new int(3); }\n",
          "src/ok.cpp": "#include <memory>\n"
                        "auto g() { return std::make_unique<int>(3); }\n"},
         {"naked-new"})

    case("atomic-order fires outside src/common, explicit order is clean",
         {"src/x.cpp": "#include <atomic>\nstd::atomic<int> a;\n"
                       "int f() { return a.load(); }\n",
          "src/y.cpp": "#include <atomic>\nstd::atomic<int> b;\n"
                       "int g() { return b.load(std::memory_order_relaxed); }\n"},
         {"atomic-order"})

    case("cout-in-lib fires in src/, not in tests/",
         {"src/p.cpp": "#include <iostream>\nvoid f() { std::cout << 1; }\n",
          "tests/q.cpp": "#include <iostream>\nvoid g() { std::cout << 1; }\n"},
         {"cout-in-lib"})

    case("no-cpp-include fires everywhere",
         {"tests/inc.cpp": "#include <other.cpp>\n"}, {"no-cpp-include"})

    helpers = {
        "src/common/string_util.hpp": HEADER +
        "#include <string>\n#include <string_view>\n"
        "namespace oda {\nstd::string to_lower(std::string_view s);\n}\n",
        "src/obs/exposition.hpp": HEADER +
        "#include <string>\n"
        "namespace oda::obs {\nstd::string json_escape(const std::string& s);\n}\n",
    }

    case("shared-helper: a second definition of a shared helper is flagged",
         {**helpers,
          "src/net/copy.cpp": "#include <string>\nnamespace oda::net {\n"
                              "namespace {\n"
                              "std::string to_lower(std::string s) { return s; }\n"
                              "}  // namespace\n}  // namespace oda::net\n",
          "src/obs/trace.cpp": "#include <string>\nnamespace oda::obs {\n"
                               "std::string json_escape(const std::string& s) {\n"
                               "  return s;\n}\n}  // namespace oda::obs\n"},
         {"shared-helper"})

    case("shared-helper: the helper's own .cpp, calls, declarations, members "
         "and an allowed copy stay quiet",
         {**helpers,
          "src/common/string_util.cpp":
          "#include \"common/string_util.hpp\"\nnamespace oda {\n"
          "std::string to_lower(std::string_view s) { return std::string(s); }\n"
          "}  // namespace oda\n",
          "src/user.cpp": "#include \"common/string_util.hpp\"\n"
                          "std::string to_lower(std::string_view s);\n"
                          "std::string f() { return oda::to_lower(\"A\"); }\n"
                          "struct S {\n  std::string to_lower() const { return {}; }\n};\n",
          "src/net/ows.cpp": "#include <string>\n"
                             "// ODA-LINT-ALLOW(shared-helper): self-test fixture\n"
                             "std::string json_escape(const std::string& s) {\n"
                             "  return s;\n}\n"},
         set(), {"shared-helper"})

    catalog = {
        "src/core/bindings.cpp":
        "void build() {\n"
        "  add(\"kpi.pue\", \"PUE\", \"...\", {}, {}, {});\n"
        "  add(\"pred.spectral\", \"Spectral\", \"...\", {}, {}, {});\n"
        "}\n",
        "src/obs/cell.hpp": HEADER +
        "#define ODA_CELL_SCOPE(capability) (void)(capability)\n",
    }

    case("cell-id: a scope outside the catalog and an id opening two scopes "
         "are flagged",
         {**catalog,
          "src/a/kpi.cpp": "void pue() { ODA_CELL_SCOPE(\"kpi.pue\"); }\n"
                           "void ere() { ODA_CELL_SCOPE(\"kpi.ere\"); }\n",
          "src/b/spectral.cpp":
          "void swings() { ODA_CELL_SCOPE(\"pred.spectral\"); }\n"
          "void again() {\n  ODA_CELL_SCOPE(\"kpi.pue\");\n}\n"},
         {"cell-id"},
         expect_lines=("src/a/kpi.cpp:2: [cell-id]",
                       "src/b/spectral.cpp:3: [cell-id]", ", 2 finding(s)"))

    case("cell-id: one scope per catalog id, the macro definition, comments "
         "and test scopes stay quiet",
         {**catalog,
          "src/a/kpi.cpp": "// ODA_CELL_SCOPE(\"not.a.row\") in a comment\n"
                           "void pue() { ODA_CELL_SCOPE(\"kpi.pue\"); }\n",
          "src/b/spectral.cpp":
          "void swings() { ODA_CELL_SCOPE(\"pred.spectral\"); }\n",
          "tests/t.cpp": "void t() { ODA_CELL_SCOPE(\"unit.cell\"); }\n"},
         set(), {"cell-id"})

    case("production-caller: a header function only tests call is flagged",
         {"src/m/k.hpp": HEADER + "namespace oda {\n"
                         "double orphan(double x);\n"
                         "double used(double x);\n}\n",
          "src/m/k.cpp": "#include \"m/k.hpp\"\nnamespace oda {\n"
                         "double orphan(double x) { return x; }\n"
                         "double used(double x) { return x; }\n}\n",
          "examples/e.cpp": "#include \"m/k.hpp\"\n"
                            "int main() { return oda::used(1.0) > 0; }\n",
          "tests/t.cpp": "#include \"m/k.hpp\"\n"
                         "double t() { return oda::orphan(1.0); }\n"},
         {"production-caller"},
         expect_lines=("src/m/k.hpp:3: [production-caller] orphan()",
                       ", 1 finding(s)"))

    case("production-caller: callers in examples, bench, tickbench and the "
         "own .cpp, members and an allowed test seam stay quiet",
         {"src/m/k.hpp": HEADER + "namespace oda {\n"
                         "double from_example(double x);\n"
                         "double from_bench(double x);\n"
                         "double from_tickbench(double x);\n"
                         "double helper(double x);\n"
                         "double api(double x);\n"
                         "// ODA-LINT-ALLOW(production-caller): test seam\n"
                         "double seam(double x);\n"
                         "struct S {\n  double member(double x) const;\n};\n"
                         "}\n",
          "src/m/k.cpp": "#include \"m/k.hpp\"\nnamespace oda {\n"
                         "double helper(double x) { return x; }\n"
                         "double api(double x) { return helper(x); }\n"
                         "}\n",
          "examples/e.cpp": "double y = oda::from_example(1.0) + oda::api(2.0);\n",
          "bench/b.cpp": "double z = oda::from_bench(1.0);\n",
          "tickbench/f.cpp": "double w = oda::from_tickbench(1.0);\n",
          "tests/t.cpp": "double t() { return oda::seam(1.0); }\n"},
         set(), {"production-caller"})

    print()
    if FAILURES:
        print(f"test_oda_lint: {len(FAILURES)} failed expectation(s)")
        return 1
    print("test_oda_lint: all expectations passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
