#!/usr/bin/env python3
"""Repo-specific lint pass for ODA-Lib — invariants clang-tidy cannot express.

Rules (suppress a finding with `// ODA-LINT-ALLOW(<rule>): <reason>` on the
offending line or the line directly above it; an empty reason is itself a
lint error):

  pragma-once     every header under src/ contains `#pragma once`
  self-contained  every header under src/ compiles on its own
                  (requires --compiler; skipped otherwise)
  naked-new       no naked `new` / `delete` in src/ — use std::make_unique,
                  std::vector, or another owning container
  atomic-order    every std::atomic access outside src/common/ names an
                  explicit std::memory_order (the concurrency core in
                  src/common/ is exempt: its orders are audited in-place)
  raw-mutex       no raw std:: synchronization primitives (mutex,
                  lock_guard, condition_variable, ...) or their headers in
                  src/ outside src/common/sync.hpp — lock through the
                  annotated oda::Mutex/MutexLock wrappers so the tsa preset
                  can check the locking discipline
  cout-in-lib     no std::cout / std::cerr / printf in library code under
                  src/ — route diagnostics through common/log
                  (src/common/log.* is exempt: it is the logging sink)
  no-cpp-include  no `#include` of a `.cpp` file anywhere in src/, tests/,
                  bench/, or examples/
  shared-helper   no free function in src/ shares its name with a helper
                  declared in one of SHARED_HELPER_HEADERS, outside that
                  header's own .cpp — call the shared helper instead of
                  keeping a second copy
  cell-id         every ODA_CELL_SCOPE in src/ names, as a string literal,
                  a capability id of the catalog in CELL_CATALOG, and no id
                  opens two scopes — the catalog is the one place a cell's
                  grid position is written
  production-caller
                  every namespace-scope function a header under src/
                  declares is named somewhere in PRODUCTION_TREES outside
                  that header and its own definition (a call from its own
                  .cpp counts) — code only tests reach is deleted, or its
                  ALLOW says why it stays (test seam, reference)

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import re
import subprocess
import sys
import tempfile

ALLOW_RE = re.compile(r"//\s*ODA-LINT-ALLOW\((?P<rules>[a-z0-9-,\s]+)\)\s*:?\s*(?P<reason>.*)")

ATOMIC_CALL_RE = re.compile(
    r"\.\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|"
    r"compare_exchange_weak|compare_exchange_strong)\s*\(")
NAKED_NEW_RE = re.compile(r"(?<![\w.])new\s+[A-Za-z_(:]|(?<![\w.])delete\s*(\[\s*\])?\s+?[A-Za-z_(*]")
COUT_RE = re.compile(r"std::cout|std::cerr|(?<![\w:.])printf\s*\(|(?<![\w.])puts\s*\(")
CPP_INCLUDE_RE = re.compile(r"#\s*include\s*[\"<][^\">]*\.cpp[\">]")
RAW_MUTEX_RE = re.compile(
    r"std::(?:recursive_|timed_|recursive_timed_|shared_)?mutex\b"
    r"|std::(?:lock_guard|unique_lock|shared_lock|scoped_lock)\b"
    r"|std::condition_variable(?:_any)?\b"
    r"|#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>")
# A namespace-scope function head: optional specifiers, a return type, the
# name, then "(". Namespace members start in column 0 (namespaces are not
# indented), which keeps class members out.
FUNCTION_HEAD_RE = re.compile(
    r"^(?:static\s+|inline\s+|constexpr\s+|const\s+)*[\w:<>,]+(?:\s*[*&]+)?\s+[*&]?"
    r"(?P<name>\w+)\s*\(", re.M)

# Headers whose free functions are the one copy of a shared helper.
SHARED_HELPER_HEADERS = ("src/common/string_util.hpp", "src/obs/exposition.hpp")

# The capability catalog: each `add("<id>", ...)` call is one row.
CELL_CATALOG = "src/core/bindings.cpp"
CATALOG_ROW_RE = re.compile(r'\badd\(\s*"([^"]+)"')
CELL_SCOPE_RE = re.compile(r"\bODA_CELL_SCOPE\s*\(")
CELL_SCOPE_ID_RE = re.compile(r'\s*"([^"]*)"\s*\)')

# The trees whose code counts as a caller for production-caller: the
# library, the examples, the benches and the facility-tick benchmark.
PRODUCTION_TREES = ("src", "examples", "bench", "tickbench")
IDENT_RE = re.compile(r"\b[A-Za-z_]\w*\b")


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line structure
    so reported line numbers stay accurate."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == "R" and nxt == '"':
                m = re.match(r'R"([^()\s\\]{0,16})\(', text[i:])
                if m:
                    raw_delim = ")" + m.group(1) + '"'
                    state = "raw"
                    out.append(" " * len(m.group(0)))
                    i += len(m.group(0))
                    continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state == "raw":
            if text.startswith(raw_delim, i):
                state = "code"
                out.append(" " * len(raw_delim))
                i += len(raw_delim)
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def allowances(raw_lines: list[str]) -> dict[int, tuple[set[str], str]]:
    """Map 1-based line number -> (allowed rules, reason). An ALLOW on its own
    line also covers the next line."""
    allow: dict[int, tuple[set[str], str]] = {}
    for idx, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group("rules").split(",") if r.strip()}
        reason = m.group("reason").strip()
        allow[idx] = (rules, reason)
        if line.strip().startswith("//"):  # standalone comment covers next line
            allow[idx + 1] = (rules, reason)
    return allow


def is_allowed(allow, lineno: int, rule: str, findings: list, path: str) -> bool:
    entry = allow.get(lineno)
    if not entry or rule not in entry[0]:
        return False
    if not entry[1]:
        findings.append(Finding(path, lineno, rule,
                                "ODA-LINT-ALLOW requires a written justification"))
    return True


def function_definitions(stripped: str):
    """Yield (line, name) for each namespace-scope function definition in
    comment- and string-stripped source (a head followed by a body, not a
    declaration ending in ';')."""
    for m in FUNCTION_HEAD_RE.finditer(stripped):
        depth, i = 0, m.end() - 1
        while i < len(stripped):
            if stripped[i] == "(":
                depth += 1
            elif stripped[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        while i < len(stripped) and stripped[i] not in "{;":
            i += 1
        if i < len(stripped) and stripped[i] == "{":
            yield stripped.count("\n", 0, m.start()) + 1, m.group("name")


def shared_helpers(root: str) -> dict[str, str]:
    """Map helper name -> its header, for every function the shared helper
    headers declare."""
    helpers: dict[str, str] = {}
    for header in SHARED_HELPER_HEADERS:
        path = os.path.join(root, header)
        if not os.path.isfile(path):
            continue
        with open(path, encoding="utf-8", errors="replace") as f:
            stripped = strip_comments_and_strings(f.read())
        for m in FUNCTION_HEAD_RE.finditer(stripped):
            helpers.setdefault(m.group("name"), header)
    return helpers


def catalog_ids(root: str) -> set[str]:
    """The capability ids the catalog registers (empty when it is absent)."""
    path = os.path.join(root, CELL_CATALOG)
    if not os.path.isfile(path):
        return set()
    with open(path, encoding="utf-8", errors="replace") as f:
        return set(CATALOG_ROW_RE.findall(f.read()))


def cell_scopes(raw_lines: list[str], stripped_lines: list[str]):
    """Yield (line, id) for each ODA_CELL_SCOPE use in code; id is None when
    the argument is not a single string literal. The macro's own #define is
    not a use."""
    for lineno, line in enumerate(stripped_lines, start=1):
        if line.lstrip().startswith("#"):
            continue
        for m in CELL_SCOPE_RE.finditer(line):
            literal = CELL_SCOPE_ID_RE.match(raw_lines[lineno - 1], m.end())
            yield lineno, literal.group(1) if literal else None


def check_cell_ids(root: str, rels: list[str]) -> list[Finding]:
    """cell-id: each scope names a catalog row, and each row at most once."""
    ids = catalog_ids(root)
    findings: list[Finding] = []
    first_scope: dict[str, str] = {}
    for rel in rels:
        if not rel.startswith("src/"):
            continue
        with open(os.path.join(root, rel), encoding="utf-8", errors="replace") as f:
            raw = f.read()
        if "ODA_CELL_SCOPE" not in raw:
            continue
        raw_lines = raw.splitlines()
        allow = allowances(raw_lines)
        stripped_lines = strip_comments_and_strings(raw).splitlines()
        for lineno, cid in cell_scopes(raw_lines, stripped_lines):
            if is_allowed(allow, lineno, "cell-id", findings, rel):
                continue
            where = f"{rel}:{lineno}"
            if cid is None:
                message = "ODA_CELL_SCOPE takes one string literal"
            elif cid not in ids:
                message = f"'{cid}' is not a capability id in {CELL_CATALOG}"
            elif cid in first_scope:
                message = f"'{cid}' already opens a scope at {first_scope[cid]}"
            else:
                first_scope[cid] = where
                continue
            findings.append(Finding(rel, lineno, "cell-id", message))
    return findings


def check_production_callers(root: str) -> list[Finding]:
    """production-caller: a free function declared in a src/ header whose
    name no other production file mentions has only tests for callers."""
    users: dict[str, set[str]] = {}  # identifier -> files naming it in code
    sources: dict[str, str] = {}  # rel -> stripped text
    headers: dict[str, str] = {}  # rel -> raw text
    for top in PRODUCTION_TREES:
        for dirpath, _, names in os.walk(os.path.join(root, top)):
            for name in names:
                if not name.endswith((".hpp", ".h", ".cpp", ".cc")):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, name), root)
                with open(os.path.join(root, rel), encoding="utf-8",
                          errors="replace") as f:
                    raw = f.read()
                sources[rel] = strip_comments_and_strings(raw)
                for ident in set(IDENT_RE.findall(sources[rel])):
                    users.setdefault(ident, set()).add(rel)
                if top == "src" and name.endswith((".hpp", ".h")):
                    headers[rel] = raw
    findings: list[Finding] = []
    for rel, raw in sorted(headers.items()):
        stripped = sources[rel]
        impl = os.path.splitext(rel)[0] + ".cpp"
        own_idents = IDENT_RE.findall(stripped)
        impl_idents = IDENT_RE.findall(sources.get(impl, ""))
        allow = allowances(raw.splitlines())
        for m in FUNCTION_HEAD_RE.finditer(stripped):
            name = m.group("name")
            if m.group(0).split()[0] in ("class", "struct") or name.isupper():
                continue  # a class head with an attribute macro
            # Mentions in the header and its .cpp beyond the declaration and
            # the definition are calls (or macro bodies) there.
            in_impl = impl_idents.count(name)
            inside = own_idents.count(name) + in_impl - 1 - (1 if in_impl else 0)
            if inside > 0 or users.get(name, set()) - {rel, impl}:
                continue
            lineno = stripped.count("\n", 0, m.start()) + 1
            if not is_allowed(allow, lineno, "production-caller", findings, rel):
                findings.append(Finding(rel, lineno, "production-caller",
                                        f"{name}() has no caller outside "
                                        "tests; delete it or say why it stays"))
    return findings


def lint_file(root: str, rel: str, compiler: str | None, include_dir: str,
              helpers: dict[str, str]) -> list[Finding]:
    path = os.path.join(root, rel)
    findings: list[Finding] = []
    with open(path, encoding="utf-8", errors="replace") as f:
        raw = f.read()
    raw_lines = raw.splitlines()
    allow = allowances(raw_lines)
    stripped_lines = strip_comments_and_strings(raw).splitlines()

    in_src = rel.startswith("src/")
    in_common = rel.startswith("src/common/")
    is_header = rel.endswith((".hpp", ".h"))
    is_log_impl = rel in ("src/common/log.hpp", "src/common/log.cpp")

    if in_src and is_header and "#pragma once" not in raw:
        findings.append(Finding(rel, 1, "pragma-once", "header lacks #pragma once"))

    for lineno, line in enumerate(stripped_lines, start=1):
        if CPP_INCLUDE_RE.search(line):
            if not is_allowed(allow, lineno, "no-cpp-include", findings, rel):
                findings.append(Finding(rel, lineno, "no-cpp-include",
                                        "translation units must not include .cpp files"))
        if not in_src:
            continue
        if NAKED_NEW_RE.search(line):
            if not is_allowed(allow, lineno, "naked-new", findings, rel):
                findings.append(Finding(rel, lineno, "naked-new",
                                        "naked new/delete; use an owning container "
                                        "or std::make_unique"))
        if rel != "src/common/sync.hpp" and RAW_MUTEX_RE.search(line):
            if not is_allowed(allow, lineno, "raw-mutex", findings, rel):
                findings.append(Finding(rel, lineno, "raw-mutex",
                                        "raw std:: synchronization primitive; "
                                        "use oda::Mutex/MutexLock from "
                                        "common/sync.hpp (tsa-checked)"))
        if not is_log_impl and COUT_RE.search(line):
            if not is_allowed(allow, lineno, "cout-in-lib", findings, rel):
                findings.append(Finding(rel, lineno, "cout-in-lib",
                                        "library code must log via common/log, "
                                        "not write to stdio directly"))
        if not in_common:
            for m in ATOMIC_CALL_RE.finditer(line):
                # Only flag accesses that are plausibly atomics: the repo
                # convention is that these member names are atomic-only.
                args = line[m.end():]
                if "memory_order" in args:
                    continue
                if is_allowed(allow, lineno, "atomic-order", findings, rel):
                    continue
                findings.append(Finding(rel, lineno, "atomic-order",
                                        f".{m.group(1)}() without an explicit "
                                        "std::memory_order argument"))

    if in_src:
        for lineno, name in function_definitions("\n".join(stripped_lines)):
            header = helpers.get(name)
            if header is None or rel == header[:-len(".hpp")] + ".cpp":
                continue
            if not is_allowed(allow, lineno, "shared-helper", findings, rel):
                findings.append(Finding(rel, lineno, "shared-helper",
                                        f"second copy of {name}(); call the "
                                        f"one declared in {header}"))

    if in_src and is_header and compiler:
        findings.extend(check_self_contained(root, rel, compiler, include_dir))
    return findings


def check_self_contained(root: str, rel: str, compiler: str,
                         include_dir: str) -> list[Finding]:
    """A header is self-contained iff a TU consisting of just that #include
    compiles."""
    with tempfile.NamedTemporaryFile("w", suffix=".cpp", delete=False) as tu:
        header = os.path.relpath(os.path.join(root, rel),
                                 os.path.join(root, include_dir))
        tu.write(f'#include "{header}"\nint oda_lint_anchor_;\n')
        tu_path = tu.name
    try:
        proc = subprocess.run(
            [compiler, "-std=c++20", "-fsyntax-only",
             "-I", os.path.join(root, include_dir), tu_path],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            detail = proc.stderr.strip().splitlines()
            snippet = detail[0] if detail else "compiler error"
            return [Finding(rel, 1, "self-contained",
                            f"header does not compile standalone: {snippet}")]
        return []
    finally:
        os.unlink(tu_path)


def gather_files(root: str) -> list[str]:
    rels = []
    for top in ("src", "tests", "bench", "examples"):
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith((".hpp", ".h", ".cpp", ".cc")):
                    rels.append(os.path.relpath(os.path.join(dirpath, name), root))
    return sorted(rels)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), help="repository root")
    ap.add_argument("--compiler", default=None,
                    help="C++ compiler for the self-contained header check "
                         "(omitted => that rule is skipped)")
    ap.add_argument("--include-dir", default="src",
                    help="include root passed to the compiler")
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    args = ap.parse_args()

    root = os.path.abspath(args.root)
    files = gather_files(root)
    if not files:
        print("oda_lint: no sources found under", root, file=sys.stderr)
        return 2

    helpers = shared_helpers(root)
    findings: list[Finding] = []
    with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
        futures = [pool.submit(lint_file, root, rel, args.compiler,
                               args.include_dir, helpers) for rel in files]
        for fut in futures:
            findings.extend(fut.result())
    findings.extend(check_cell_ids(root, files))
    findings.extend(check_production_callers(root))

    for f in sorted(findings, key=lambda f: (f.path, f.line)):
        print(f)
    checked_rules = 9 + (1 if args.compiler else 0)
    print(f"oda_lint: {len(files)} files, {checked_rules} rules, "
          f"{len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
