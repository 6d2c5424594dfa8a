#!/usr/bin/env python3
"""Fixture suite for tools/wormnet-lint.

Each fixture in tests/lint_fixtures/ is linted with --json and the
result is compared, line by line, against the fixture's own trailing
annotations:

    <code>  // EXPECT: <family>/<kind>
    // EXPECT-FIXIT: <substring>   (binds to the nearest EXPECT above)

The comparison is exact in both directions: an expected diagnostic
that does not fire fails the test, and so does any diagnostic on a
line with no EXPECT — which is what pins the negative cases
(sorted_view escape, unreachable function, justified suppression).

Two behaviours have no natural home in an annotated fixture and are
tested inline against generated files: a bare allow() directive must
itself be an error (justifications are mandatory), and a fully clean
file must exit 0.

Usage: test_wormnet_lint.py <path-to-wormnet-lint> <fixture-dir>
"""

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

EXPECT_RE = re.compile(r"//\s*EXPECT:\s*([\w-]+)/([\w-]+)")
FIXIT_RE = re.compile(r"//\s*EXPECT-FIXIT:\s*(.+?)\s*$")

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def run_lint(lint, args):
    proc = subprocess.run(
        [str(lint)] + args, capture_output=True, text=True
    )
    return proc


def lint_json(lint, path):
    proc = run_lint(lint, ["--json", str(path)])
    try:
        diags = json.loads(proc.stdout)
    except json.JSONDecodeError:
        check(False, f"{path.name}: --json output parses")
        return proc.returncode, []
    return proc.returncode, diags


def parse_expectations(path):
    """-> ({line: set((family, kind))}, {line: fixit_substring})"""
    expects, fixits = {}, {}
    last_expect_line = None
    for lineno, text in enumerate(
        path.read_text().splitlines(), start=1
    ):
        m = EXPECT_RE.search(text)
        if m:
            expects.setdefault(lineno, set()).add((m[1], m[2]))
            last_expect_line = lineno
            continue
        m = FIXIT_RE.search(text)
        if m and last_expect_line is not None:
            fixits[last_expect_line] = m[1]
    return expects, fixits


def run_fixture(lint, path):
    expects, fixits = parse_expectations(path)
    rc, diags = lint_json(lint, path)

    got = {}  # line -> set((family, kind))
    for d in diags:
        got.setdefault(d["line"], set()).add((d["check"], d["kind"]))

    for line in sorted(expects.keys() | got.keys()):
        want = expects.get(line, set())
        have = got.get(line, set())
        for fam, kind in sorted(want - have):
            check(False,
                  f"{path.name}:{line}: expected {fam}/{kind} fires")
        for fam, kind in sorted(have - want):
            check(False,
                  f"{path.name}:{line}: no unexpected {fam}/{kind}")
        if want and want == have:
            named = ", ".join(f"{f}/{k}" for f, k in sorted(want))
            check(True, f"{path.name}:{line}: {named}")

    for line, substr in fixits.items():
        hits = [d for d in diags if d["line"] == line]
        ok = any(substr in d.get("fixit", "") for d in hits)
        check(ok, f"{path.name}:{line}: fixit mentions '{substr}'")

    want_rc = 1 if expects else 0
    check(rc == want_rc,
          f"{path.name}: exit status {rc} == {want_rc}")


def run_inline_cases(lint, tmpdir):
    # A bare allow() is an error even though it still masks the
    # finding it targets: unexplained suppressions rot.
    bare = Path(tmpdir) / "bare_allow.cc"
    bare.write_text(
        "#include <chrono>\n"
        "long f()\n"
        "{\n"
        "    // wormnet-lint: allow(banned-api)\n"
        "    return std::chrono::steady_clock::now()\n"
        "        .time_since_epoch().count();\n"
        "}\n"
    )
    rc, diags = lint_json(lint, bare)
    check(rc == 1, "bare allow(): exit 1")
    check(
        any(d["kind"] == "missing-justification" for d in diags),
        "bare allow(): missing-justification reported",
    )

    clean = Path(tmpdir) / "clean.cc"
    clean.write_text(
        "#include <vector>\n"
        "int sum(const std::vector<int> &v)\n"
        "{\n"
        "    int s = 0;\n"
        "    for (int x : v)\n"
        "        s += x;\n"
        "    return s;\n"
        "}\n"
    )
    proc = run_lint(lint, [str(clean)])
    check(proc.returncode == 0, "clean file: exit 0")

    # --check= restricts to the named family.
    rc, diags = lint_json(lint, bare)
    proc = run_lint(
        lint, ["--check=nondet-iter", "--json", str(bare)]
    )
    only = json.loads(proc.stdout)
    check(
        all(d["check"] != "banned-api" for d in only),
        "--check=nondet-iter masks banned-api findings",
    )


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    lint = Path(sys.argv[1])
    fixture_dir = Path(sys.argv[2])
    if not lint.exists():
        print(f"missing linter binary: {lint}")
        return 2

    fixtures = sorted(fixture_dir.glob("*.cc"))
    check(len(fixtures) >= 2, "at least one fixture per family")
    for path in fixtures:
        run_fixture(lint, path)
    with tempfile.TemporaryDirectory() as tmpdir:
        run_inline_cases(lint, tmpdir)

    print(
        f"\n{len(failures)} failure(s)"
        if failures
        else "\nall lint fixture checks passed"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
