#!/usr/bin/env python3
"""Fails when a test suite that runs seeded schedules is missing from the
`sim-sweep` job of `.github/workflows/ci.yml`, or when a schedule does not
hand its recorded history to the checker.

A schedule written with `support::sweep!` runs a few seeds on the debug
build and many on the release build, and the release run happens only for
the test binaries that job names. A suite left off that list would quietly
run the debug build's few seeds and nothing more.

Whether a run was correct is decided by one checker (`History::judge` in
`crates/corfu/tests/support/history.rs`), not by each schedule's own
assertions: a `sweep!` whose body — or a function of the same file that the
body calls, directly or through others — never calls `.judge(` would judge
nothing.

Usage: python3 scripts/check_sweep_list.py   (from the repository root)
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
CI = ROOT / ".github" / "workflows" / "ci.yml"


def package_of(crate_dir):
    """The package name in `crate_dir`'s Cargo.toml."""
    manifest = (crate_dir / "Cargo.toml").read_text()
    return re.search(r'^name\s*=\s*"([^"]+)"', manifest, re.M).group(1)


def sweeping_suites():
    """(package, test binary) of every integration suite that uses `sweep!`."""
    suites = set()
    for test in sorted(ROOT.glob("crates/*/tests/*.rs")):
        if "sweep!" in test.read_text():
            suites.add((package_of(test.parent.parent), test.stem))
    for test in sorted(ROOT.glob("tests/*.rs")):
        if "sweep!" in test.read_text():
            suites.add((package_of(ROOT), test.stem))
    return suites


def swept_suites():
    """(package, test binary) of every `--test` the `sim-sweep` job runs,
    each under the `-p` before it."""
    text = CI.read_text()
    job = re.search(r"^  sim-sweep:\n(.*?)(?=^  \S|\Z)", text, re.M | re.S)
    if job is None:
        sys.exit(f"{CI}: no sim-sweep job")
    suites, package = set(), None
    for flag, value in re.findall(r"(-p|--test)\s+([\w-]+)", job.group(1)):
        if flag == "-p":
            package = value
        else:
            suites.add((package, value))
    return suites


def balanced(text, start):
    """The text from `start` (an opening bracket) to its matching close."""
    opening, closing = text[start], {"(": ")", "{": "}"}[text[start]]
    depth = 0
    for i in range(start, len(text)):
        if text[i] == opening:
            depth += 1
        elif text[i] == closing:
            depth -= 1
            if depth == 0:
                return text[start : i + 1]
    sys.exit(f"unbalanced {opening!r} at offset {start}")


def unjudged_sweeps():
    """(file, schedule) of every `sweep!` that never reaches `.judge(`."""
    unjudged = []
    for test in sorted(ROOT.glob("crates/*/tests/*.rs")) + sorted(ROOT.glob("tests/*.rs")):
        text = test.read_text()
        functions = {
            m.group(1): balanced(text, text.index("{", m.end()))
            for m in re.finditer(r"\bfn\s+(\w+)\s*[<(]", text)
        }
        for m in re.finditer(r"\bsweep!(\()\s*(\w+)", text):
            reached, pending, judged = set(), [balanced(text, m.start(1))], False
            while pending and not judged:
                body = pending.pop()
                judged = ".judge(" in body
                # Any name of a function of the file: called, or passed on.
                for called in re.findall(r"\b(\w+)\b", body):
                    if called in functions and called not in reached:
                        reached.add(called)
                        pending.append(functions[called])
            if not judged:
                unjudged.append((test.relative_to(ROOT), m.group(2)))
    return unjudged


def main():
    missing = sorted(sweeping_suites() - swept_suites())
    for package, test in missing:
        print(f"{package} --test {test} uses sweep! but the sim-sweep job does not run it")
    unjudged = unjudged_sweeps()
    for test, schedule in unjudged:
        print(f"{test}: sweep!({schedule}, ..) never hands its history to `.judge(`")
    if missing or unjudged:
        sys.exit(1)
    print(
        f"sim-sweep runs all {len(sweeping_suites())} suites that use sweep!, "
        "and every schedule ends in the checker"
    )


if __name__ == "__main__":
    main()
