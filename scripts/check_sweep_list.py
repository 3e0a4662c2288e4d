#!/usr/bin/env python3
"""Fails when a test suite that runs seeded schedules is missing from the
`sim-sweep` job of `.github/workflows/ci.yml`.

A schedule written with `support::sweep!` runs a few seeds on the debug
build and many on the release build, and the release run happens only for
the test binaries that job names. A suite left off that list would quietly
run the debug build's few seeds and nothing more.

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


def main():
    missing = sorted(sweeping_suites() - swept_suites())
    for package, test in missing:
        print(f"{package} --test {test} uses sweep! but the sim-sweep job does not run it")
    if missing:
        sys.exit(1)
    print(f"sim-sweep runs all {len(sweeping_suites())} suites that use sweep!")


if __name__ == "__main__":
    main()
