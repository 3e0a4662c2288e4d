#!/usr/bin/env python3
"""Per-workload deltas between two `ledger run --out` files, against the
bounds in BENCHMARK.json: `scripts/bench_diff.py BENCH_20.json BENCH_21.json`.

Prints every end-to-end metric of every workload (base, new, ratio, verdict)
and exits 1 if one is worse than its bound allows. With `--layers`, also the
per-layer metrics that moved by more than 2 % (no bounds: they explain, they
do not gate). One run per side is a trajectory point, not a claim: a gain is
claimed from alternated pairs (ledger/README.md).
"""
import json
import sys
from pathlib import Path


def load(path):
    return json.loads(Path(path).read_text())["workloads"]


def main(argv):
    layers = "--layers" in argv
    paths = [a for a in argv if not a.startswith("--")]
    if len(paths) != 2:
        sys.exit(__doc__)
    base, new = load(paths[0]), load(paths[1])
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    worse = []
    for workload in (w["name"] for w in spec["workloads"]):
        print(workload)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            old = base[workload]["end_to_end"][name]["value"]
            now = new[workload]["end_to_end"][name]["value"]
            ratio = now / old if old else float("inf") if now else 1.0
            # How much worse, as a fraction of the base, in the metric's own direction.
            loss = (1 - ratio) if metric["better"] == "higher" else (ratio - 1)
            verdict = "WORSE" if loss > bound else "ok"
            print(f"  {name:28} {old:14.5g} -> {now:14.5g}  x{ratio:6.3f}  (bound {bound:.0%})  {verdict}")
            if loss > bound:
                worse.append(f"{workload} {name} x{ratio:.3f}")
        if layers:
            for name, cell in new[workload]["per_layer"].items():
                old, now = base[workload]["per_layer"].get(name, {}).get("value", 0), cell["value"]
                if old and abs(now / old - 1) > 0.02:
                    print(f"    {name:30} {old:12.5g} -> {now:12.5g}  x{now / old:6.3f}")
    if worse:
        sys.exit("outside the bound: " + "; ".join(worse))


if __name__ == "__main__":
    main(sys.argv[1:])
