#!/usr/bin/env python3
"""Per-workload deltas between two `ledger run --out` files, against the
bounds in BENCHMARK.json: `scripts/bench_diff.py BENCH_20.json BENCH_21.json`.

Prints every end-to-end metric of every workload (base, new, ratio, verdict)
and exits 1 if one is worse than its bound allows. With `--layers`, also the
per-layer metrics that moved by more than 2 % (no bounds: they explain, they
do not gate). One run per side is a trajectory point, not a claim: a gain is
claimed from alternated pairs (ledger/README.md).

`scripts/bench_diff.py --counts ledger-quick.json` checks one traced run
against the counts that repeat exactly for a seed, which is what CI holds a
commit to: a saving that drops a hop, writes a page twice or re-reads one
fails here, not in a later benchmark.
"""
import json
import statistics
import sys
from pathlib import Path


def load(path):
    return json.loads(Path(path).read_text())["workloads"]


def require(holds, otherwise):
    if not holds:
        sys.exit(f"count check failed: {otherwise}")


def check_counts(path):
    workloads = load(path)
    layer = lambda workload, name: workloads[workload]["per_layer"][name]["value"]

    # An append is a token and a two-hop chain write that puts one page on
    # each replica.
    for name in ("append_local", "append_tcp"):
        calls, pages = layer(name, "rpc.calls_per_op"), layer(name, "flash.pages_written_per_op")
        print(f"{name}: rpc.calls_per_op {calls}, flash.pages_written_per_op {pages}")
        require(calls == 3, f"{name}: an append made {calls} RPCs, not 3")
        require(pages == 2, f"{name}: an append wrote {pages} pages, not 2")

    # A commit is one sequencer call: the token grant is its stream sync (the
    # ratio was 2 while `end_tx` followed its append with a tail query).
    calls = layer("tx_mix_tcp", "corfu.seq.calls_per_op")
    attempts = layer("tx_mix_tcp", "core.tx_attempts_per_commit")
    print(f"corfu.seq.calls_per_op {calls:.4f}, core.tx_attempts_per_commit {attempts:.4f}")
    require(attempts > 0, "tx_mix_tcp reported no transaction attempts")
    require(calls <= attempts + 0.01, "more than one sequencer call per transaction attempt")

    # A cold replay walks its stream up to 1 024 entries to the round trip
    # and reads each of the stream's pages once: chases of 256 pages read
    # 0.0047 calls per entry and a batch mean of 233, replies back at 32
    # entries 0.032 and 31.6; a chase that reads the other stream's pages,
    # or a page twice, more than one page per entry. The whole replay of
    # 2 560 entries is 9 round trips: 2 to a majority of the layout replicas
    # (6 while the layout was read in a tail round and a read round to all
    # three), 2 to the sequencer (3 while opening a known name checked the
    # tail) and 5 to storage nodes (12 with 256-page chases).
    calls = layer("catchup_tcp", "corfu.storage.calls_per_op")
    reads = layer("catchup_tcp", "flash.reads_per_op")
    batch = layer("catchup_tcp", "stream.read_batch_mean")
    replay_rpcs = round(layer("catchup_tcp", "rpc.calls_per_op") * 2560, 6)
    replay_meta = round(layer("catchup_tcp", "meta.calls_per_op") * 2560, 6)
    print(f"catchup_tcp: corfu.storage.calls_per_op {calls:.4f}, flash.reads_per_op {reads:.5f}, stream.read_batch_mean {batch:.1f}, per replay {replay_rpcs:g} RPCs, {replay_meta:g} to layout replicas")
    require(calls <= 0.003, f"a replayed entry cost {calls} storage calls, more than 3 in 1 000")
    require(reads <= 1.01, f"a replayed entry cost {reads} page reads")
    require(batch >= 500, f"a read round trip brought {batch} entries")
    require(replay_rpcs <= 9, f"a replay made {replay_rpcs} RPCs, more than 9")
    require(replay_meta <= 2, f"a replay made {replay_meta} layout calls, more than 2")

    # Every put of `read_mostly_tcp` is two pages written and one read, by the
    # other client; the reads beyond that are a reader's walk chased back
    # through entries it already has. Printed, not held to a bound: at quick
    # scale it is a handful of events.
    reads = layer("read_mostly_tcp", "flash.reads_per_op")
    written = layer("read_mostly_tcp", "flash.pages_written_per_op")
    print(f"read_mostly_tcp: excess reads per op {reads - written / 2:.6f} (flash.reads_per_op {reads:.5f})")

    # Metrics, tracing and the journal have a budget of 5 % of an in-process
    # append (a metered client against a `Registry::disabled()` one, paired
    # blocks). Every workload's traced run measures that rung again, so the
    # file holds five readings; one quick-mode reading spreads over several
    # points, their median over about one, which is the slack allowed here.
    name = "metrics.append_overhead_pct"
    readings = {w: layer(w, name) for w in workloads}
    overhead = statistics.median(readings.values())
    print(f"{name}: median {overhead:.2f} of", {w: round(v, 2) for w, v in readings.items()})
    require(len(readings) == 5 and overhead <= 6.5, f"metering an append costs {overhead:.2f} %")


def main(argv):
    layers = "--layers" in argv
    paths = [a for a in argv if not a.startswith("--")]
    if "--counts" in argv and len(paths) == 1:
        return check_counts(paths[0])
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
