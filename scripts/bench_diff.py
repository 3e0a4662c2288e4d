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

`scripts/bench_diff.py --ladder BENCH_41.json` prints where an operation's
time goes in one traced run, rung by rung of the cost ladder (wire codec →
flash unit → storage handler → RPC → stream sync → runtime apply → tx
commit), as the markdown table EXPERIMENTS.md carries: each rung alone (the
median of the five workloads' ladder readings) and in situ, per operation
of each workload.
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


def ladder(path):
    workloads = load(path)
    names = list(workloads)
    cell = lambda w, name: workloads[w]["per_layer"].get(name, {}).get("value", 0)
    e2e = lambda w, name: workloads[w]["end_to_end"][name]["value"]
    alone = lambda name: statistics.median(cell(w, name) for w in names)

    def rpc(w, kind):
        calls = cell(w, f"corfu.{kind}.calls_per_op")
        if not calls:
            return "—"
        p50, share = cell(w, f"corfu.{kind}.call_p50_us"), cell(w, f"corfu.{kind}.call_share")
        return f"{calls:.3g} × {num(p50)} µs ({share:.0%})"

    def some(value, text):
        return text if value else "—"

    def num(value):
        return f"{value:,.0f}".replace(",", " ") if value >= 100 else f"{value:.3g}"

    rows = [
        ("wire codec", f"encode {alone('wire.encode_entry_ns'):.0f} / decode {alone('wire.decode_entry_ns'):.0f} ns, CRC 4 KiB {alone('wire.crc32c_4k_ns'):.0f} ns",
         lambda w: f"{cell(w, 'rpc.req_bytes_per_op'):.0f} / {cell(w, 'rpc.resp_bytes_per_op'):.0f} B"),
        ("flash unit", f"write {alone('flash.write_ns'):.0f}, read {alone('flash.read_ns'):.0f}, cold read {alone('flash.tiered_cold_read_ns'):.0f} ns",
         lambda w: f"{cell(w, 'flash.pages_written_per_op'):.3g} written, {cell(w, 'flash.reads_per_op'):.3g} read"),
        ("storage handler", f"write {alone('corfu.storage.write_handle_ns'):.0f}, read {alone('corfu.storage.read_handle_ns'):.0f}, batch of 32 {alone('corfu.storage.readbatch32_handle_ns'):.0f} ns; sequencer {alone('corfu.seq.process_ns'):.0f} ns",
         lambda w: some(cell(w, "corfu.storage.handler_ns"), f"storage {cell(w, 'corfu.storage.handler_ns'):.0f}, sequencer {cell(w, 'corfu.seq.handler_ns'):.0f} ns")),
        ("sequencer RPC", f"TCP echo {alone('rpc.tcp_echo_rtt_us'):.1f} µs, in-process {alone('rpc.local_call_ns'):.0f} ns", lambda w: rpc(w, "seq")),
        ("storage RPC", "", lambda w: rpc(w, "storage")),
        ("stream sync", f"{alone('stream.local_sync_entry_ns'):.0f} ns an entry",
         lambda w: some(cell(w, "stream.read_batch_mean"), f"{cell(w, 'stream.read_batch_mean'):.3g} an RPC, {cell(w, 'stream.cache_hit_ratio'):.0%} cached")),
        ("runtime apply", f"{alone('core.local_replay_entry_ns'):.0f} ns an entry",
         lambda w: some(cell(w, "flash.cold_page_share"), f"{1e9 / e2e(w, 'ops_per_s'):.0f} ns an entry, all in")),
        ("tx commit", f"{alone('core.local_tx_commit_us'):.1f} µs",
         lambda w: some(cell(w, "core.tx_commit_p50_us"), f"{cell(w, 'core.tx_commit_p50_us'):.3g} µs, {cell(w, 'core.tx_abort_ratio'):.1%} abort")),
        ("client outside any RPC", "", lambda w: f"{num(cell(w, 'client.self_us'))} µs ({cell(w, 'client.self_share'):.0%})"),
        ("operation: p50 (p99)", "", lambda w: f"{num(e2e(w, 'op_p50_us'))} ({num(cell(w, 'client.op_p99_us'))}) µs"),
        ("operations a second", "", lambda w: f"{num(e2e(w, 'ops_per_s') / 1e3)} K"),
    ]
    print(f"| rung | alone | {' | '.join(f'`{w}`' for w in names)} |")
    print(f"|---|---|{'---|' * len(names)}")
    for rung, by_itself, in_situ in rows:
        print(f"| {rung} | {by_itself} | {' | '.join(in_situ(w) for w in names)} |")


def main(argv):
    layers = "--layers" in argv
    paths = [a for a in argv if not a.startswith("--")]
    if "--counts" in argv and len(paths) == 1:
        return check_counts(paths[0])
    if "--ladder" in argv and len(paths) == 1:
        return ladder(paths[0])
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
