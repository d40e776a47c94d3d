"""The journey benchmark: what a sharer and a receiver wait for, served.

Run from the repository root::

    python3 perfbench/run.py --workload c1-journeys --seed 1 --seconds 20 --trace 0

Workloads are defined in :mod:`workloads` (``c1-journeys``,
``c2-journeys``, ``dh-sp-mix``). With ``--trace 0`` the run measures the
end-to-end metrics BENCHMARK.json declares, with no instrumentation;
with ``--trace 1`` it runs half the time untraced and half traced (see
:mod:`tracing`) and reports per-layer self times and counts per user op,
plus the tracing overhead.

Timings are calibrated (:mod:`calibrate`): each op's latency is divided
by the machine's slowdown measured around it, so they read as
milliseconds on the reference machine. ``ops_per_s`` follows from the
calibrated latencies (a closed loop with no think time completes one op
per connection per mean op latency). ``teardown_s`` is a wait, not work,
and is reported as measured; so is ``peak_rss_mb``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before
it, starting ``# meta``, records the machine, crypto tier and
calibration loop time the numbers came from. The full report goes to
``.perfbench_out/`` in the repository root: every op kind's and RPC
class's p50/p95/p99, calibrated and raw, with its sample count and
marked unresolved when fewer than ten samples lie beyond it; the error
rate and breakdown; the op log; and, for traced runs, the spans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform as pyplatform
import resource
import statistics
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("c1-journeys", "c2-journeys", "dh-sp-mix")
MIN_BEYOND = 10  # samples a percentile needs past it to count as resolved
JOURNEY_KINDS = ("share", "solve", "deny", "explain", "retract")


def prepare_imports() -> None:
    """Put the checkout's ``src`` first on the path and keep the crypto
    kernel build cache inside the checkout."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit("perfbench: no repro package under %s" % src)
    if src not in sys.path:
        sys.path.insert(0, src)
    os.environ["REPRO_ACCEL_CACHE"] = os.path.join(ROOT, ".perfbench_cache", "accel")


# -- statistics -------------------------------------------------------------------


def percentile(values, q: float):
    """Nearest-rank ``q`` quantile and whether it is resolved, i.e. at
    least :data:`MIN_BEYOND` samples lie beyond it."""
    ordered = sorted(values)
    if not ordered:
        return None, False
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank >= MIN_BEYOND


def summarize(values) -> dict:
    """p50/p95/p99 with the sample count; an unresolved percentile is
    reported as the string ``"unresolved"``, never as a number."""
    summary = {"n": len(values)}
    if values:
        summary["mean"] = round(statistics.fmean(values), 4)
    for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
        value, resolved = percentile(values, q)
        summary[label] = round(value, 4) if resolved else "unresolved"
    return summary


def metadata() -> dict:
    from repro.crypto import accel

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": pyplatform.python_version(),
        "params": "small",
        "crypto_tier": accel.describe()["tier"],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- per-layer metrics -------------------------------------------------------------


def layer_metrics(rec, ops: int, world, frames: int, untraced_rate: float,
                  traced_rate: float) -> dict:
    """Per-user-op self times and counts from one traced window."""
    from tracing import ENGINE_SPAN, OP_PREFIX, RPC_SPAN, covered, layer_of, self_times

    spans = rec.spans
    own = self_times(spans)
    self_ms, calls = {}, {}
    for sid, _parent, _op, name, _start, _end in spans:
        self_ms[name] = self_ms.get(name, 0.0) + own[sid] * 1000.0
        calls[name] = calls.get(name, 0) + 1
    per_op = 1.0 / max(ops, 1)

    def layer_ms(*layers):
        return sum(v for k, v in self_ms.items() if layer_of(k) in layers) * per_op

    def span_ms(*names):
        return sum(self_ms.get(n, 0.0) for n in names) * per_op

    def n_calls(*names):
        return sum(calls.get(n, 0) for n in names) * per_op

    # Fig. 10's split: per op, time blocked on a round trip vs the rest.
    rpc_by_op: dict = {}
    for _sid, _parent, op, name, start, end in spans:
        if name == RPC_SPAN:
            rpc_by_op.setdefault(op, []).append((start, end))
    network = local = 0.0
    attributed_root_self = attributed_root_total = 0.0
    for sid, _parent, op, name, start, end in spans:
        if not name.startswith(OP_PREFIX):
            continue
        blocked = covered(start, end, rpc_by_op.get(op, ()))
        network += blocked
        local += (end - start) - blocked
        if name in (OP_PREFIX + "share", OP_PREFIX + "solve"):
            attributed_root_self += own[sid]
            attributed_root_total += end - start

    h2g_calls = calls.get("crypto.hash_to_group.hash_to_g0", 0)
    cluster = world.platform.cluster
    stats = cluster.storage_stats()
    counts = rec.counts
    return {
        "crypto.hashes.calls_per_op": n_calls("crypto.hashes.digest"),
        "crypto.hashes.self_ms_per_op": layer_ms("crypto.hashes"),
        "crypto.mac.keyed_hash_calls_per_op": n_calls("crypto.mac.keyed_hash"),
        "crypto.modes.self_ms_per_op": layer_ms(
            "crypto.modes", "crypto.aes", "crypto.gibberish"
        ),
        "crypto.modes.bytes_per_op": counts["crypto.modes.bytes"] * per_op,
        "crypto.ec.scalar_muls_per_op": n_calls(
            "crypto.ec.scalar_mul", "crypto.ec.multiply"
        ),
        "crypto.ec.self_ms_per_op": layer_ms("crypto.ec"),
        "crypto.hash_to_group.calls_per_op": h2g_calls * per_op,
        "crypto.hash_to_group.self_ms_per_op": layer_ms("crypto.hash_to_group"),
        "crypto.hash_to_group.distinct_ratio": (
            len(rec.hashed_inputs) / h2g_calls if h2g_calls else 0.0
        ),
        "crypto.pairing.self_ms_per_op": layer_ms("crypto.pairing"),
        "crypto.pairing.miller_states_per_op": counts["pairing.miller_states"] * per_op,
        "crypto.pairing.final_exps_per_op": counts["pairing.final_exps"] * per_op,
        "crypto.shamir.self_ms_per_op": layer_ms("crypto.shamir"),
        "abe.cpabe.self_ms_per_op": layer_ms("abe.cpabe"),
        "policy.self_ms_per_op": layer_ms("policy"),
        "core.self_ms_per_op": layer_ms("core"),
        "proto.client_ms_per_op": layer_ms("proto.client"),
        "proto.codec_ms_per_op": layer_ms("proto.codec"),
        "proto.bytes_per_op": counts["proto.bytes"] * per_op,
        "proto.engine.dispatch_ms_per_op": span_ms(ENGINE_SPAN),
        "proto.engine.error_replies_per_op": counts["proto.error_replies"] * per_op,
        "serve.wire_ms_per_op": span_ms(RPC_SPAN),
        "serve.frames_per_op": frames * per_op,
        "serve.max_in_flight_seen": world.server.metrics.as_dict()["max_in_flight_seen"],
        "cluster.put_ms_per_op": span_ms("cluster.put"),
        "cluster.get_ms_per_op": span_ms("cluster.get", "cluster.get_many"),
        "cluster.read_repairs": counts["cluster.read_repairs"],
        "cluster.hints_stored": sum(len(node.hinted) for node in cluster.nodes),
        "store.put_ms_per_op": span_ms("store.put"),
        "store.get_ms_per_op": span_ms("store.get"),
        "store.physical_bytes_per_user_byte": (
            stats.physical_bytes / stats.payload_bytes if stats.payload_bytes else 0.0
        ),
        "store.compactions": counts["store.compactions"],
        "store.bytes_rewritten": counts["store.bytes_rewritten"],
        "split.local_ms_per_op": local * 1000.0 * per_op,
        "split.network_ms_per_op": network * 1000.0 * per_op,
        "trace.overhead_ratio": untraced_rate / traced_rate if traced_rate else 0.0,
        "trace.attributed_share": (
            1.0 - attributed_root_self / attributed_root_total
            if attributed_root_total
            else 0.0
        ),
    }


def declared(values: dict, section: str) -> dict:
    """``values`` as the contract's metric objects, with the units
    BENCHMARK.json declares; the two must name the same metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    if set(units) != set(values):
        raise RuntimeError(
            "BENCHMARK.json %s and the run disagree on %s"
            % (section, sorted(set(units) ^ set(values)))
        )
    return {name: {"value": values[name], "unit": units[name]} for name in units}


# -- one run -------------------------------------------------------------------------


def ops_per_s(latency: dict, connections: int) -> float:
    """Closed-loop throughput from calibrated op latencies: with no think
    time, each connection completes one op per mean op latency."""
    durations = [ms for values in latency.values() for ms in values]
    return connections * 1000.0 * len(durations) / sum(durations)


def _p50(values: list, kind: str) -> float:
    if not values:
        raise RuntimeError("no %s samples; the run is too short" % kind)
    return statistics.median(values)


def run(workload: str, seed: int, seconds: float, trace: bool,
        max_ops: int | None = None, setup_repeats: int | None = None):
    """One benchmark run; returns ``(result, report)`` where ``result``
    is the contract's JSON object and ``report`` the full breakdown.

    Timings in ``result`` are calibrated (see :mod:`calibrate`) except
    ``teardown_s``, which is a wait, not work; ``report`` keeps the raw
    values and the calibration samples beside them.
    """
    import calibrate
    import workloads
    from tracing import Recorder, install, uninstall

    if workload not in WORKLOADS:
        raise SystemExit("perfbench: unknown workload %r (choose from %s)"
                         % (workload, ", ".join(WORKLOADS)))
    meta = metadata()
    repeats = setup_repeats or workloads.SETUP_REPEATS
    worlds, setup_raw, setup_calibrated = [], [], []
    for _ in range(repeats):
        before = [calibrate.loop_s() for _ in range(3)]
        start = time.perf_counter()
        worlds.append(workloads.start_world(workload, seed, meta["nproc"]))
        elapsed = time.perf_counter() - start
        after = [calibrate.loop_s() for _ in range(3)]
        setup_raw.append(elapsed)
        setup_calibrated.append(elapsed / calibrate.factor(before + after))
    world, spares = worlds[-1], worlds[:-1]
    for spare in spares:
        workloads.close_clients(spare)
    rss_after_setup = peak_rss_mb()

    def window(seconds, recorder=None):
        gate = calibrate.Gate(len(world.streams))
        tally, elapsed = workloads.drive(
            world, time.perf_counter() + seconds, max_ops, recorder, gate
        )
        return tally, elapsed, gate.speed()

    try:
        if not trace:
            tally, elapsed, speed = window(seconds)
        else:
            untraced, _elapsed, untraced_speed = window(seconds / 2)
            rec = Recorder()
            frames_before = world.server.metrics.as_dict()["frames_in"]
            installed = install(rec)
            try:
                tally, elapsed, speed = window(seconds / 2, rec)
            finally:
                uninstall(installed)
            frames = world.server.metrics.as_dict()["frames_in"] - frames_before
    finally:
        # The spares' stops overlap the measured one (each waits out the
        # same listener join), so a run pays the stall once.
        stoppers = [
            threading.Thread(target=spare.server.stop, name="bench-stop")
            for spare in spares
        ]
        for stopper in stoppers:
            stopper.start()
        start = time.perf_counter()
        workloads.close_clients(world)
        world.server.stop()
        teardown = time.perf_counter() - start
        for stopper in stoppers:
            stopper.join()

    slowdown = calibrate.factor(speed.samples)
    meta["calibration_s"] = round(statistics.median(speed.samples), 6)
    latency = {k: speed.calibrate(v) for k, v in tally.latency_ms.items()}
    rpc = {k: speed.calibrate(v) for k, v in tally.rpc_ms.items()}
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "meta": meta,
        "slowdown": slowdown,
        "calibration_samples": speed.samples,
        "setup_s_raw": setup_raw,
        "setup_s_calibrated": setup_calibrated,
        "teardown_s": teardown,
        "ops_per_s_raw": tally.attempted / elapsed,
        "peak_rss_mb_after_setup": rss_after_setup,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / max(tally.attempted, 1),
        "errors": dict(tally.errors.most_common(10)),
        "ops_ms": {k: summarize(v) for k, v in sorted(latency.items())},
        "rpc_ms": {k: summarize(v) for k, v in sorted(rpc.items())},
        "ops_raw_ms": {
            k: summarize([ms for _start, ms in v])
            for k, v in sorted(tally.latency_ms.items())
        },
        "rpc_raw_ms": {
            k: summarize([ms for _start, ms in v])
            for k, v in sorted(tally.rpc_ms.items())
        },
        "op_log": tally.log,
    }

    if trace:
        connections = len(world.streams)
        untraced_rate = ops_per_s(
            {k: untraced_speed.calibrate(v) for k, v in untraced.latency_ms.items()},
            connections,
        )
        traced_rate = ops_per_s(latency, connections)
        per_layer = layer_metrics(rec, tally.attempted, world, frames,
                                  untraced_rate, traced_rate)
        report["per_layer"] = per_layer
        report["spans"] = rec.spans
        metrics = declared(per_layer, "per_layer")
        attempted = untraced.attempted + tally.attempted
        failed = untraced.failed + tally.failed
    else:
        values = {
            "setup_s": statistics.median(setup_calibrated),
            "ops_per_s": ops_per_s(latency, len(world.streams)),
            "peak_rss_mb": peak_rss_mb(),
            "teardown_s": teardown,
        }
        for kind in JOURNEY_KINDS:
            values[kind + "_p50_ms"] = _p50(latency.get(kind), kind)
        for kind in ("read", "write"):
            values[kind + "_p50_ms"] = _p50(rpc.get(kind), kind)
        metrics = declared(values, "end_to_end")
        attempted, failed = tally.attempted, tally.failed
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, report


def write_report(report: dict) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (report["workload"], report["seed"], report["trace"])
    spans = report.pop("spans", None)
    if spans is not None:
        with open(os.path.join(OUT_DIR, stem + ".spans.jsonl"), "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    path = os.path.join(OUT_DIR, stem + ".json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare_imports()
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = write_report(report)
    print("slowdown vs reference: %.3f" % report["slowdown"], file=sys.stderr)
    for kind, summary in report["ops_ms"].items():
        print("%-8s %s" % (kind, summary), file=sys.stderr)
    for kind, summary in report["rpc_ms"].items():
        print("rpc %-4s %s" % (kind, summary), file=sys.stderr)
    for error, n in report["errors"].items():
        print("error x%d: %s" % (n, error), file=sys.stderr)
    print("report: %s" % os.path.relpath(path, ROOT), file=sys.stderr)
    print("# meta " + json.dumps(report["meta"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
