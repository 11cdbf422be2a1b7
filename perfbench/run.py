"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {saturate,cold} --seed N \\
        --seconds S --trace {0,1}

With ``--trace 0`` the run sets up the workload several times (the
median is ``setup_s``), runs one timed phase of ``S`` seconds with no
tracing, checks every answer, and reports the end-to-end metrics. With
``--trace 1`` it splits ``S`` in two: an untraced phase, then a fresh
set-up and a traced phase, and reports the per-layer metrics from the
traced phase's spans; the spans are written to ``perfbench/out/`` as
JSONL.

Every metric is printed by name with its unit. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 1 when the correctness gate
fails, and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")


def declared_units(section: str) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: the host's speed now."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def source_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha():
    # Outside a git checkout, git would search the parent directories.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_record() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "calibration_s": calibration_s(),
    }


def end_to_end(phase, setup_s: float):
    """The end-to-end metrics of one untraced phase, and its sample size."""
    from perfbench.drivers import latencies, percentile

    answered = sum(1 for o in phase.outcomes if o.ok)
    sample = latencies(phase.outcomes)
    p50, _ = percentile(sample, 0.50)
    p99, beyond = percentile(sample, 0.99)
    metrics = {
        "setup_s": setup_s,
        "throughput_rps": answered / phase.wall_s,
        "latency_p50_ms": 1000.0 * p50,
        "latency_p99_ms": 1000.0 * p99,
        "cpu_ms_per_req": 1000.0 * phase.cpu_s / max(1, answered),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"samples": len(sample), "beyond_p99": beyond}


def per_layer(workload, phase, tracer, timings, untraced_cpu_ms) -> dict:
    """The per-layer metrics of one traced phase."""
    from perfbench.drivers import percentile
    from perfbench.spans import LAYERS, layer_breakdown

    answered = max(1, sum(1 for o in phase.outcomes if o.ok))
    spans = tracer.spans
    layers = layer_breakdown(spans)

    def ratio(hits, misses):
        return hits / (hits + misses) if hits + misses else 0.0

    def per_call(layer):
        calls = layers[layer]["calls"]
        return 1000.0 * layers[layer]["busy_s"] / calls if calls else 0.0

    solves = [s for s in spans if s.name == "solve"]
    answers = [o.value for o in phase.outcomes if o.ok]
    submits = [s for s in spans if s.name == "serving.submit"]
    frame_hits = sum(a.frame_hits for a in answers)
    frame_misses = sum(a.frame_misses for a in answers)
    server = phase.server or {}
    traced_cpu_ms = 1000.0 * phase.cpu_s / answered
    metrics = {
        "serving.queue_wait_ms_p50": (
            percentile([a.queue_ms for a in answers], 0.5)[0]
            if workload != "cold" else 0.0
        ),
        "serving.self_ms_per_req": (
            1000.0 * statistics.fmean(
                s.duration - s.attrs.get("batch_s", 0.0) for s in submits
            ) if submits else 0.0
        ),
        "serving.batch_size_mean": (
            server["served"] / server["batches"] if server.get("batches") else 0.0
        ),
        "service.requests_per_extraction": (
            answered / layers["extract"]["calls"] if layers["extract"]["calls"] else 0.0
        ),
        "extract.calls": float(layers["extract"]["calls"]),
        "extract.ms_per_call": per_call("extract"),
        "param_cache.hit_ratio": ratio(**phase.cache_deltas["param_cache"]),
        "solve.calls": float(len(solves)),
        "solve.ms_per_call": (
            1000.0 * layers["solve"]["busy_s"] / len(solves) if solves else 0.0
        ),
        "solve.states_examined_per_solve": (
            statistics.fmean(s.attrs["states"] for s in solves) if solves else 0.0
        ),
        "frontier_cache.hit_ratio": ratio(**phase.cache_deltas["frontier_cache"]),
        "rewrite.ms_per_call": per_call("rewrite"),
        "execute.calls": float(layers["execute"]["calls"]),
        "execute.ms_per_call": per_call("execute"),
        "frame_cache.hit_ratio": ratio(frame_hits, frame_misses),
        "compile.s": timings["compile.s"],
        "snapshot.save_s": timings["snapshot.save_s"],
        "snapshot.boot_s": timings["snapshot.boot_s"],
        "snapshot.bytes": timings["snapshot.bytes"],
        "db.build_s": timings["db.build_s"],
        "trace.overhead_frac": traced_cpu_ms / untraced_cpu_ms - 1.0,
        "trace.self_sum_frac": sum(l["self_s"] for l in layers.values()) / phase.wall_s,
    }
    for layer in LAYERS:
        metrics["%s.self_ms_per_req" % layer] = 1000.0 * layers[layer]["self_s"] / answered
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("saturate", "cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    from perfbench import workloads
    from perfbench.spans import Tracer, install

    os.makedirs(OUT_DIR, exist_ok=True)
    host = host_record()
    env, timings = workloads.set_up_repeated(args.workload)
    seconds = args.seconds / 2 if args.trace else args.seconds
    phase = workloads.run_phase(args.workload, env, args.seed, seconds)
    gates = [workloads.check(args.workload, env, phase, args.seed)]
    phases = [phase]
    metrics, sample = end_to_end(phase, timings["setup_s"])
    section = "end_to_end"
    if args.trace:
        untraced_cpu_ms = metrics["cpu_ms_per_req"]
        env = workloads.set_up(args.workload)
        tracer = Tracer()
        uninstall = install(tracer)
        try:
            traced = workloads.run_phase(
                args.workload, env, args.seed, seconds, tracer=tracer
            )
        finally:
            uninstall()
        gates.append(workloads.check(args.workload, env, traced, args.seed))
        phases.append(traced)
        timings.update(workloads.compile_and_boot(env, OUT_DIR))
        metrics = per_layer(args.workload, traced, tracer, timings, untraced_cpu_ms)
        section = "per_layer"
        tracer.write_jsonl(
            os.path.join(OUT_DIR, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))
        )

    # The host's speed drifts while a run lasts; a second reading after
    # the timed phases brackets it.
    host["calibration_end_s"] = calibration_s()
    units = declared_units(section)
    if set(units) != set(metrics):
        raise RuntimeError(
            "metrics %s do not match BENCHMARK.json's %s"
            % (sorted(metrics), sorted(units))
        )
    attempted = sum(len(p.outcomes) for p in phases)
    failed = sum(1 for p in phases for o in p.outcomes if not o.ok)
    # A rejection is the server's answer under load; any other failure
    # is the program erring.
    crashed = [
        o.error for p in phases for o in p.outcomes
        if not o.ok and not o.error.startswith("AdmissionRejected")
    ]
    correct = not crashed and all(gate.ok for gate in gates)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "setup": timings,
        "latency_sample": sample,
        "gate": [
            {"checked": g.checked, "repeats": g.repeats, "errors": g.errors[:5]}
            for g in gates
        ],
        "errors": crashed[:5],
        "server": [p.server for p in phases],
    }
    with open(
        os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)),
        "w", encoding="utf-8",
    ) as handle:
        json.dump(dict(details, metrics=metrics), handle, indent=2, sort_keys=True)

    print("perfbench %s seed=%d seconds=%g trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("host: %s" % json.dumps(host, sort_keys=True))
    print("requests: attempted=%d failed=%d; untraced latency samples=%d (%d beyond p99)" % (
        attempted, failed, sample["samples"], sample["beyond_p99"]))
    for error in crashed[:5]:
        print("request failed: " + error)
    for gate in gates:
        print("gate: %s, %d keys re-solved, %d repeats checked" % (
            "ok" if gate.ok else "FAILED", gate.checked, gate.repeats))
        for error in gate.errors[:5]:
            print("  " + error)
    for name, value in metrics.items():
        print("  %-36s %14.6g %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            # A percentile over failed requests is infinite: not a JSON number.
            name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
