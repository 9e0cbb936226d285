#!/usr/bin/env python3
"""swve benchmark: one command, four workloads, golden-checked outputs.

    python3 swvebench/run.py --workload search|batch|pairs|serve \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the library and the
benchmark executable (swvebench/src) with CMake into .bench_build/ (or
$CARGO_TARGET_DIR); raw results, spans and the per-seed exact counts go to
.bench_out/. Every metric is printed as "name = value unit"; the last line
of standard output is one JSON object with correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1). The exit status is non-zero when any output disagrees with the
golden model, or when the exact per-layer counts differ from an earlier run
of the same seed. See swvebench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search", "batch", "pairs", "serve")
# Tail percentile of latency_tail_ms per workload: the highest with at
# least stats.MIN_BEYOND samples beyond it at each workload's per-operation
# cost on a host a third slower than the reference one (where batch makes
# 60-75 calls in a 16 s run), except serve, where p99 of ~1,200 requests
# rests on which few cache misses queue behind one another and spreads
# more between runs than any bound allows. A run with fewer samples beyond
# its tail fails.
TAIL = {"search": 90.0, "batch": 75.0, "pairs": 99.0, "serve": 90.0}
SERVE_LIMIT_MS = 300.0
# Fresh benchmark processes per untraced run (README "Processes"). pairs,
# one thread with little set-up, runs more and shorter ones: its speed
# moves most from process to process.
PROCESSES = {"search": 3, "batch": 3, "pairs": 8, "serve": 3}
DEADLINE_S = 170.0   # everything after the build

# Metric names and units come from BENCHMARK.json, the benchmark's contract.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Exact counts that must repeat run to run for one seed.
EXACT_COUNTS = ("lanes", "cells8", "useful_cells8", "rescored",
                "rescored_cells", "cells", "scalar_cells", "width_retries",
                "retried_pairs", "pairs")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "swvebench"


def build():
    """Configure once, then let the build tool bring the binary up to date.
    Returns the binary's path; raises on failure."""
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(os.cpu_count() or 2)
        if not (bdir / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(bdir), "--target", "swvebench",
                        "-j", jobs], check=True, stdout=sys.stderr)
    return bdir / "swvebench"


def run_bench(binary, args, deadline):
    left = deadline - time.monotonic()
    if left <= 5:
        raise TimeoutError("no time left for the benchmark process")
    proc = subprocess.run([str(binary)] + args, stdout=sys.stderr,
                          timeout=left)
    if proc.returncode != 0:
        raise RuntimeError(f"swvebench exited with {proc.returncode}")


def read_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            i, parent, req, name, start, end, replayed = line.rstrip("\n").split("\t")
            spans.append({"id": int(i), "parent": int(parent),
                          "request": int(req), "name": name,
                          "start": float(start), "end": float(end),
                          "replayed": replayed == "1"})
    return spans


# ----------------------------------------------------------- end to end

def measured(raw, traced=False, role="nominal"):
    """The phases metrics come from. Serve phases carry a role: "ladder"
    rungs, cache "prime" (attempted and checked, never measured) and the
    "nominal" step; the scan and pairs phases have none."""
    return [p for p in raw["phases"] if bool(p["traced"]) == traced
            and p["extra"].get("role", "nominal") == role]


def latencies(ph):
    """Per-operation latencies (ms) of a phase; -1 marks a failure. Serve
    requests are timed from their due time (open loop); the closed-loop
    workloads time each call from its start."""
    x = ph["extra"]
    if "done_ms" in x:
        return stats.due_latencies(x["due_ms"], x["done_ms"])
    return ph["latency_ms"]


def serve_ladder(raws):
    """(rates, p99s, backlogged) of the rate ladder. A rung fails when the
    step was cut or its generator's backlog grew."""
    rates, p99s, backlog = [], [], []
    for raw in raws:
        for ph in measured(raw, role="ladder"):
            x = ph["extra"]
            rates.append(x["rate"])
            p99s.append(stats.percentile(latencies(ph), 99.0))
            backlog.append(x["unsent"] > 0 or stats.backlog_grows(
                x["due_ms"], x["send_ms"], SERVE_LIMIT_MS))
    return rates, p99s, backlog


def end_to_end(raws):
    """End-to-end metrics over the processes of one run: latency samples
    and work are pooled; per-process quantities take the median. Raises
    ValueError when the tail has too few samples beyond it."""
    setups = [raw["setup_s"] for raw in raws]
    w = raws[0]["workload"]
    mains = [ph for raw in raws for ph in measured(raw)]
    lat = [x for ph in mains for x in latencies(ph)]
    wall = sum(ph["wall_s"] for ph in mains)
    m = {"setup_s": stats.median(setups),
         "latency_p50_ms": stats.percentile(lat, 50.0),
         "latency_tail_ms": stats.tail_percentile(lat, TAIL[w]),
         "peak_rss_mb": stats.median([raw["peak_rss_mb"] for raw in raws])}
    notes = [f"latency_tail_ms is p{TAIL[w]:g} of {len(lat)} samples, "
             f"{stats.samples_beyond(len(lat), TAIL[w])} beyond",
             "setup_s samples: " + ", ".join(f"{x:.4f}" for x in setups)]
    if w == "serve":
        m["gcups"] = stats.median([raw["layer"]["service_gcups"] for raw in raws])
        rates, p99s, backlog = serve_ladder(raws)
        m["qps_at_slo"] = stats.qps_at_slo(rates, p99s, backlog, SERVE_LIMIT_MS)
        for r, p, b in zip(rates, p99s, backlog):
            notes.append(f"offered {r:g}/s: p99 {p:.2f} ms"
                         + (", backlog grows" if b else ""))
    else:
        m["gcups"] = sum(ph["useful_cells"] for ph in mains) / wall / 1e9
        m["qps_at_slo"] = sum(ph["ops"] for ph in mains) / wall
    return m, notes


# ------------------------------------------------------------ per layer

def per_layer(raw, spans):
    w = raw["workload"]
    c = raw["counts"]
    host = raw["host"]
    untraced = measured(raw)[0]
    traced = measured(raw, traced=True)[0]
    # A layer this workload does not run reads 0.
    m = {k: 0.0 for k in LAYER_UNITS}

    self_ns, root_ns, residual_ns = stats.self_times(spans)
    roots = sum(1 for s in spans if s["parent"] == 0)
    per_op = {name: ns / roots / 1e6 for name, ns in self_ns.items()} if roots else {}
    m["obs.spans"] = len(spans)
    m["obs.residual_frac"] = residual_ns / root_ns if root_ns else 0.0
    m["obs.trace_overhead_frac"] = (
        stats.median(latencies(traced)) / stats.median(latencies(untraced)) - 1)

    for name in ("core.batch32", "core.rescore", "core.realign", "core.diag",
                 "core.traceback", "align.search", "align.batch"):
        m[name + ".self_ms"] = per_op.get(name, 0.0)

    if w in ("search", "batch"):
        x = traced["extra"]
        if x["replay_kernel_s"] > 0:
            m["core.batch32.gcups"] = x["replay_cells8"] / x["replay_kernel_s"] / 1e9
        m["core.batch32.cells8"] = c["cells8"]
        m["core.batch32.useful_cells8"] = c["useful_cells8"]
        m["core.batch32.packing_efficiency"] = c["useful_cells8"] / c["cells8"]
        m["core.rescore.rescored"] = c["rescored"]
        m["core.rescore.rescored_cells"] = c["rescored_cells"]
        m["core.rescore.lane_frac"] = c["rescored"] / c["lanes"]
        m["core.rescore.cell_frac"] = c["rescored_cells"] / c["useful_cells8"]
        threads = untraced["pool_threads"]
        m["parallel.busy_frac"] = untraced["pool_busy_s"] / (threads * untraced["wall_s"])
    if w == "pairs":
        x = untraced["extra"]
        if x["off_s"] > 0:
            m["core.diag.gcups"] = x["off_cells"] / x["off_s"] / 1e9
        if x["on_s"] > 0:
            m["core.traceback.gcups"] = x["on_cells"] / x["on_s"] / 1e9
        m["core.diag.scalar_cells"] = c["scalar_cells"]
        m["core.diag.width_retries"] = c["width_retries"]
        m["core.diag.scalar_cell_frac"] = c["scalar_cells"] / c["cells"]
        m["core.diag.width_retry_frac"] = c["retried_pairs"] / c["pairs"]
    if w == "serve":
        m.update(serve_layers(raw, traced, untraced))

    attempted = sum(p["ops"] for p in raw["phases"])
    failed = sum(p["failed"] for p in raw["phases"])
    m["failed_frac"] = stats.failed_frac(attempted, failed=failed,
                                         mismatches=raw["mismatches"])
    m["perf.ghz"] = host["ghz"]
    m["perf.ilp_k"] = host["ilp_k"]
    m["perf.nproc"] = host["nproc"]
    m["perf.vector_bits"] = host["vector_bits"]
    m["perf.delivery_id"] = host["delivery_id"]
    return m


def serve_layers(raw, traced, untraced):
    m = {}
    x = traced["extra"]
    kinds, src = x["kind"], x["source"]
    for cls, kind in (("search", 0), ("align", 1)):
        executed = [i for i, k in enumerate(kinds) if k == kind and src[i] == 0]
        for field, key in (("queue_ms", "queue_wait_ms"), ("exec_ms", "exec_ms")):
            vals = [x[field][i] for i in executed]
            for p in (50, 99):
                m[f"service.{cls}.{key}.p{p}"] = (
                    stats.percentile(vals, p) if vals else 0.0)
    # Coalesced waiters carry their leader's server timing: no wire split.
    timed = [i for i, s in enumerate(src) if s in (0, 1)]
    # The trailer is in whole microseconds: clamp rounding below zero.
    wire = [max(0.0, x["rtt_ms"][i] - x["queue_ms"][i] - x["exec_ms"][i]
                - x["serialize_ms"][i]) for i in timed]
    if wire:
        m["net.wire_ms.p50"] = stats.percentile(wire, 50)
        m["net.wire_ms.p99"] = stats.percentile(wire, 99)
        m["net.serialize_ms"] = sum(x["serialize_ms"][i] for i in timed) / len(timed)
    both = [traced, untraced]
    searches = hits = bursts = coalesced = repeats = 0
    lags = []
    for ph in both:
        e = ph["extra"]
        for k, f, r in zip(e["kind"], e["flags"], e["repeat"]):
            f = int(f)
            if k == 0:
                searches += 1
                hits += (f & 4) != 0
                repeats += r
            if k == 2:
                bursts += 1
                coalesced += (f & 8) != 0
        lags += [s - d for d, s in zip(e["due_ms"], e["send_ms"])]
    m["net.cache_hit_frac"] = hits / searches if searches else 0.0
    m["net.repeat_share"] = repeats / searches if searches else 0.0
    m["net.coalesced_frac"] = coalesced / bursts if bursts else 0.0
    m["serve.gen_lag_ms.p99"] = stats.percentile(lags, 99)
    layer = raw["layer"]
    attempted = traced["ops"] + untraced["ops"]
    m["service.rejected_frac"] = layer["rejected_queue_full"] / attempted
    return m


# ------------------------------------------------------------- checking

def check_counts(raw, out_dir, binary):
    """Exact per-layer counts must repeat for one seed: within the run the
    executable compares every call with the first; across runs this compares
    with the counts an earlier run of the same build and seed left behind."""
    counts = {k: v for k, v in raw["counts"].items() if k in EXACT_COUNTS}
    if not counts:
        return True, None
    build_id = hashlib.sha1(Path(binary).read_bytes()).hexdigest()[:12]
    path = out_dir / f"counts-{raw['workload']}-{raw['seed']}-{build_id}.json"
    if path.exists():
        before = json.loads(path.read_text())
        if before != counts:
            return False, f"exact counts differ from an earlier run: {before} vs {counts}"
        return True, None
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    tmp.replace(path)
    return True, None


def plan(workload, seconds, trace):
    """(extra arguments, seconds) of each benchmark process of a run.

    Untraced, PROCESSES[workload] fresh processes share --seconds: the
    score-delivery path and the batch interleave depth are calibrated once
    per process, and pooling processes averages that choice instead of
    letting one coin flip decide a run; setup_s is the median of their
    set-ups. serve keeps its rate ladder in one process (its rungs need
    their length) and pools its nominal-rate samples from PROCESSES more.
    Traced: one process."""
    n = PROCESSES[workload]
    if workload == "serve":
        if trace:
            return [(["--part", "nominal"], seconds)]
        nominal = (["--part", "nominal"], seconds / 2 / n)
        return [(["--part", "ladder"], seconds / 2)] + [nominal] * n
    if trace:
        return [([], seconds)]
    return [([], seconds / n)] * n


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"swvebench: build failed: {e}")
        return 2
    deadline = time.monotonic() + DEADLINE_S

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    raws, spans, temps = [], [], []
    try:
        for k, (part, seconds) in enumerate(plan(args.workload, args.seconds, args.trace)):
            tag = f"{args.workload}-{args.seed}-{os.getpid()}-{k}"
            raw_path = out_dir / f"raw-{tag}.json"
            spans_path = out_dir / f"spans-{tag}.tsv"
            temps += [raw_path, spans_path, Path(f"{raw_path}.log")]
            extra = ["--trace", "1", "--spans", str(spans_path)] if args.trace else []
            run_bench(binary, common + part + ["--seconds", f"{seconds:.6g}",
                                                "--out", str(raw_path)] + extra,
                       deadline)
            raws.append(json.loads(raw_path.read_text()))
            if args.trace:
                spans = read_spans(spans_path)
    except (OSError, RuntimeError, TimeoutError, subprocess.TimeoutExpired,
            ValueError) as e:
        log(f"swvebench: run failed: {e}")
        return 1
    finally:
        for p in temps:
            if p.exists():
                p.unlink()

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} processes {len(raws)}")
    correct = True
    for raw in raws:
        host = raw["host"]
        print(f"host: {host['ghz']:.3f} GHz effective, isa {host['isa']}, "
              f"delivery {host['delivery']}, ilp_k {host['ilp_k']}, "
              f"nproc {host['nproc']}")
        print(f"checked {raw['checked']} outputs against the golden model, "
              f"{raw['mismatches']} mismatches")
        for n in raw["mismatch_notes"]:
            print(f"  MISMATCH {n['note']}")
        counts_ok, counts_note = check_counts(raw, out_dir, binary)
        if counts_note:
            print(f"  MISMATCH {counts_note}")
        correct = correct and raw["mismatches"] == 0 and counts_ok
    print(f"exact counts: {json.dumps(raws[0]['counts'], sort_keys=True)}")
    attempted = sum(p["ops"] for raw in raws for p in raw["phases"])
    failed = sum(p["failed"] for raw in raws for p in raw["phases"]) + \
        sum(raw["mismatches"] for raw in raws)

    if args.trace:
        metrics = per_layer(raws[0], spans)
        units = LAYER_UNITS
    else:
        try:
            metrics, notes = end_to_end(raws)
        except ValueError as e:
            log(f"swvebench: {e}")
            return 1
        units = E2E_UNITS
        for n in notes:
            print(n)
    if set(metrics) != set(units):
        log(f"swvebench: metrics and BENCHMARK.json disagree: "
            f"{sorted(set(metrics) ^ set(units))}")
        return 1
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
