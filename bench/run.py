"""zenoscope benchmark: seeded closed-loop workloads with per-layer tracing.

Run from the root of a source checkout:

    python3 bench/run.py --workload ensemble --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop: the next operation starts only when the
previous one has finished.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer metrics from a separate traced
run.  ``--workload all`` (the default) runs every workload, each in its own
process, and prints all their metrics.  The last line of standard output is
one JSON object; the full result, and with ``--trace 1`` every span, goes to
``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# single-threaded BLAS/OpenMP, set before numpy is first imported
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("ensemble", "decay", "rates")
DEFAULT_SEED = 20260811
#: set-up (generation plus one warm-up operation of each kind) is repeated
#: this many times and its median reported
SETUP_ROUNDS = 3
#: the tail latency is read where at least this many samples lie beyond it
TAIL_BEYOND = 10


def import_program():
    """Import zenoscope from this checkout's ``src``; None if it is not there."""
    src = ROOT / "src"
    if not (src / "zenoscope" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import zenoscope
    if Path(zenoscope.__file__).resolve().parent != (src / "zenoscope").resolve():
        return None
    return zenoscope


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_revision() -> str | None:
    """Commit of the checkout, read from ``.git`` without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_revision": git_revision(), "seed": seed,
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that
    leaves at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def closed_loop(deck, seconds: float, tracer):
    """Run whole cycles of ``deck`` until about ``seconds`` have passed."""
    latencies, kinds, failures, cycles = [], [], 0, 0
    start = time.perf_counter()
    for cycle in deck:
        for op in cycle:
            tracer.op = len(latencies)
            t0 = time.perf_counter()
            try:
                passed, _ = op.run(tracer)
            except Exception:
                passed = False
                traceback.print_exc()
            latencies.append(time.perf_counter() - t0)
            kinds.append(op.kind)
            failures += not passed
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / cycles >= seconds:
            break
    return {"latencies": latencies, "kinds": kinds, "failures": failures,
            "cycles": cycles, "duration_s": time.perf_counter() - start}


def set_up(ops, tracing, workload: str, seed: int):
    """Repeat generation plus the gate warm-ups; return timings and the gate."""
    rounds, failures, mismatches, digests = [], 0, [], {}
    for _ in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        next(ops.cycles(workload, seed))
        for op in ops.gate_ops(workload):
            passed, outputs = op.run(tracing.NullTracer())
            failures += not passed
            digests[op.kind] = ops.digest(outputs)
        mismatches = ops.gate_mismatches(digests, ops.PINNED_DIGESTS.get(workload, {}))
        rounds.append(time.perf_counter() - t0)
    return {"rounds_s": rounds, "warmup_failures": failures,
            "digests": digests, "gate_mismatches": mismatches}


def probes(ops, tracing, workload: str, seed: int, modules) -> tuple[dict, bool]:
    """Traced-run extras: tracing overhead, RNG set-up floor, pool speed-up."""
    from zenoscope import AtomState, child_seed, make_rng, run_ensemble

    # tracing overhead: replay the first cycle, each operation untraced then traced
    untraced_s = traced_s = 0.0
    for op in next(ops.cycles(workload, seed)):
        t0 = time.perf_counter()
        op.run(tracing.NullTracer())
        untraced_s += time.perf_counter() - t0
        scratch = tracing.Tracer()
        with tracing.layer_boundaries(scratch, modules):
            t0 = time.perf_counter()
            op.run(scratch)
            traced_s += time.perf_counter() - t0

    # the seed's first driven ensemble operation, serial and across nproc workers
    probe = next(op for op in next(ops.cycles("ensemble", seed)) if op.kind == "driven")
    p = probe.params
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        for i in range(p["n_traj"]):
            make_rng(child_seed(p["master_seed"], i)).random(p["cfg"].n_steps)
        samples.append((time.perf_counter() - t0) / p["n_traj"])
    args = (AtomState.excited(), p["cfg"], p["a_bar"], p["n_traj"], p["master_seed"])
    pool_speedup, identical = None, True
    if "n_jobs" in inspect.signature(run_ensemble).parameters:
        t0 = time.perf_counter()
        serial = run_ensemble(*args)
        serial_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        pooled = run_ensemble(*args, n_jobs=nproc())
        pool_speedup = serial_s / (time.perf_counter() - t0)
        identical = (serial.p_e_mean.tobytes() == pooled.p_e_mean.tobytes()
                     and serial.jump_counts.tobytes() == pooled.jump_counts.tobytes())
    return {"trace.overhead_s": traced_s - untraced_s,
            "trajectories.rng_setup_us": statistics.median(samples) * 1e6,
            "trajectories.pool_speedup": pool_speedup}, identical


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    spec = load_spec()
    t0 = time.perf_counter()
    zenoscope = import_program()
    if zenoscope is None:
        print(f"error: no zenoscope sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import ops
    import tracing
    import_s = time.perf_counter() - t0

    setup = set_up(ops, tracing, workload, seed)
    setup_s = import_s + statistics.median(setup["rounds_s"])
    modules = {"volterra": zenoscope.volterra, "rates": zenoscope.rates}

    tracer = tracing.Tracer() if trace else tracing.NullTracer()
    deck = ops.cycles(workload, seed)
    if trace:
        with tracing.layer_boundaries(tracer, modules):
            loop = closed_loop(deck, seconds, tracer)
    else:
        loop = closed_loop(deck, seconds, tracer)

    latencies = loop["latencies"]
    attempted, failed = len(latencies), loop["failures"]
    tail_s, tail_pct, tail_beyond = tail(latencies)
    values = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "ops_per_s": attempted / loop["duration_s"],
        "failed_ratio": failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    pool_identical = True
    if trace:
        values = tracing.layer_metrics(tracer, sum(latencies))
        extra, pool_identical = probes(ops, tracing, workload, seed, modules)
        values.update(extra)

    correct = (failed == 0 and setup["warmup_failures"] == 0
               and not setup["gate_mismatches"] and pool_identical)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}

    kinds = sorted(set(loop["kinds"]))
    result = {
        "workload": workload, "seconds": seconds, "trace": int(trace),
        "environment": environment(seed),
        "samples": {"operations": attempted, "cycles": loop["cycles"],
                    "by_kind": {k: loop["kinds"].count(k) for k in kinds},
                    "setup_rounds": SETUP_ROUNDS},
        "op_tail": {"percentile": tail_pct, "samples_beyond": tail_beyond},
        "import_s": import_s, "setup": setup, "pool_identical": pool_identical,
        "p50_by_kind_s": {k: statistics.median(t for t, kk in zip(latencies, loop["kinds"])
                                               if kk == k) for k in kinds},
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": values,
        "operations": {"kinds": loop["kinds"], "latencies_s": latencies},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if trace:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": tracing.Tracer.FIELDS, "counters": dict(tracer.counters),
             "spans": tracer.spans}))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["failed_ratio"] = "ratio"
    for name, value in values.items():
        print(f"{workload} {name} = {value if value is None else f'{value:.6g}'} "
              f"{units.get(name, '')}".rstrip())
    if not trace:
        print(f"{workload} op_tail_s is p{tail_pct:.1f} of {attempted} operations "
              f"({tail_beyond} beyond)")
    if setup["gate_mismatches"]:
        print(f"{workload} digest gate FAILED for {setup['gate_mismatches']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in its own process and merge their result lines."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, cwd=ROOT, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return 2
        last = json.loads(lines[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
