"""Small-size self-check of the benchmark.

Run from the root of a source checkout:  python3 -m pytest bench/tests

Each workload runs for one cycle, untraced and traced, and must emit every
metric that BENCHMARK.json names, with its unit.  The digest gate must
reject a perturbed output, and the benchmark must refuse to run without the
program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import ops  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] == len(next(ops.cycles(workload, 3)))
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float)), m["name"]
        assert any(line.startswith(f"{workload} {m['name']} = ") for line in lines[:-1])
    if trace:
        assert 0.9 < result["metrics"]["trace.accounted_share"]["value"] <= 1.0
    else:
        assert f"{workload} failed_ratio = 0 ratio" in lines


@pytest.mark.parametrize("workload", sorted(ops.PINNED_DIGESTS))
def test_gate_detects_a_perturbed_digest(workload):
    # The pinned digests themselves are checked by every benchmark run (see
    # the test above).  They hold with BLAS pinned to one thread, which this
    # process may not have, so here the outputs are only nudged.
    pinned = ops.PINNED_DIGESTS[workload]
    gate = ops.gate_ops(workload)
    assert sorted(op.kind for op in gate) == sorted(pinned)
    assert ops.gate_mismatches(dict(pinned), pinned) == []
    for op in gate:
        outputs = [a.copy() for a in op.run(tracing.NullTracer())[1]]
        flat = outputs[0].reshape(-1)
        flat[-1] += np.spacing(abs(flat[-1]))  # one unit in the last place
        perturbed = dict(pinned, **{op.kind: ops.digest(outputs)})
        assert ops.gate_mismatches(perturbed, pinned) == [op.kind]
    assert ops.gate_mismatches({}, pinned) == sorted(pinned)


def test_tail_leaves_ten_samples_beyond():
    value, percentile, beyond = run.tail([float(i) for i in range(100)])
    assert (value, percentile, beyond) == (89.0, 90.0, 10)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "decay", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode not in (0, 1)
    assert '"metrics"' not in proc.stdout
