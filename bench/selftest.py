"""Fast self-test of the benchmark harness at tiny sizes.

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py

It checks that the runs emit exactly the metric names BENCHMARK.json
declares, that a wrong expected answer makes ops fail, that traced replays
agree with the composite calls and that span self times add up to each
op's wall time, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.use_checkout_source()
import workloads  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny():
    return [
        workloads.TheN7(n=3),
        workloads.VocabSweep(vocabs=6, n=2, verify_len=3),
        workloads.Estimate(ops=4, n=3),
    ]


def test_end_to_end_names_and_no_errors():
    names = [m["name"] for m in DECLARED["end_to_end"]]
    for wl in tiny():
        tally, metrics, _ = run.measure(wl, seed=3, seconds=0.01)
        assert list(metrics) == names, wl.name
        assert tally.failed == 0 and tally.op_s, (wl.name, tally.problems)
        assert all(m["value"] > 0 for m in metrics.values()), (wl.name, metrics)


def test_per_layer_names_replays_and_self_times():
    names = [m["name"] for m in DECLARED["per_layer"]]
    for wl in tiny():
        tally, metrics, tr = run.trace(wl, seed=3)
        assert list(metrics) == names, wl.name
        assert tally.failed == 0 and not tally.replay, (wl.name, tally.problems, tally.replay)
        self_s = tr.self_times()
        roots = [end - start for _, start, end, parent, _ in tr.spans if parent is None]
        assert abs(sum(self_s.values()) - sum(roots)) < 1e-6 * len(tr.spans), wl.name
        for op in {rec[4] for rec in tr.spans}:
            wall = sum(e - s for _, s, e, p, o in tr.spans if p is None and o == op)
            parts = tr.self_times(lambda o: o == op).values()
            assert abs(sum(parts) - wall) < 1e-6 * len(tr.spans), (wl.name, op)


def test_wrong_expected_answer_counts_as_failure():
    wrong = dict(workloads.THE_EXPECTED, spurious=Fraction(1, 2))
    tally, _, _ = run.measure(workloads.TheN7(n=3, expected=wrong), seed=3, seconds=0.01)
    assert tally.failed == len(tally.op_s) > 0
    assert any("spurious" in p for p in tally.problems)


def test_refuses_to_run_without_sources():
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in DECLARED["paths"]:
            shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, *DECLARED["command"][1:], "--workload", "estimate", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and proc.stdout == "", (proc.returncode, proc.stdout)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
