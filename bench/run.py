#!/usr/bin/env python3
"""tokcheck benchmark: one workload per process, one caller in a closed loop.

    python3 bench/run.py --workload the-n7 --seed 1 --seconds 15 --trace 0

Run from anywhere; the checkout is the directory above this file, and
tokcheck is imported from its `src/`.

With `--trace 0` the run repeats passes (set-up, then the pass's ops, each
op starting when the previous one returns) until the ops have taken
`--seconds`, checks every op's output outside the timed region, and
reports the end-to-end metrics. With `--trace 1` it runs the first pass
three times instead: untraced, traced (spans around every call into
tokcheck, composites replayed as the calls they make) and, for memory, the
set-up alone under `tracemalloc`. It reports per-layer self times and
counts, and writes the spans to `.bench_runs/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
# At least three ops per run, so that a the-n7 median (12 s ops) discards a slow outlier.
MIN_OPS = 3
# Below this many ops a run has no tail worth a percentile; op_s.p90 is then the median.
TAIL_OPS = 100

END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
# Spans whose self time is a per-layer metric, named <span>_s.
TIMED_SPANS = (
    "stochmap.materialize",
    "encoders.concat_decoder",
    "tokenizer.classify",
    "tokenizer.eligibility",
    "tokenizer.is_exact",
    "tokenizer.probe",
    "stochmap.pushforward",
    "tokenizer.preimages",
    "tokenizer.marginalize",
    "tokenizer.spurious",
    "encoders.encode",
    "transducer.run",
    "transducer.build",
    "transducer.equivalent_on",
    "dist.sample",
    "dist.empirical",
    "dist.tv",
    "sim.run_estimation",
    "sim.bias",
    "strings.enumerate",
    "cli.load_spec",
    "cli.load_dist",
)
CALL_COUNTS = {
    "stochmap.pushforward_calls": "stochmap.pushforward",
    "tokenizer.preimage_calls": "tokenizer.preimages",
    "encoders.encode_calls": "encoders.encode",
    "transducer.runs": "transducer.run",
}
OBJECT_COUNTS = (
    "stochmap.rows_tabulated",
    "encoders.decoder_rows",
    "tokenizer.preimages_found",
    "transducer.states",
    "dist.samples_drawn",
    "strings.rows",
)


@dataclass
class Tally:
    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    replay: list[str] = field(default_factory=list)  # traced replays that differ from composites

    def record(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems += problems


def pass_rng(workload: str, seed: int, pass_no: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_no}")


def run_pass(wl, tr, rng, tally: Tally, enough=lambda tally: False, keep: bool = False):
    """Set up once, then run the pass's ops until they are done or enough(tally) holds.

    Returns the set-up state and, with keep, each op's output.
    """
    tr.op = "setup"
    start = perf_counter()
    with tr.span("setup"):
        state = wl.setup(tr, rng)
    tally.setup_s.append(perf_counter() - start)
    outputs = []
    for op in wl.ops(state, rng):
        if enough(tally):
            break
        tr.op = len(tally.op_s)
        start = perf_counter()
        try:
            with tr.span("op"):
                out = wl.run(tr, state, op)
        except Exception:
            out = None
            problems = [traceback.format_exc()]
        else:
            problems = None
        tally.op_s.append(perf_counter() - start)
        tally.record(problems if problems is not None else wl.check(state, op, out))
        if keep:
            outputs.append(out)
    return state, outputs


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(wl, seed: int, seconds: float) -> tuple[Tally, dict, spans.Tracer]:
    """Passes until the ops have taken `seconds` and there are at least MIN_OPS of them."""

    def enough(tally):
        return len(tally.op_s) >= MIN_OPS and sum(tally.op_s) >= seconds

    tr = spans.Tracer()
    tally = Tally()
    pass_no = 0
    while not enough(tally):
        run_pass(wl, tr, pass_rng(wl.name, seed, pass_no), tally, enough)
        pass_no += 1
    op_s = tally.op_s
    metrics = {
        "setup_s": statistics.median(tally.setup_s),
        "op_s.p50": statistics.median(op_s),
        "op_s.p90": nearest_rank(op_s, 0.9) if len(op_s) >= TAIL_OPS else statistics.median(op_s),
        "ops_per_s": len(op_s) / sum(op_s),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(
        f"{wl.name} seed {seed}: setup_s {metrics['setup_s']:.4f} (median of {len(tally.setup_s)}),"
        f" op_s.p50 {metrics['op_s.p50']:.4f}, op_s.p90 {metrics['op_s.p90']:.4f}"
        f" ({len(op_s)} ops), ops_per_s {metrics['ops_per_s']:.4f},"
        f" peak_rss_mib {metrics['peak_rss_mib']:.1f},"
        f" error_rate {tally.failed / len(op_s):.4f} ({tally.failed}/{len(op_s)})"
        + (f", op times {[round(x, 3) for x in op_s]}" if len(op_s) <= 10 else "")
    )
    return tally, {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}, tr


def trace(wl, seed: int) -> tuple[Tally, dict, spans.Tracer]:
    """Untraced, traced and memory passes over the run's first pass."""
    plain = Tally()
    plain_state, plain_out = run_pass(wl, spans.Tracer(), pass_rng(wl.name, seed, 0), plain, keep=True)
    tr = spans.Tracer(enabled=True)
    tally = Tally()
    state, out = run_pass(wl, tr, pass_rng(wl.name, seed, 0), tally, keep=True)
    if state.built() != plain_state.built():
        tally.replay.append("replayed set-up differs from the composite calls")
    tally.replay += [f"replayed op {i} differs" for i, (a, b) in enumerate(zip(plain_out, out)) if a != b]
    del plain_state, plain_out, state, out

    memory = spans.Tracer(enabled=True, memory=True)
    tracemalloc.start()
    try:
        wl.setup(memory, pass_rng(wl.name, seed, 0))
    finally:
        tracemalloc.stop()

    self_s = tr.self_times()
    calls = tr.calls()
    rows = sum(r for r, _, _ in memory.tables)
    metrics = {f"{name}_s": (self_s.get(name, 0.0), "s") for name in TIMED_SPANS}
    metrics |= {m: (calls.get(name, 0), "count") for m, name in CALL_COUNTS.items()}
    metrics |= {name: (tr.counts.get(name, 0), "count") for name in OBJECT_COUNTS}
    metrics["stochmap.peak_mib"] = (max((p for _, p, _ in memory.tables), default=0) / 2**20, "MiB")
    metrics["stochmap.bytes_per_row"] = (sum(k for _, _, k in memory.tables) / max(rows, 1), "B/row")
    metrics["trace.overhead_ratio"] = (
        (sum(tally.setup_s) + sum(tally.op_s)) / (sum(plain.setup_s) + sum(plain.op_s)),
        "ratio",
    )
    return tally, {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}, tr


def shares(tr) -> dict:
    """Self-time shares of the whole pass and of its op phase, by span name."""
    roots = [(op, end - start) for name, start, end, parent, op in tr.spans if parent is None]
    total = sum(d for _, d in roots)
    op_phase = sum(d for op, d in roots if op != "setup")

    def by_name(times, whole):
        return {k: round(v / whole, 4) for k, v in sorted(times.items(), key=lambda kv: -kv[1])}

    return {
        "pass_s": total,
        "op_phase_s": op_phase,
        "of_pass": by_name(tr.self_times(), total),
        "of_op_phase": by_name(tr.self_times(lambda op: op != "setup"), op_phase),
    }


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[len("ref: "):]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def use_checkout_source() -> None:
    """Import tokcheck from this checkout's src/, and only from there."""
    if not (SRC / "tokcheck" / "__init__.py").is_file():
        raise SystemExit(f"error: no tokcheck sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tokcheck

    if Path(tokcheck.__file__).resolve().parent != (SRC / "tokcheck").resolve():
        raise SystemExit(f"error: tokcheck imported from {tokcheck.__file__}, not {SRC}")


def main(argv=None) -> int:
    use_checkout_source()
    import workloads

    args = parse_args(argv, list(workloads.WORKLOADS))
    missing = [str(p) for p in workloads.INPUTS if not p.is_file()]
    if missing:
        raise SystemExit(f"error: missing input files: {', '.join(missing)}")
    wl = workloads.WORKLOADS[args.workload]()
    start = perf_counter()
    if args.trace:
        tally, metrics, tr = trace(wl, args.seed)
    else:
        tally, metrics, tr = measure(wl, args.seed, args.seconds)
    context = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "setups": len(tally.setup_s),
        "attempted": len(tally.op_s),
        "failed": tally.failed,
        "rows_tabulated": tr.counts.get("stochmap.rows_tabulated", 0),
        "samples_drawn": tr.counts.get("dist.samples_drawn", 0),
        "run_wall_s": perf_counter() - start,
    }
    if args.trace:
        path = OUT / f"spans-{wl.name}-seed{args.seed}.tsv.gz"
        tr.write(path, context)
        print(json.dumps({"trace": {**shares(tr), "spans": len(tr.spans), "file": str(path.relative_to(ROOT))}}))
    print(json.dumps({"context": context}))
    for problem in (tally.replay + tally.problems)[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": tally.failed == 0 and not tally.replay,
                "attempted": len(tally.op_s),
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
