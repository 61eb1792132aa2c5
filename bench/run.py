"""Benchmark for perturb.

    python3 bench/run.py --workload solve_diag|solve_dense|campaign
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root or anywhere else; perturb is imported from the
``src`` directory next to this one. Set-up (import, inputs, one warm-up
operation) is repeated SETUP_REPEATS times. The run then repeats whole rounds
of the workload's operations until ``--seconds`` have passed.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json. With ``--trace 1`` the run is split in
half: an untraced half, then a traced half whose spans give the per-layer
metrics; the tracing overhead is the difference between the halves' time per
operation. The spans are written to .bench_out/trace-<workload>-seed<N>.json.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("solve_diag", "solve_dense", "campaign")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_rounds(workload, seconds: float, min_rounds: int):
    tally, rounds = workloads.Tally(), 0
    deadline = time.perf_counter() + seconds
    while rounds < min_rounds or time.perf_counter() < deadline:
        trials, work_s = tally.trials, tally.work_s
        workload.run_round(tally)
        if tally.work_s > work_s:
            tally.round_rates.append((tally.trials - trials) / (tally.work_s - work_s))
        rounds += 1
    return tally, rounds


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "perturb" / "__init__.py").is_file():
        sys.stderr.write(f"error: no perturb package under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](args.seed, SRC, OUT)
        workload.setup()
        setup_s.append(time.perf_counter() - start)
    print(f"# {args.workload} seed {args.seed}: set-up times {[round(s, 4) for s in setup_s]} s")

    if args.trace == 0:
        tally, rounds = run_rounds(workload, args.seconds, min_rounds=2)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = workloads.end_to_end(tally, setup_s, peak_rss_mb)
        declared = spec["end_to_end"]
        tallies = [tally]
        print(f"# {rounds} rounds, {tally.trials} operations completed in {tally.work_s:.3f} s")
    else:
        plain, plain_rounds = run_rounds(workload, args.seconds / 2, min_rounds=1)
        tracer = Tracer()
        tracer.install(workload.modules)
        try:
            traced, traced_rounds = run_rounds(workload, args.seconds / 2, min_rounds=1)
        finally:
            tracer.remove()
        declared = spec["per_layer"]
        values, absent = tracer.layer_metrics([m["name"] for m in declared], traced.trials)
        tallies = [plain, traced]
        per_op = plain.work_s / plain.trials, traced.work_s / traced.trials
        overhead = per_op[1] / per_op[0] - 1.0
        print(f"# untraced: {plain_rounds} rounds, {per_op[0]:.6f} s per operation")
        print(f"# traced: {traced_rounds} rounds, {per_op[1]:.6f} s per operation")
        print(f"# tracing overhead: {100.0 * overhead:+.2f} %")
        print(f"# absent: {', '.join(absent) if absent else 'none'}")
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "operations": traced.trials,
            "seconds_per_operation": {"untraced": per_op[0], "traced": per_op[1]},
            "tracing_overhead": overhead,
            "absent": absent,
            "metrics": values,
            "span_fields": ["name", "start", "end", "parent"],
            "spans": tracer.spans,
        }) + "\n")
        print(f"# spans written to {trace_path.relative_to(ROOT)}")

    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"computed metrics {sorted(values)} differ from BENCHMARK.json")
    wrong = [w for t in tallies for w in t.wrong]
    for line in wrong[:20]:
        print(f"# wrong output: {line}")
    result = {
        "correct": not wrong,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
