"""crepant benchmark: time to verified exact answers, and where that time goes.

Usage, from the root of a checkout:

    python3 bench/run.py --workload group-census --seed 1 --seconds 36 --trace 0

Everything runs in this one process and thread: each item is a call of
``crepant.cli.main(argv)`` on inputs made from the seed, and its printed
report is checked against answers computed apart from crepant.  Passes over
all items repeat until ``--seconds`` have passed.

With ``--trace 0`` the last line reports the end-to-end metrics, in nominal
seconds: every time is scaled by a reference workload timed next to it, so
that the metrics follow the program and not the shared host's speed.  With
``--trace 1`` one traced pass follows the timed ones and
the last line reports the per-layer metrics.  The lines before it give every
metric by name and unit, the error rate, the interpreter, ``nproc`` and the
commit; the same record is written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Set-ups measured before each pass, so that set-up samples spread over the
# run as the passes do.
SETUPS_PER_PASS = 3
# Time of the reference workload on the host the bounds were set on (one
# vCPU of a shared 2.1-GHz Xeon VM, Python 3.11.7) in its fast spells.  A
# time measured next to a reference time r is reported in nominal seconds,
# times REFERENCE_NOMINAL_S / r (README.md, Steadiness).
REFERENCE_NOMINAL_S = 0.01

sys.path.insert(0, str(BENCH_DIR))

import tracer  # noqa: E402
import workloads  # noqa: E402

# Set-up as a user pays it: a fresh interpreter imports crepant and the
# inputs are generated.  Interpreter start-up itself is not counted.
SETUP_PROGRAM = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import crepant.cli, workloads
workloads.make_items(sys.argv[3], int(sys.argv[4]), sys.argv[5])
print(time.perf_counter() - start)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def import_crepant():
    """crepant.cli from this checkout's src/, never from anywhere else."""
    if not (SRC / "crepant" / "__init__.py").is_file():
        raise SystemExit(f"error: no crepant sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from crepant import cli

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"error: imported crepant from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup(workload: str, seed: int, work_dir: str) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROGRAM, str(SRC), str(BENCH_DIR), workload,
         str(seed), work_dir],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_item(cli, item: workloads.Item):
    """(seconds, problems) of one CLI call and the check of its report."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(item.argv))
    except Exception as exc:  # a crash is a failed item, not a failed benchmark
        return time.perf_counter() - start, [f"raised {type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - start
    try:
        report = json.loads(out.getvalue())
    except ValueError:
        report = None
    problems = workloads.check(item, code, report)
    if problems and err.getvalue().strip():
        problems.append(err.getvalue().strip().splitlines()[-1])
    return seconds, problems


def reference_seconds() -> float:
    """Time of a fixed pure-Python workload that shares no code with crepant.

    Its mix resembles crepant's: products of integer tuples (as in CycloInt),
    Fraction elimination (as in verify_crepant) and tuple and dict churn, so
    that a slow spell of the host slows it as it slows crepant.
    """
    start = time.perf_counter()
    a = tuple(range(1, 25))
    for k in range(60):
        prod = [0] * 47
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                prod[i + j] += x * y
        a = tuple((p + k) % 1009 for p in prod[:24])
    for _ in range(4):
        m = [[Fraction((i * 7 + j * 3) % 11 + 13 * (i == j), 1 + (i + j) % 3) for j in range(7)]
             for i in range(7)]
        for c in range(7):
            for r in range(c + 1, 7):
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    rows = {(i, i * i % 101): (i, i + 1) for i in range(6000)}
    table = {}
    for i in range(6000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + rows[(i, i * i % 101)][1]
    return time.perf_counter() - start


def run_pass(cli, items, trace=None):
    """Wall time of one pass, per-item seconds, and failures by label.

    Untraced, each item is also given the mean of the reference times taken
    just before and just after it (``refs``).
    """
    start = time.perf_counter()
    seconds, failures, refs = {}, {}, {}
    before = reference_seconds() if trace is None else None
    for item in items:
        if trace is not None:
            trace.tag = item.label
        seconds[item.label], problems = run_item(cli, item)
        if trace is None:
            after = reference_seconds()
            refs[item.label], before = (before + after) / 2, after
        if problems:
            failures[item.label] = problems
    return time.perf_counter() - start, seconds, failures, refs


def nominal(seconds: list[float], refs: list[float]) -> float:
    """Median of the times, each scaled by the reference time taken next to it.

    A shared host's speed swings by half or more for minutes at a time and
    slows crepant and the reference workload alike; the ratio of the two
    does not follow it (README.md, Steadiness).
    """
    return statistics.median([s / r for s, r in zip(seconds, refs)]) * REFERENCE_NOMINAL_S


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read from .git; None outside one."""
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


def source_digest() -> str:
    """Digest of crepant's sources, which names the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "crepant").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "source_digest": source_digest(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_crepant()
    results_dir = BENCH_DIR / "results"
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as work_dir:
        items = workloads.make_items(args.workload, args.seed, work_dir)

        walls, per_item, failures, setup_times = [], {it.label: [] for it in items}, {}, []
        item_refs = {it.label: [] for it in items}
        setup_refs = []
        attempted = failed_count = 0
        start = time.perf_counter()
        while True:
            for _ in range(SETUPS_PER_PASS):
                before = reference_seconds()
                setup_times.append(measure_setup(args.workload, args.seed, work_dir))
                setup_refs.append((before + reference_seconds()) / 2)
            wall, seconds, failed, refs = run_pass(cli, items)
            walls.append(wall)
            attempted += len(items)
            failed_count += len(failed)
            failures.update(failed)
            for label, s in seconds.items():
                per_item[label].append(s)
                item_refs[label].append(refs[label])
            if time.perf_counter() - start >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        item_nominal = {label: nominal(s, item_refs[label]) for label, s in per_item.items()}
        end_to_end = {
            "wall_s": (sum(item_nominal.values()), "s"),
            "setup_s": (nominal(setup_times, setup_refs), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        # Printed and recorded, not bounded: one item's few repetitions
        # give a noisier median than the sum over a pass.
        max_item_s = max(item_nominal.values())
        # Clock times as measured; the traced pass is compared with these.
        wall_clock_s = sum(statistics.median(s) for s in per_item.values())
        setup_clock_s = statistics.median(setup_times)

        layer, absent, patches_absent = {}, [], []
        if args.trace:
            trace = tracer.Tracer()
            with tracer.Patches(trace) as patches:
                traced_wall, _, failed, _ = run_pass(cli, items, trace)
            attempted += len(items)
            failed_count += len(failed)
            failures.update({f"{k} (traced)": v for k, v in failed.items()})
            patches_absent = patches.absent
            families = {it.label: it.family for it in items if it.family}
            layer, absent = tracer.layer_metrics(
                trace, families, traced_wall, wall_clock_s, patches.absent_spans()
            )

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "passes": len(walls),
        "attempted": attempted,
        "failed": failed_count,
        "error_rate": failed_count / attempted,
        "failures": failures,
        "pass_walls_s": walls,
        "setup_samples_s": setup_times,
        "item_samples_s": per_item,
        "item_refs_s": item_refs,
        "setup_refs_s": setup_refs,
        "item_nominal_s": item_nominal,
        "max_item_s": max_item_s,
        "wall_clock_s": wall_clock_s,
        "setup_clock_s": setup_clock_s,
        "reference_s": statistics.median([r for refs in item_refs.values() for r in refs]),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layer.items()},
        "absent": absent,
        "absent_targets": patches_absent,
    }
    results_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} passes={len(walls)} python={env['python']} "
          f"nproc={env['nproc']} commit={env['commit']} source={env['source_digest']}")
    for label, problems in failures.items():
        print(f"# FAILED {label}: {'; '.join(problems)}")
    print(f"error_rate {record['error_rate']:.6g} ratio ({failed_count}/{attempted} items)")
    print(f"max_item_s {max_item_s:.6g} s (unbounded)")
    print(f"wall_clock_s {wall_clock_s:.6g} s (unbounded, {len(walls)} passes)")
    print(f"setup_clock_s {setup_clock_s:.6g} s (unbounded, {len(setup_times)} set-ups)")
    print(f"reference_s {record['reference_s']:.6g} s (nominal {REFERENCE_NOMINAL_S} s)")
    for k, (v, u) in {**end_to_end, **layer}.items():
        print(f"{k} {v:.6g} {u}" + (" (absent)" if k in absent else ""))
    result = {
        "correct": failed_count == 0,
        "attempted": attempted,
        "failed": failed_count,
        "metrics": {
            k: {"value": v, "unit": u}
            for k, (v, u) in (layer if args.trace else end_to_end).items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
