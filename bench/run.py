"""End-to-end and per-layer benchmark of the sdpfeas CLI.

    python3 bench/run.py --workload sweep-grid --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; sdpfeas is imported from its
``src/``. The workload's inputs are generated from the seed into a
temporary directory under ``.bench_out/``, then whole rounds of the
workload's CLI calls run in-process through ``sdpfeas.cli.main`` until the
time is up, each round pinned to the next of the process's CPUs. Each
call is timed on its own; run_s sums each call's fastest time. The first
round is a warm-up whose outputs are checked against the benchmark's own
computations; every later round must print the same bytes (report
timestamps aside).

--trace 0 reports the end-to-end metrics with tracing off. --trace 1
alternates untraced and traced rounds and reports the per-layer metrics
of the traced ones, plus the tracing overhead. The last line of stdout is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# one thread of load: pin the BLAS/OpenMP pools before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager, redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer, sdpfeas_modules  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: fresh interpreters timed per untraced run for setup_s, spread evenly
#: over the run so that their median does not hang on one moment's load
SETUP_REPEATS = 7
#: the CPUs this process may use. On a shared host each CPU runs, in turns
#: lasting seconds, up to 1.7x slower than at other times, and the two do so
#: apart; rounds are pinned to each in turn so that every call is timed on both
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_sdpfeas():
    sys.path.insert(0, str(SRC))
    try:
        import sdpfeas.cli
    except ImportError as exc:
        fail(f"cannot import sdpfeas from {SRC}: {exc}")
    if not Path(sdpfeas.__file__).resolve().is_relative_to(SRC):
        fail(f"sdpfeas was imported from {sdpfeas.__file__}, not from {SRC}")
    return sdpfeas.cli


def time_setup() -> float:
    """Wall time of a fresh interpreter importing sdpfeas.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import sdpfeas.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


@contextmanager
def pinned(round_index: int):
    """Run on one CPU, the next in turn for each round, then on all again."""
    if len(CPUS) < 2:
        yield
        return
    os.sched_setaffinity(0, {CPUS[round_index % len(CPUS)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, CPUS)


def run_round(cli, calls) -> tuple:
    """Wall time of each CLI call of one round and their (exit code, stdout)."""
    times, outputs = [], []
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(call.argv)
        times.append(time.perf_counter() - start)
        outputs.append((code, out.getvalue()))
    return times, outputs


def lower_envelope(rounds: list) -> float:
    """One round's time, each call taken at its fastest over the rounds."""
    return sum(min(times) for times in zip(*rounds))


def normalized(outputs) -> list:
    return [(code, TIMESTAMP.sub("", text)) for code, text in outputs]


def prepare(cli, name: str, seed: int, directory: Path) -> list:
    if name == "verify-campaign":
        return workloads.verify_campaign(seed, directory)
    if name == "verify-large-l":
        return workloads.verify_large_l(seed, directory)
    records = workloads.records_call(seed, directory)
    _, [(code, out)] = run_round(cli, [records])
    if code != 0:
        fail(f"metrics --records exited {code}")
    return [records] + workloads.sweep_grid(seed, directory, json.loads(out)["p"])


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "cpus": os.cpu_count(),
        **{var: os.environ[var] for var in THREAD_VARS},
    }


@dataclass
class Timing:
    reference: list
    rounds: int = 1
    mismatched: int = 0
    plain: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    layers: list = field(default_factory=list)
    setups: list = field(default_factory=list)


def measure(cli, calls, args) -> Timing:
    """A warm-up round, then whole rounds until args.seconds have passed,
    each pinned to the next CPU. Untraced runs time setup_s between
    rounds, on all CPUs; traced runs alternate untraced and traced rounds."""
    _, reference = run_round(cli, calls)
    expected = normalized(reference)
    timing = Timing(reference=reference)
    tracer = Tracer(sdpfeas_modules())
    began = time.perf_counter()
    while time.perf_counter() - began < args.seconds or not timing.plain or (args.trace and not timing.traced):
        due = min(SETUP_REPEATS, SETUP_REPEATS * (time.perf_counter() - began) / args.seconds)
        if not args.trace and len(timing.setups) < due:
            timing.setups.append(time_setup())
            continue
        if args.trace and len(timing.traced) < len(timing.plain):
            tracer.clear()
            tracer.install()
            try:
                with pinned(len(timing.traced)):
                    times, outputs = run_round(cli, calls)
            finally:
                tracer.uninstall()
            timing.traced.append(times)
            timing.layers.append(tracer.layer_metrics())
            if len(timing.traced) == 1:
                tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
        else:
            with pinned(len(timing.plain)):
                times, outputs = run_round(cli, calls)
            timing.plain.append(times)
        timing.rounds += 1
        timing.mismatched += normalized(outputs) != expected
    return timing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = import_sdpfeas()

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        calls = prepare(cli, args.workload, args.seed, Path(tmp))
        timing = measure(cli, calls, args)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while not args.trace and len(timing.setups) < SETUP_REPEATS:
            timing.setups.append(time_setup())

    # scipy.stats is imported only now, so that peak_rss_mib is the workload's
    from checks import CheckError, check_call

    correct = timing.mismatched == 0
    if not correct:
        print(f"error: {timing.mismatched} rounds printed other output than the first", file=sys.stderr)
    tallies = []
    try:
        tallies = [check_call(call, out, code) for call, (code, out) in zip(calls, timing.reference)]
    except CheckError as exc:
        print(f"error: check failed: {exc}", file=sys.stderr)
        correct = False
    rows = sum(t.rows for t in tallies)

    # a call's fastest time over the run is the figure that the host's slow
    # turns disturb least; shorter calls than whole rounds catch more fast turns
    run_s = lower_envelope(timing.plain)
    if args.trace:
        # trace.overhead_s, listed last, compares traced with untraced rounds
        layer = {name: statistics.median(m[name] for m in timing.layers) for name, _ in LAYER_METRICS[:-1]}
        layer["trace.overhead_s"] = lower_envelope(timing.traced) - run_s
        metrics = {name: (layer[name], unit) for name, unit in LAYER_METRICS}
    else:
        metrics = {
            "setup_s": (statistics.median(timing.setups), "s"),
            "run_s": (run_s, "s"),
            "rows_per_s": (rows / run_s, "rows/s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    attempted = timing.rounds * (len(calls) + rows + sum(t.records for t in tallies))
    failed = timing.rounds * sum(t.failed for t in tallies)

    print("env: " + json.dumps(environment()))
    print(
        f"workload: {args.workload} seed={args.seed} rounds={timing.rounds} "
        f"untraced={len(timing.plain)} traced={len(timing.traced)}"
    )
    rounds = [sum(times) for times in timing.plain]
    print(f"untraced rounds: min {min(rounds):.6g} s, median {statistics.median(rounds):.6g} s, cpus {CPUS}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"attempted {attempted} failed {failed}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
