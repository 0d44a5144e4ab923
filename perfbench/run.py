"""treedet benchmark: the certify-d3 and det-stream workloads.

    python3 perfbench/run.py --workload certify-d3|det-stream --seed N --seconds S --trace 0|1

Run from the root of a source checkout; treedet is imported from ``src/``.
Every run measures both kinds of traffic, so that it can print every
end-to-end metric; the workload decides which kind gets the run's
``--seconds``:

* certify-d3: fresh ``python3 -m treedet.cli certify-all --d 3 --seed N``
  processes, the command a user types, without ``--workers``, one after
  another until ``--seconds`` have passed (at least 3).  The det-stream
  part is short: 2 processes streaming two blocks of rounds each.
* det-stream: 3 processes, each timing its own set-up and then streaming
  det_eval calls for ``--seconds / 3``.  The certify part is 3 processes.

The two kinds of process alternate, so that both sample the whole run:
on a shared machine the speed can drift over tens of seconds, and a figure
taken from one end of a run alone spreads more from run to run.

With ``--trace 1`` the same traffic runs with spans installed (see
spans.py), and the per-layer metrics are printed instead.  The last line of
standard output is the result JSON; the line before it records the
environment, with the rate of a fixed calibration loop before and after
the run, so that a change of machine speed can be told apart from a
regression.  Per-process outputs and span files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
from checks import CERTIFY_STAGES, judge_certificates

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"

WORKLOADS = ("certify-d3", "det-stream")
STREAM_PROCS = 3
MIN_CERTIFY_REPS = 3
SHORT_STREAMS = 2
# A block of 40 rounds makes 242 d=3 calls, so any run of at least one
# block has at least ten samples beyond the p95.
SHORT_STREAM_BLOCKS = 2
RUN_BUDGET_S = 170

E2E_UNITS = {
    "certify_d3_s": "s",
    "certify_d3_peak_rss_mb": "MiB",
    "certify_d3_pass_share": "share",
    "setup_s": "s",
    "det_d3_int_per_s": "1/s",
    "det_d3_rational_per_s": "1/s",
    "det_d3_gfp_per_s": "1/s",
    "det_d3_call_p50_ms": "ms",
    "det_d3_call_p95_ms": "ms",
    "det_pass_share": "share",
    "det_stream_peak_rss_mb": "MiB",
}

LAYER_UNITS = {
    "enumeration.homogeneous_s": "s",
    "enumeration.cycle_free_s": "s",
    "enumeration.calls": "count",
    "enumeration.rows": "count",
    "enumeration.peak_rss_mb": "MiB",
    "flips.build_flip_graph_s": "s",
    "flips.verify_flip_soundness_s": "s",
    "flips.face_sweeps": "count",
    "flips.flip_pairs": "count",
    "flips.two_color_s": "s",
    "flips.two_color_calls": "count",
    "flips.check_bipartite_self_s": "s",
    "flips.check_connected_self_s": "s",
    "flips.peak_rss_mb": "MiB",
    "symmetry.orbit_decomposition_self_s": "s",
    "symmetry.stabilizer_s": "s",
    "symmetry.stabilizer_calls": "count",
    "symmetry.match_catalog_self_s": "s",
    "symmetry.epsilon_formula_s": "s",
    "symmetry.epsilon_samples_per_s": "1/s",
    "symmetry.peak_rss_mb": "MiB",
    "algebra.verify_relations_s": "s",
    "algebra.relation_instances_per_s": "1/s",
    "algebra.det_eval_calls": "count",
    "algebra.det_eval_d3_int_ms": "ms",
    "algebra.det_eval_d3_rational_ms": "ms",
    "algebra.det_eval_d3_gfp_ms": "ms",
    "algebra.det_eval_d2_ms": "ms",
    "algebra.validate_prime_ms": "ms",
    "algebra.det_eval_failed": "count",
    "algebra.peak_rss_mb": "MiB",
    "context.standard_context_self_s": "s",
    "context.builds": "count",
    "context.stream_build_s": "s",
    "cli.certify_all_s": "s",
    "certify_d3_failed_share": "share",
    "det_failed_share": "share",
    "trace.overhead_share": "share",
}


class ChildTimeout(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list, stem: Path, deadline: float) -> dict:
    """Run one process to completion; wall time from launch to reaped exit,
    peak RSS from wait4 (the largest of the process and its reaped children).

    The child gets its own process group, which is killed once the child
    has been reaped, so no pool worker outlives it.
    """
    timed_out = threading.Event()
    with open(f"{stem}.stdout", "w") as out, open(f"{stem}.stderr", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err, start_new_session=True
        )

        def kill():
            timed_out.set()
            _kill_group(proc.pid)

        timer = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: take the child down too
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)
    if timed_out.is_set():
        raise ChildTimeout(f"{' '.join(map(str, argv))} passed the run's time budget")
    return {
        "wall_s": wall,
        "returncode": proc.returncode,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": Path(f"{stem}.stdout").read_text(),
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def _kill_group(pgid: int):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# ---------------------------------------------------------------------------
# the two kinds of traffic


def certify(seed: int, stem: Path, deadline: float, trace: bool = False, extra=()) -> dict:
    args = ["certify-all", "--d", "3", "--seed", str(seed), *extra]
    if trace:
        argv = [sys.executable, str(BENCH / "traced_cli.py"), f"{stem}.spans.jsonl", *args]
    else:
        argv = [sys.executable, "-m", "treedet.cli", *args]
    rep = run_child(argv, stem, deadline)
    rep["failed"] = judge_certificates(rep.pop("stdout"), rep["returncode"])
    rep["trace"] = f"{stem}.spans.jsonl" if trace else None
    return rep


def stream(
    seed: int, seconds: float, stem: Path, deadline: float, trace: bool = False, blocks: int = 1
) -> dict:
    argv = [
        sys.executable, str(BENCH / "stream.py"),
        "--seed", str(seed), "--seconds", str(seconds), "--blocks", str(blocks), "--out", f"{stem}.json",
    ]
    if trace:
        argv += ["--trace", f"{stem}.spans.jsonl"]
    rep = run_child(argv, stem, deadline)
    if rep["returncode"] != 0:
        raise RuntimeError(f"stream process failed with exit {rep['returncode']}; see {stem}.stderr")
    with open(f"{stem}.json") as fh:
        rep.update(json.load(fh))
    rep["trace"] = f"{stem}.spans.jsonl" if trace else None
    return rep


def stream_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


# ---------------------------------------------------------------------------
# metrics


def certify_metrics(reps: list) -> dict:
    return {
        "certify_d3_s": statistics.median(r["wall_s"] for r in reps),
        "certify_d3_peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        "certify_d3_pass_share": 1.0 - certify_failed_share(reps),
    }


def certify_failed_share(reps: list) -> float:
    return sum(len(r["failed"]) for r in reps) / (CERTIFY_STAGES * len(reps))


def stream_counts(outs: list, probes: bool = True) -> tuple[int, int]:
    """(failed, attempted) evaluations over the stream, and the probes if asked."""
    evals = [e for o in outs for e in o["evals"]]
    checked = [p for o in outs for p in o["probes"]] if probes else []
    failed = sum(1 for e in evals if not e[3]) + sum(1 for p in checked if not p[1])
    return failed, len(evals) + len(checked)


def stream_metrics(outs: list) -> dict:
    evals = [e for o in outs for e in o["evals"]]
    d3_ms = [e[2] * 1e3 for e in evals if e[1] == 3]
    failed, attempted = stream_counts(outs)
    return {
        "setup_s": statistics.median(o["setup_s"] for o in outs),
        "det_d3_int_per_s": class_rate(outs, "d3_int"),
        "det_d3_rational_per_s": class_rate(outs, "d3_rational"),
        "det_d3_gfp_per_s": class_rate(outs, "d3_gfp"),
        "det_d3_call_p50_ms": statistics.median(d3_ms),
        "det_d3_call_p95_ms": statistics.quantiles(d3_ms, n=20)[18],
        "det_pass_share": 1.0 - failed / attempted,
        "det_stream_peak_rss_mb": statistics.median(o["rss_mb"] for o in outs),
    }


def class_rate(outs: list, cls: str) -> float:
    """Evaluations per second of one input class: calls over busy time."""
    times = [e[2] for o in outs for e in o["evals"] if e[0] == cls]
    return len(times) / sum(times)


def certify_layers(spanset) -> dict:
    s = spanset
    eps_s = s.total("symmetry.epsilon_formula_check")
    rel_s = s.total("algebra.verify_relations")
    m = {
        "enumeration.homogeneous_s": s.total("enumeration.enumerate_partitions", cycle_free=False),
        "enumeration.cycle_free_s": s.total("enumeration.enumerate_partitions", cycle_free=True),
        "enumeration.calls": s.count("enumeration.enumerate_partitions"),
        "enumeration.rows": s.rows("enumeration.enumerate_partitions"),
        "flips.build_flip_graph_s": s.total("flips.build_flip_graph"),
        "flips.verify_flip_soundness_s": s.total("flips.verify_flip_soundness"),
        "flips.face_sweeps": s.count("flips.face_sweep"),
        "flips.flip_pairs": s.rows("flips.face_sweep"),
        "flips.two_color_s": s.total("flips.two_color"),
        "flips.two_color_calls": s.count("flips.two_color"),
        "flips.check_bipartite_self_s": s.self_total("flips.check_bipartite"),
        "flips.check_connected_self_s": s.self_total("flips.check_connected"),
        "symmetry.orbit_decomposition_self_s": s.self_total("symmetry.orbit_decomposition"),
        "symmetry.stabilizer_s": s.total("symmetry.stabilizer"),
        "symmetry.stabilizer_calls": s.count("symmetry.stabilizer"),
        "symmetry.match_catalog_self_s": s.self_total("symmetry.match_catalog"),
        "symmetry.epsilon_formula_s": eps_s,
        "symmetry.epsilon_samples_per_s": s.rows("symmetry.epsilon_formula_check") / eps_s if eps_s else 0.0,
        "algebra.verify_relations_s": rel_s,
        "algebra.relation_instances_per_s": s.rows("algebra.verify_relations") / rel_s if rel_s else 0.0,
        "context.standard_context_self_s": s.self_total("context.standard_context"),
        "context.builds": sum(
            1 for sp in s.select("context.standard_context") if sp["id"] in s.has_children
        ),
        "cli.certify_all_s": s.total("cli.cmd_certify_all"),
    }
    for layer in ("enumeration", "flips", "symmetry", "algebra"):
        m[f"{layer}.peak_rss_mb"] = s.peak_mb(layer)
    return m


def stream_layers(spansets: list, outs: list) -> dict:
    def mean_ms(name, cls):
        durs = [sp["end"] - sp["start"] for s in spansets for sp in s.select(name, **{"class": cls})]
        return 1e3 * sum(durs) / len(durs) if durs else 0.0

    traced_failed = sum(1 for o in outs for e in o["evals"] if e[4] and not e[3])
    probe_failed = sum(1 for o in outs for p in o["probes"] if not p[1])
    return {
        "algebra.det_eval_calls": sum(s.count("algebra.det_eval") for s in spansets),
        "algebra.det_eval_d3_int_ms": mean_ms("algebra.det_eval", "d3_int"),
        "algebra.det_eval_d3_rational_ms": mean_ms("algebra.det_eval", "d3_rational"),
        "algebra.det_eval_d3_gfp_ms": mean_ms("algebra.det_eval", "d3_gfp"),
        "algebra.det_eval_d2_ms": mean_ms("algebra.det_eval", "d2"),
        "algebra.validate_prime_ms": mean_ms("algebra.validate_prime", "d3_gfp"),
        "algebra.det_eval_failed": traced_failed + probe_failed,
        "context.stream_build_s": statistics.median(
            s.total("context.standard_context") for s in spansets
        ),
    }


def stream_overhead(outs: list) -> float:
    """Mean d=3 call latency of traced rounds over untraced rounds, minus 1."""
    traced = [e[2] for o in outs for e in o["evals"] if e[1] == 3 and e[4]]
    plain = [e[2] for o in outs for e in o["evals"] if e[1] == 3 and not e[4]]
    return statistics.fmean(traced) / statistics.fmean(plain) - 1.0


# ---------------------------------------------------------------------------
# runs


def plain_run(workload: str, seed: int, seconds: float, out: Path, deadline: float):
    reps, outs = [], []

    def one_certify():
        reps.append(certify(seed, out / f"certify{len(reps)}", deadline))

    def one_stream(seconds, blocks=1):
        i = len(outs)
        outs.append(stream(stream_seed(seed, i), seconds, out / f"stream{i}", deadline, blocks=blocks))

    if workload == "certify-d3":
        started = time.monotonic()
        while len(reps) < MIN_CERTIFY_REPS or time.monotonic() - started < seconds:
            one_certify()
            if len(outs) < SHORT_STREAMS:
                one_stream(0, SHORT_STREAM_BLOCKS)
    else:
        for _ in range(STREAM_PROCS):
            one_stream(seconds / STREAM_PROCS)
            one_certify()
    metrics = {**certify_metrics(reps), **stream_metrics(outs)}
    return metrics, reps, outs, {}


def traced_run(workload: str, seed: int, seconds: float, out: Path, deadline: float):
    """Per-layer metrics from traced processes.  For certify-d3 the traced
    certify processes alternate with untraced ones, which give the tracing
    overhead; one extra untraced process runs with --workers 1, for the
    environment record."""
    reps, outs, notes = [], [], {}
    if workload == "certify-d3":
        for traced in (False, True, True, False):
            reps.append(certify(seed, out / f"certify{len(reps)}", deadline, trace=traced))
        one = certify(seed, out / "certify-workers1", deadline, extra=("--workers", "1"))
        default = [r["wall_s"] for r in reps if r["trace"] is None]
        notes["workers_1_vs_default_s"] = {
            "default": statistics.median(default),
            "workers_1": one["wall_s"] if not one["failed"] else None,
        }
        outs.append(stream(stream_seed(seed, 0), 0, out / "stream0", deadline, trace=True))
        traced_walls = [r["wall_s"] for r in reps if r["trace"]]
        overhead = statistics.median(traced_walls) / statistics.median(default) - 1.0
    else:
        for i in range(STREAM_PROCS):
            outs.append(
                stream(stream_seed(seed, i), seconds / STREAM_PROCS, out / f"stream{i}", deadline, trace=True)
            )
        reps.append(certify(seed, out / "certify0", deadline, trace=True))
        overhead = stream_overhead(outs)

    missing = set()
    cert_sets, stream_sets = [], []
    for procs, sets in ((reps, cert_sets), (outs, stream_sets)):
        for proc in procs:
            if proc["trace"]:
                sp, miss = spans.read(proc["trace"])
                missing.update(miss)
                sets.append(spans.SpanSet(sp))
    notes["missing_spans"] = sorted(missing)
    return layer_metrics(cert_sets, stream_sets, reps, outs, overhead), reps, outs, notes


def layer_metrics(cert_sets: list, stream_sets: list, reps: list, outs: list, overhead: float) -> dict:
    """Every per-layer metric: the combinatorial layers from the traced
    certify processes (median over them), det_eval from the traced stream
    rounds, and the failure shares over all processes of the run."""
    cert_layers = [certify_layers(s) for s in cert_sets]
    metrics = {k: statistics.median(m[k] for m in cert_layers) for k in cert_layers[0]}
    metrics.update(stream_layers(stream_sets, outs))
    failed, attempted = stream_counts(outs)
    metrics["certify_d3_failed_share"] = certify_failed_share(reps)
    metrics["det_failed_share"] = failed / attempted
    metrics["trace.overhead_share"] = overhead
    return metrics


def environment(notes: dict) -> dict:
    import numpy

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import treedet.cli

        parsed = treedet.cli.build_parser().parse_args(["certify-all", "--seed", "0"])
        workers = getattr(parsed, "workers", None)
    finally:
        sys.path.pop(0)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workers_default": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        **notes,
    }


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# A fixed numpy loop over a 32 MiB array.  Like det_eval, it is bound by
# memory traffic, so it follows the machine's speed more closely than a
# pure-Python loop.  It runs in a child process, because the memory that
# numpy leaves in this process would be inherited by every later child and
# raise its peak RSS.
CALIBRATION = """
import time, numpy
data = numpy.arange(4_000_000, dtype=numpy.int64)
passes, start = 0, time.perf_counter()
while time.perf_counter() - start < 0.5:
    (data * 3 % 7).sum()
    passes += 1
print(passes / (time.perf_counter() - start))
"""


def calibration_rate() -> float | None:
    """Passes per second of CALIBRATION, or None if it could not run."""
    try:
        done = subprocess.run(
            [sys.executable, "-c", CALIBRATION], capture_output=True, text=True, timeout=30
        )
        return float(done.stdout)
    except (OSError, subprocess.TimeoutExpired, ValueError):
        return None


def declared_metrics() -> tuple[dict, dict]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
    )


def result(metrics: dict, units: dict, reps: list, outs: list) -> dict:
    if set(metrics) != set(units):
        raise RuntimeError(f"metric names differ from the declared ones: {sorted(set(metrics) ^ set(units))}")
    # The large-prime probes record a known defect; they are not part of the
    # workload, so they do not count here (they do in det_pass_share).
    stream_failed, stream_attempted = stream_counts(outs, probes=False)
    failed = stream_failed + sum(len(r["failed"]) for r in reps)
    attempted = stream_attempted + CERTIFY_STAGES * len(reps)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "treedet" / "__init__.py").is_file():
        print(f"error: no treedet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if (E2E_UNITS, LAYER_UNITS) != declared_metrics():
        print("error: metric names or units differ from BENCHMARK.json", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _terminate)
    deadline = time.monotonic() + RUN_BUDGET_S
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    run = traced_run if args.trace else plain_run
    calibration = {"before": calibration_rate()}
    try:
        metrics, reps, outs, notes = run(args.workload, args.seed, args.seconds, out, deadline)
    except (ChildTimeout, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    calibration["after"] = calibration_rate()
    notes["calibration_passes_per_s"] = calibration
    res = result(metrics, LAYER_UNITS if args.trace else E2E_UNITS, reps, outs)
    env = environment(notes)
    problems = [f for r in reps for f in r["failed"]] + [f for o in outs for f in o["failures"]]
    processes = {
        "certify": [{k: r[k] for k in ("wall_s", "rss_mb", "returncode", "failed")} for r in reps],
        "stream": [{k: o[k] for k in ("wall_s", "rss_mb", "setup_s", "rounds")} for o in outs],
    }
    with open(out / "result.json", "w") as fh:
        json.dump({"env": env, "problems": problems, "processes": processes, **res}, fh, indent=1)
    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps({"env": env}))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
