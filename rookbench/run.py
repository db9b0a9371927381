"""rookposet benchmark: one workload, many fresh-interpreter CLI runs.

    python3 rookbench/run.py --workload orbit --seed 1 --seconds 45 --trace 0

Each run is ``rookposet verify ... --json`` through ``cli.run`` in a new
interpreter (``child.py``), one at a time, for ``--seconds`` (at least 3 runs).
A fresh interpreter per run matters: ``poset_index`` is cached per process,
and every CLI user pays for its build.  Every run must pass the output gate.

``--trace 0`` prints the end-to-end metrics, medians over the runs.
``--trace 1`` spends half the time on untraced runs, then makes two traced
runs with the same seed, requires their exact counts to agree, and prints the
per-layer metrics.  The last line of stdout is the JSON result; the line
before it records the environment.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_RUNS = 3
TRACED_RUNS = 2
DEADLINE_S = 170  # the whole invocation must end within 180 s


@dataclass(frozen=True)
class Workload:
    suite: str
    n: int
    samples: int | None  # None: the suite is exhaustive and takes no samples
    checked: int  # the report's ``checked`` on a passing run
    order: tuple[int, int] | None = None  # (comparable ordered pairs, cover edges)

    def argv(self, seed: int) -> list[str]:
        argv = ["verify", "--suite", self.suite, "--n", str(self.n), "--seed", str(seed), "--json"]
        if self.samples is not None:
            argv += ["--samples", str(self.samples)]
        return argv


# Short runs: many of them in one invocation give a steadier median.
ORBIT_SAMPLES = 5
POLARIZE_SAMPLES = 1
WORKLOADS = {
    "orbit": Workload("thm15", 8, ORBIT_SAMPLES, 50 * ORBIT_SAMPLES),
    "polarize": Workload("thm24", 6, POLARIZE_SAMPLES, 203),
    "covers": Workload("thm33", 8, None, 4140, order=(3_139_072, 20_500)),
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Run:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float
    status: int
    record: dict | None


def run_child(job: dict, env: dict, deadline: float) -> Run:
    """Start child.py, read its one line, reap it with its resource usage."""
    spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(job)],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    )
    killer = threading.Timer(max(1.0, deadline - spawn), proc.kill)
    killer.start()
    reaped = False
    try:
        out = proc.stdout.read()
        _, wait_status, usage = os.wait4(proc.pid, 0)
        reaped = True
        end = time.monotonic()
    finally:
        killer.cancel()
        proc.stdout.close()
        if not reaped:
            proc.kill()
            proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    try:
        record = json.loads(out.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        record = None
    ready = record["ready"] if record else end
    return Run(
        wall_s=end - spawn,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,  # Linux reports KiB
        setup_s=ready - spawn,
        status=proc.returncode,
        record=record,
    )


def gate(w: Workload, seed: int, status: int, record: dict | None, traced: bool) -> list[str]:
    """Why a run's output is wrong; empty when it is a full PASS report."""
    problems = [] if status == 0 else [f"exit status {status}"]
    if record is None:
        return problems + ["no result line"]
    if not Path(record.get("source", "")).resolve().is_relative_to(SRC):
        problems.append(f"rookposet imported from {record.get('source')}, not from {SRC}")
    try:
        reports = json.loads(record["stdout"])
    except ValueError:
        return problems + ["report is not JSON"]
    if not isinstance(reports, list) or len(reports) != 1 or not isinstance(reports[0], dict):
        return problems + ["expected exactly one report"]
    expected = {"suite": w.suite, "n": w.n, "seed": seed, "checked": w.checked, "failures": []}
    for key, want in expected.items():
        got = reports[0].get(key)
        if got != want:
            problems.append(f"report {key} is {str(got)[:80]}, expected {want}")
    if traced and w.order is not None and tuple(record.get("order") or ()) != w.order:
        problems.append(f"order and cover sizes {record.get('order')}, expected {list(w.order)}")
    return problems


def tampered(record: dict):
    """Copies of a passing record, each of which the gate must reject."""
    report = json.loads(record["stdout"])[0]

    def edit(**change) -> dict:
        return dict(record, stdout=json.dumps([dict(report, **change)]))

    yield "short report", 0, edit(checked=report["checked"] - 1)
    yield "failure listed", 0, edit(failures=[{"check": "tampered"}])
    yield "other seed", 0, edit(seed=report["seed"] + 1)
    yield "nonzero exit", 1, record
    yield "truncated output", 0, dict(record, stdout=record["stdout"][:-2])
    yield "missing output", 0, None
    if "order" in record:
        pairs, edges = record["order"]
        yield "lost cover edge", 0, dict(record, order=[pairs, edges - 1])


def gate_self_test(w: Workload, seed: int, record: dict, traced: bool) -> list[str]:
    """The tampered cases that the gate wrongly let through."""
    return [name for name, status, bad in tampered(record) if not gate(w, seed, status, bad, traced)]


def environment(seed: int, workload: str) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(numpy),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "workload": workload,
        "seed": seed,
    }


def _blas_threads(numpy) -> int | None:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import ctypes

    for path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "rookposet" / "cli.py").is_file():
        print(f"run.py: no rookposet sources under {SRC}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)  # no more BLAS threads than cores
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    w = WORKLOADS[args.workload]
    job = {"argv": w.argv(args.seed), "trace": False}
    untraced_s = args.seconds / 2 if args.trace else args.seconds

    failed = 0
    self_tested: set[bool] = set()

    def check(run: Run, traced: bool) -> None:
        """Gate one run; the first passing untraced and traced runs also test the gate."""
        nonlocal failed
        problems = gate(w, args.seed, run.status, run.record, traced)
        if not problems and traced not in self_tested:
            self_tested.add(traced)
            missed = gate_self_test(w, args.seed, run.record, traced)
            problems = [f"gate passed tampered output: {name}" for name in missed]
        failed += bool(problems)
        print(
            f"{'traced ' if traced else ''}run: wall {run.wall_s:.3f} s, cpu {run.cpu_s:.3f} s, "
            f"rss {run.peak_rss_mb:.1f} MB, setup {run.setup_s:.3f} s"
            + (f", FAILED: {'; '.join(problems)}" if problems else ""),
            file=sys.stderr,
        )

    runs: list[Run] = []
    # Start another run only while it should end inside the measured time.
    while len(runs) < MIN_RUNS or (
        time.monotonic() - start + statistics.median(r.wall_s for r in runs) <= untraced_s
    ):
        runs.append(run_child(job, env, deadline))
        check(runs[-1], traced=False)

    if args.trace:
        traced_job = dict(job, trace=True, order_n=w.n if w.order else None)
        traced = []
        for _ in range(TRACED_RUNS):
            traced.append(run_child(traced_job, env, deadline))
            check(traced[-1], traced=True)
        metrics, repeat_ok = layer_metrics(traced, statistics.median(r.wall_s for r in runs))
        if not repeat_ok:
            print("traced runs disagree on exact counts", file=sys.stderr)
            failed += 1
        attempted = len(runs) + len(traced)
    else:
        metrics = {
            name: {"value": statistics.median(getattr(r, name) for r in runs), "unit": unit}
            for name, unit in END_TO_END.items()
        }
        attempted = len(runs)

    print(json.dumps({"environment": environment(args.seed, args.workload)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def layer_metrics(traced: list[Run], untraced_wall: float) -> tuple[dict, bool]:
    """Per-layer calls, self time (median over traced runs) and trace overhead."""
    records = [r.record for r in traced]
    if any(rec is None or "layers" not in rec for rec in records):
        return {}, False
    layers = [rec["layers"] for rec in records]
    exact = [({k: v["calls"] for k, v in lay.items()}, rec["cells"]) for lay, rec in zip(layers, records)]
    metrics = {}
    for name in layers[0]:
        metrics[f"{name}.calls"] = {"value": layers[0][name]["calls"], "unit": "count"}
        metrics[f"{name}.self_s"] = {
            "value": statistics.median(lay[name]["self_s"] for lay in layers),
            "unit": "s",
        }
    metrics["exactlin.integer_rank.cells"] = {"value": records[0]["cells"], "unit": "count"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(r.wall_s for r in traced) - untraced_wall,
        "unit": "s",
    }
    return metrics, all(e == exact[0] for e in exact)


if __name__ == "__main__":
    sys.exit(main())
