"""Sweep benchmark of pressqubo.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads are defined in
``workloads.py``.  Each sweep runs ``pressqubo sweep`` on a generated plan
in a fresh interpreter (``sweep_child.py``), with the checkout's ``src``
as ``PYTHONPATH``.

``--trace 0`` runs sweeps back to back (a closed loop with one client)
until the next one would pass ``--seconds``, at least one, and reports
the end-to-end metrics named in BENCHMARK.json: the median over the
run's sweeps of wall time (``sweep_s``), CPU time of the sweep process
and its pool workers (``cpu_s``) and peak resident set of either
(``peak_rss_mib``); the median spawn-to-import time of fresh
interpreters started before, with and after the sweeps (``setup_s``);
and the share of samples that are valid (``valid_share``).  It also prints the share of cells that found the
exact optimum (``opt_found_share``) and of failed cells
(``failed_share``).  They are not in BENCHMARK.json: the first moves
by more than any allowed bound from one workload seed to the next, and
the second is 0 whenever the output is correct.

``--trace 1`` runs one untraced sweep (plus one at one worker for a
pooled workload), then one traced sweep at one worker so that all spans
stay in one process, and reports the per-layer metrics of
``spans.layer_metrics``, pool utilisation (``cpu_s`` over workers times
``sweep_s`` of the untraced sweep) and the tracing overhead (traced
minus untraced ``sweep_s`` at one worker).  Counts
(``*.calls``, states, entries, bytes) must repeat exactly between traced
runs of the same code, workload and seed; the last counts are kept under
``.perfbench/counts/`` to check that.  ``lrqaoa.mixer.bytes_computed`` is
computed from array sizes, not measured.

Output check: each sweep's runs.csv, metrics.csv and report.json must be
byte-identical to the first sweep of the invocation.  At seed 0 the
exact-valued runs.csv columns must equal ``reference/<workload>.csv``,
which holds those columns of the seed-0 sweep as the program produced it
when the benchmark was added.  At other seeds every cell must hold as
many samples as its restarts or shots, and no best valid cost may lie
below the exact optimum.  A sweep that crashes, times out or fails a
check counts all its cells as failed.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (cells) and ``metrics``.  The lines before
it repeat every metric with its unit and record the machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from spans import layer_metrics, nearest_rank
from workloads import (
    REFERENCE_SEED,
    WORKLOADS,
    digests,
    exact_rows,
    invariant_problems,
    load_reference,
    read_runs,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench"

DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 5  # before the sweeps and again after them
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PERCENTILES = (50, 90, 99, 99.9)

# Counts that must repeat exactly between traced runs.
EXACT_COUNTS_SUFFIXES = (".calls", ".calls_per_cell", ".flip_attempts", ".states",
                         ".assignments", ".entries", ".bytes_computed", ".coefficients")


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

def tail_percentile(values) -> tuple[float, float] | None:
    """Highest of ``PERCENTILES`` with at least ten samples beyond it.

    Returns (percentile, nearest-rank value), or None for fewer than
    twenty samples.
    """
    n = len(values)
    eligible = [p for p in PERCENTILES if n * (100 - Fraction(str(p))) / 100 >= 10]
    if not eligible:
        return None
    p = max(eligible)
    return p, nearest_rank(values, p)


@dataclass
class Sweep:
    """One sweep's measurements and the verdict of its output check."""

    cells: int
    failed_cells: int = 0
    problems: list[str] = field(default_factory=list)
    setup_s: float | None = None
    sweep_s: float | None = None
    cpu_s: float | None = None
    peak_rss_mib: float | None = None
    rows: list[dict] = field(default_factory=list)

    @property
    def failed(self) -> int:
        """Cells with an error; every cell when the sweep failed its check."""
        return self.cells if self.problems else self.failed_cells


def tally(sweeps: list[Sweep]) -> tuple[int, int]:
    """(attempted, failed) cells over a run's sweeps."""
    return sum(s.cells for s in sweeps), sum(s.failed for s in sweeps)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # One BLAS/OpenMP thread per process keeps workers x threads <= nproc.
    # The kernels are elementwise or small matrix products that gain
    # nothing from a thread pool, while starting one adds about a fifth
    # to the import time and doubles its spread.
    for key in BLAS_THREAD_VARS:
        env[key] = "1"
    env.pop("PRESSQUBO_OUT", None)
    return env


def spawn(args: list[str], env: dict, cwd: Path, log: Path, timeout: float):
    """Run ``sweep_child.py``; returns (result doc or None, rusage, spawn time, note)."""
    with open(log, "w") as fh:
        spawned = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-s", str(HERE / "sweep_child.py"), *args],
                                env=env, cwd=cwd, stdout=fh, stderr=subprocess.STDOUT,
                                start_new_session=True)
    deadline = time.monotonic() + timeout
    note = None
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            note = f"timed out after {timeout:.0f} s"
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    _reap_group(proc.pid)
    result = cwd / args[args.index("--result") + 1]
    if note is None and proc.returncode != 0:
        note = f"exit code {proc.returncode}: {log.read_text()[-2000:]}"
    doc = None
    if note is None:
        doc = json.loads(result.read_text())
        if not Path(doc["pressqubo"]).resolve().is_relative_to(SRC.resolve()):
            note = f"imported pressqubo from {doc['pressqubo']}, not from {SRC}"
            doc = None
    return doc, usage, spawned, note


def _reap_group(pgid: int) -> None:
    """Kill what is left of a child's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


# ---------------------------------------------------------------------------
# One invocation
# ---------------------------------------------------------------------------

class Bench:
    def __init__(self, name: str, seed: int):
        import pressqubo
        from pressqubo import bench, model

        self.name, self.seed, self.workload = name, seed, WORKLOADS[name]
        self.started = time.perf_counter()
        self.nproc = len(os.sched_getaffinity(0))
        self.workers = min(self.workload.workers, self.nproc)
        self.dir = RUNS / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.plan = self.workload.plan(seed)
        (self.dir / "plan.json").write_text(json.dumps(self.plan, indent=2) + "\n")
        self.optima: dict[str, Fraction] = {}
        for inst_name in self.workload.instances:
            inst = model.bundled_instance(inst_name)
            model.save_instance(inst, self.dir / f"{inst_name}.json")
            self.optima[inst.id] = model.exact_solve(inst).cost
        self.cells = len(bench.expand_plan(self.plan))
        self.reference = None
        if seed == REFERENCE_SEED:
            self.reference = load_reference(HERE / "reference" / f"{name}.csv")
        self.first_digests: dict[str, str] | None = None
        self.pressqubo_version = pressqubo.__version__

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def setup_samples(self, tag: str, warm_up: bool) -> list[float]:
        """Spawn-to-import times of fresh interpreters."""
        env = child_env()
        out = []
        for k in range(SETUP_SAMPLES + warm_up):
            args = ["--result", f"setup-{tag}{k}.json"]
            doc, _, spawned, note = spawn(args, env, self.dir, self.dir / f"setup-{tag}{k}.log",
                                          max(1.0, self.remaining()))
            if note is not None:
                raise RuntimeError(f"set-up interpreter failed: {note}")
            if k or not warm_up:
                out.append(doc["ready"] - spawned)
        return out

    def sweep(self, k: int, workers: int, traced: bool = False) -> Sweep:
        out = self.dir / f"out-{k}"
        args = ["--result", f"result-{k}.json", "--plan", "plan.json",
                "--out", out.name, "--workers", str(workers)]
        if traced:
            args += ["--spans", f"spans-{k}.json", "--run-id", f"{self.name}-s{self.seed}-{k}"]
        doc, usage, spawned, note = spawn(args, child_env(), self.dir,
                                          self.dir / f"sweep-{k}.log", max(1.0, self.remaining()))
        result = Sweep(cells=self.cells)
        if note is not None:
            result.problems.append(f"sweep {k}: {note}")
            return result
        result.setup_s = doc["ready"] - spawned
        result.sweep_s = doc["sweep_s"]
        result.cpu_s = doc["cpu_s"]
        result.peak_rss_mib = usage.ru_maxrss / 1024
        if doc["exit_code"] != 0:
            result.problems.append(f"sweep {k}: pressqubo exited with {doc['exit_code']}")
            return result
        result.problems += self.check(k, out, result)
        return result

    def check(self, k: int, out: Path, result: Sweep) -> list[str]:
        try:
            sums = digests(out)
            rows = read_runs(out / "runs.csv")
        except OSError as exc:
            return [f"sweep {k}: {exc}"]
        result.rows = rows
        result.failed_cells = sum(1 for r in rows if r["error"])
        problems = []
        if self.first_digests is None:
            self.first_digests = sums
        for name, digest in sums.items():
            if digest != self.first_digests[name]:
                problems.append(f"sweep {k}: {name} differs from the first sweep's")
        if len(rows) != self.cells:
            problems.append(f"sweep {k}: {len(rows)} rows in runs.csv, expected {self.cells}")
        if self.reference is not None:
            got = exact_rows(rows)
            if got != self.reference:
                diff = next((i for i, (a, b) in enumerate(zip(got, self.reference)) if a != b),
                            min(len(got), len(self.reference)))
                problems.append(f"sweep {k}: exact-valued runs.csv columns differ from "
                                f"reference/{self.name}.csv at row {diff + 1}")
        problems += [f"sweep {k}: {p}" for p in invariant_problems(rows, self.optima)]
        return problems

    def quality(self, rows: list[dict]) -> dict[str, float]:
        scored = [r for r in rows if not r["error"]]
        samples = sum(int(r["n_samples"]) for r in scored)
        found = sum(1 for r in scored if r["best_valid_cost"]
                    and Fraction(r["best_valid_cost"]) == self.optima[r["instance_id"]])
        return {"valid_share": sum(int(r["n_valid"]) for r in scored) / samples if samples else 0.0,
                "opt_found_share": found / len(rows) if rows else 0.0}

    # -- modes ---------------------------------------------------------------

    def end_to_end(self, seconds: float):
        setup = self.setup_samples("a", warm_up=True)
        sweeps: list[Sweep] = []
        measured = time.perf_counter()
        while True:
            s = self.sweep(len(sweeps), self.workers)
            sweeps.append(s)
            if s.sweep_s is None:
                break
            typical = statistics.median(x.sweep_s for x in sweeps if x.sweep_s is not None)
            elapsed = time.perf_counter() - measured
            if elapsed + typical > seconds or typical * 1.5 > self.remaining():
                break
        ok = [s for s in sweeps if s.sweep_s is not None]
        setup += [s.setup_s for s in ok] + self.setup_samples("b", warm_up=False)
        metrics: dict[str, float] = {"setup_s": statistics.median(setup)}
        if ok:
            for key in ("sweep_s", "cpu_s", "peak_rss_mib"):
                metrics[key] = statistics.median(getattr(s, key) for s in ok)
            metrics.update(self.quality(ok[0].rows))
        attempted, failed = tally(sweeps)
        metrics["failed_share"] = failed / attempted
        notes = [f"setup_s samples: {len(setup)}"]
        times = [s.sweep_s for s in ok]
        tail = tail_percentile(times)
        notes.append(f"sweep_s samples: {len(times)}; " + (
            f"p{tail[0]:g} = {tail[1]:.4f} s" if tail else
            "no percentile has >= 10 samples beyond it"))
        return sweeps, metrics, notes

    def per_layer(self):
        """An untraced sweep, then a traced one at one worker.

        The tracing overhead compares sweeps at the same worker count, so
        a pooled workload also gets an untraced one-worker sweep.
        """
        sweeps = [self.sweep(0, self.workers)]
        if self.workers > 1:
            sweeps.append(self.sweep(1, 1))
        base, pooled = sweeps[-1], sweeps[0]
        traced = self.sweep(len(sweeps), 1, traced=True)
        sweeps.append(traced)
        metrics: dict[str, float] = {}
        notes = []
        if pooled.sweep_s is not None:
            metrics["bench.pool.utilisation"] = pooled.cpu_s / (self.workers * pooled.sweep_s)
        if traced.sweep_s is not None and not traced.problems:
            doc = json.loads((self.dir / f"spans-{len(sweeps) - 1}.json").read_text())
            metrics.update(layer_metrics(doc["spans"], doc["counts"]))
            metrics["trace.sweep_s"] = traced.sweep_s
            if base.sweep_s is not None:
                metrics["trace.overhead_s"] = traced.sweep_s - base.sweep_s
            notes.append(f"spans recorded: {len(doc['spans'])}; lrqaoa.mixer.bytes_computed "
                         "is computed from array sizes, not measured")
            traced.problems += self.check_counts(metrics)
        return sweeps, metrics, notes

    def check_counts(self, metrics: dict[str, float]) -> list[str]:
        """Counts must equal those of the last traced run of the same code."""
        counts = {k: v for k, v in metrics.items() if k.endswith(EXACT_COUNTS_SUFFIXES)}
        source = hashlib.sha256()
        for path in sorted(SRC.rglob("*.py")):
            source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
        store = RUNS / "counts" / f"{self.name}-s{self.seed}-{source.hexdigest()[:16]}.json"
        if store.exists():
            before = json.loads(store.read_text())
            changed = sorted(k for k in set(before) | set(counts) if before.get(k) != counts.get(k))
            if changed:
                return [f"counts differ from the previous traced run: {', '.join(changed)}"]
            return []
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
        return []


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------

def _read(path: str, default: str = "unknown") -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def machine_record(bench: Bench) -> dict:
    import numpy

    model = "unknown"
    for line in _read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"l{level}"] = _read(f"{index}/size")
    return {
        "nproc": bench.nproc,
        "cpu_model": model,
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "pressqubo": bench.pressqubo_version,
        "workers": bench.workers,
        "threads_per_process": {k: v for k, v in child_env().items() if k in BLAS_THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "pressqubo" / "__init__.py").is_file():
        print(f"error: no pressqubo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    bench = Bench(args.workload, args.seed)
    if args.trace:
        sweeps, metrics, notes = bench.per_layer()
    else:
        sweeps, metrics, notes = bench.end_to_end(args.seconds)
    attempted, failed = tally(sweeps)
    problems = [p for s in sweeps for p in s.problems]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        problems.append(f"metrics not measured: {', '.join(missing)}")
    machine = machine_record(bench)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(sweeps)} sweep(s) of {bench.cells} cells, {bench.workers} worker(s)")
    print("machine: " + json.dumps(machine, sort_keys=True))
    for m in wanted:
        if m["name"] in metrics:
            print(f"  {m['name']:<40} {metrics[m['name']]:>16.6g} {m['unit']}")
    listed = {m["name"] for m in wanted}
    for name in sorted(set(metrics) - listed):
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("_share") else "count"
        print(f"  {name:<40} {metrics[name]:>16.6g} {unit} (not in BENCHMARK.json)")
    for line in notes + problems:
        print(f"  {line}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    (bench.dir / "result.json").write_text(
        json.dumps(dict(result, machine=machine, problems=problems), indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
