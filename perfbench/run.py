"""extremecast benchmark.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  One run imports the package from the
checkout's ``src/``, then alternates setting its workload up and running
the workload's operation, until ``--seconds`` have passed and each has been
done often enough, checking every output.  An end-to-end figure is taken
over all the work of its kind in the run: total windows over total time, or
total time over the number of set-ups.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics
of BENCHMARK.json, taken with tracing off; with ``--trace 1`` they are its
per-layer metrics, from traced units alternated with untraced ones so the
tracing overhead can be reported.  The lines before it give the same
figures by name for a reader, and one ``detail`` JSON line with the machine,
the artifacts' SHA-256 digests and every sample.

``--smoke`` runs every workload at a tiny size, traced and untraced, and
checks that every metric is printed by name with its unit.

The process uses one BLAS thread, set before numpy is imported, so a run
never has more threads than the machine has cores.  Times are calibrated
seconds: that one thread's CPU time, scaled by the speed a reference kernel
run alongside measured in the same interval (see ``probe``).  Uncalibrated
CPU times are kept in the ``detail`` line.
"""

import os

BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from probe import Probe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (FULL, SMOKE, WORKLOADS, CheckFailed,  # noqa: E402
                       Context)

MODULES = ("cli", "pipeline", "data", "checkpoint", "training", "tensor",
           "model", "rng", "augment", "synthetic")
MAX_OPERATIONS = 10_000


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def import_package() -> dict:
    """Import extremecast from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        pkg = {name: importlib.import_module(f"extremecast.{name}")
               for name in MODULES}
    except ImportError as exc:
        raise BenchError(f"cannot import extremecast from {src}: {exc}") from exc
    origin = Path(pkg["cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise BenchError(f"extremecast was imported from {origin}, not {src}")
    return pkg


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS,
            "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "numba": importlib.util.find_spec("numba") is not None,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model()}


def ratio(num: float, den: float) -> float:
    return num / den if den else float("nan")


class Run:
    """One benchmark run: set-ups and operations, interleaved, with checks."""

    def __init__(self, workload, ctx: Context, tracer: Tracer | None):
        self.workload = workload
        self.ctx = ctx
        self.tracer = tracer
        self.attempted = 0
        self.failed: list[str] = []
        self.digests: dict[str, str] = {}
        self.setups: list[tuple[bool, object]] = []   # traced, SetupResult
        self.ops: list[tuple[bool, object]] = []      # traced, Outcome

    def _trace(self, traced: bool, kind: str, label: str):
        if traced:
            return lambda: self.tracer.collect(kind, label)
        return nullcontext

    def _attempt(self, label: str, body):
        """Run one unit; a failed check or error counts against ``label``."""
        self.attempted += 1
        try:
            result = body()
            for name, value in result.artifacts.items():
                first = self.digests.setdefault(name, value)
                if value != first:
                    raise CheckFailed(f"{name} is not byte-identical to its "
                                      "first repeat")
            return result
        except Exception:  # one failed unit must not end the run
            self.failed.append(label)
            print(f"{label} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None

    def _setup(self, i: int) -> float:
        """Set up once; returns the CPU time the program's calls took."""
        traced = self.tracer is not None and i % 2 == 0
        label = f"setup {i}"
        trace = self._trace(traced, "setup", label)
        gc.collect()
        result = self._attempt(label, lambda: self.workload.setup(self.ctx, trace))
        if result is None:
            return 0.0
        self.setups.append((traced, result))
        return result.raw

    def _operation(self, traced: bool, label: str):
        with self._trace(traced, "op", label)():
            outcome = self.workload.operation(self.ctx)
        if traced:
            counted = self.tracer.units["op"][-1]["model.predict_windows"]
            if counted != outcome.eval_windows:
                raise CheckFailed(f"{counted} windows forwarded in eval mode, "
                                  f"expected {outcome.eval_windows}")
        return outcome

    def _operate(self, i: int) -> None:
        traced = self.tracer is not None and i % 2 == 0
        label = f"op {i}"
        gc.collect()
        outcome = self._attempt(label, lambda: self._operation(traced, label))
        if outcome is not None:
            self.ops.append((traced, outcome))

    def measure(self, seconds: float) -> None:
        """Alternate set-ups and operations until each kind has enough.

        Set-ups: at least ``size.setups`` of them and ``size.setup_seconds``
        of CPU time in total.  Operations: at least two (two traced and one
        untraced when tracing) and ``seconds`` of wall time.  Interleaving
        the two spreads each kind's samples over the whole run.
        """
        size = self.ctx.size
        start = time.perf_counter()
        n_setups = n_ops = 0
        setup_time = 0.0
        while n_setups + n_ops < MAX_OPERATIONS:
            setups_done = n_setups >= size.setups and setup_time >= size.setup_seconds
            # traced runs alternate traced and untraced operations: T, U, T
            ops_done = (n_ops >= (3 if self.tracer is not None else 2)
                        and time.perf_counter() - start >= seconds)
            if setups_done and ops_done:
                break
            if not setups_done:
                setup_time += self._setup(n_setups)
                n_setups += 1
            if not ops_done:
                self._operate(n_ops)
                n_ops += 1
        if self.tracer is not None:
            for label, message in self.tracer.drift():
                print(f"{label}: exact counts drifted: {message}", file=sys.stderr)
                if label not in self.failed:
                    self.failed.append(label)

    # ----------------------------------------------------------- figures

    def end_to_end(self, traced: bool) -> dict:
        """End-to-end figures over all traced or all untraced units."""
        setups = [r for t, r in self.setups if t == traced]
        ops = [o for t, o in self.ops if t == traced]
        return {"setup_s": ratio(sum(r.seconds for r in setups), len(setups)),
                "prepare_s": ratio(sum(r.prepare_s for r in setups), len(setups)),
                "windows_per_s": ratio(sum(o.windows for o in ops),
                                       sum(o.seconds for o in ops))}

    def samples(self) -> dict:
        return {"setup_s": [r.seconds for _, r in self.setups],
                "setup_cpu_s": [r.raw for _, r in self.setups],
                "prepare_s": [r.prepare_s for _, r in self.setups],
                "setup_traced": [t for t, _ in self.setups],
                "operation_s": [o.seconds for _, o in self.ops],
                "operation_cpu_s": [o.raw for _, o in self.ops],
                "windows": [o.windows for _, o in self.ops],
                "operation_traced": [t for t, _ in self.ops],
                "probe_s": statistics.median(self.ctx.probe.samples)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metrics_for(run: Run, spec: dict, trace: bool) -> dict:
    if not trace:
        figures = run.end_to_end(traced=False)
        figures["peak_rss_mb"] = peak_rss_mb()
        wanted = spec["end_to_end"]
    else:
        traced, plain = run.end_to_end(True), run.end_to_end(False)
        figures = {f"trace.{name}_delta": traced[name] - plain[name]
                   for name in traced}
        known = run.tracer.metric_names()
        for m in spec["per_layer"]:
            if m["name"] in known:
                figures[m["name"]] = run.tracer.layer_value(m["name"])
        wanted = spec["per_layer"]
    missing = [m["name"] for m in wanted
               if not math.isfinite(figures.get(m["name"], math.nan))]
    if missing:
        raise BenchError(f"no measurement for {missing}")
    return {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
            for m in wanted}


def report(workload, args, run: Run, metrics: dict) -> None:
    """Human-readable lines; end-to-end metrics under their per-workload names,
    plus ``error_rate``, which is not a metric because it reads 0."""
    n_failed = len(run.failed)
    print(f"extremecast benchmark: workload {workload.name}, seed {args.seed}, "
          f"{args.seconds} s, trace {'on' if args.trace else 'off'}: "
          f"{len(run.ops)} operations, {len(run.setups)} set-ups")
    aliases = {"windows_per_s": workload.windows_metric}
    for name, m in metrics.items():
        print(f"  {aliases.get(name, name)} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  error_rate = {n_failed / run.attempted:.6g} ratio "
              f"({n_failed} of {run.attempted} operations failed)")


def measure(args) -> int:
    pkg = import_package()
    spec = load_spec()
    workload = WORKLOADS[args.workload]
    size = SMOKE if args.smoke else FULL
    workdir = ROOT / ".bench_build" / "perfbench" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with Probe() as probe:
            ctx = Context(pkg=pkg, seed=args.seed, size=size, workdir=workdir,
                          probe=probe)
            run = Run(workload, ctx, Tracer(pkg, probe) if args.trace else None)
            run.measure(args.seconds)
        for units in (run.setups, run.ops):
            if not all(any(t == traced for t, _ in units)
                       for traced in {False, bool(args.trace)}):
                raise BenchError("every set-up or operation of a kind failed")
        metrics = metrics_for(run, spec, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report(workload, args, run, metrics)
    detail = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "size": asdict(size),
              "machine": machine(), "digests": run.digests,
              "samples": run.samples(), "failed": run.failed}
    if args.trace:
        detail["self_s"] = {name: run.tracer.layer_value(name)
                            for name in sorted(run.tracer.metric_names())
                            if name.endswith("_self_s")}
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not run.failed, "attempted": run.attempted,
                      "failed": len(run.failed), "metrics": metrics}))
    return 0


# ----------------------------------------------------------------- smoke


def smoke() -> int:
    """Every workload at the smoke size, untraced and traced."""
    spec = load_spec()
    problems = []
    for name, workload in WORKLOADS.items():
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   name, "--seed", "0", "--seconds", "1", "--trace", str(trace),
                   "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            where = f"{name} trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} failed\n{proc.stderr}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {got} differ from {want}")
            printed = {f"  {n}": u for n, u in want.items()}
            if trace == 0:
                printed = {f"  {workload.windows_metric}" if n == "  windows_per_s"
                           else n: u for n, u in printed.items()}
                printed["  error_rate"] = "ratio"
            for label, unit in printed.items():
                if not any(line.startswith(label + " = ") and line.split()[3] == unit
                           for line in lines):
                    problems.append(f"{where}: no line for {label.strip()} in {unit}")
            print(f"{where}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} operations, {result['failed']} failed")
    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; without --workload, check every "
                             "workload and metric")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        if args.workload is None:
            if not args.smoke:
                parser.error("--workload is required unless --smoke is given")
            return smoke()
        return measure(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
