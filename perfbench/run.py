"""boundkey benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is
``src/boundkey`` of that checkout, imported from source.  The run pins itself
to one CPU and starts the speed sidecar (see speed.py), sets up several times
(the median counts), then runs the workload as a closed loop until the next
step would end past ``--seconds``, and checks every output.  It prints JSON
lines: ``env``, ``named`` (the workload's own figures, in raw seconds) and,
last, the result ``{"correct", "attempted", "failed", "metrics"}``, whose
times and rates are in reference seconds.  With ``--trace 0`` the metrics are
the ``end_to_end`` list of BENCHMARK.json, measured untraced; with
``--trace 1`` they are its ``per_layer`` list, and the spans are also written
to ``.perfbench-work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_one_cpu() -> int:
    """Pin this process, and every process it starts, to the first CPU it may
    run on (see speed.py for why); returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _cap_threads(cpus: int) -> None:
    """Cap BLAS and OpenMP threads at the CPUs the run may use; must run
    before numpy loads."""
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, cpus))
        except ValueError:
            wanted = cpus
        os.environ[var] = str(max(1, min(wanted, cpus)))


def _blas_threads() -> int | None:
    """Threads the BLAS bundled with numpy reports, if it can be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _environment(nproc: int, cpu: int) -> dict:
    import numpy as np

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "boundkey").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "record": "env",
        "nproc": nproc,
        "pinned_cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _fresh_import(env: dict) -> None:
    """A fresh interpreter that imports boundkey.cli: the fixed cost of every
    CLI process."""
    subprocess.run([sys.executable, "-c", "import boundkey.cli"], env=env, check=True,
                   timeout=60)


def _peak_rss_mb(children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "boundkey" / "__init__.py").is_file():
        print(f"no boundkey sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    nproc = os.cpu_count() or 1
    cpu = _pin_one_cpu()
    _cap_threads(len(os.sched_getaffinity(0)))
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import numpy as np
    import boundkey

    import_s = time.perf_counter() - start
    if Path(boundkey.__file__).resolve().parent != (SRC / "boundkey").resolve():
        print(f"boundkey resolved to {boundkey.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from speed import Sidecar
    from tracer import Tracer, bind_layers, layer_metrics, wrapper_cost_s
    from workloads import WORKLOADS, Context, Tally, child_env

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env(ROOT)
    sidecar = Sidecar(workdir / "speed.txt")
    ctx = Context(
        rng=np.random.default_rng(np.random.SeedSequence([args.seed, 0x626B])),
        layers=bind_layers(tracer),
        tracer=tracer,
        workdir=workdir,
        env=env,
    )
    tally = Tally()
    try:
        sidecar.start()
        imports, fixtures = [], []
        for _ in range(SETUP_REPEATS):
            begin = time.perf_counter()
            _fresh_import(env)
            imports.append((begin, time.perf_counter()))
        for _ in range(SETUP_REPEATS):
            begin = time.perf_counter()
            fx = workload.setup(ctx)
            fixtures.append((begin, time.perf_counter()))

        loop_start = time.perf_counter()
        step_s: list[float] = []
        while not step_s or (
            time.perf_counter() - loop_start + statistics.median(step_s) <= args.seconds
        ):
            begin = time.perf_counter()
            workload.step(ctx, fx, tally)
            step_s.append(time.perf_counter() - begin)
        loop_end = time.perf_counter()
        named = workload.summary(ctx, fx, tally, loop_end - loop_start)
        sidecar.stop()
        sidecar.samples()
    finally:
        sidecar.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    def ref_s(start: float, end: float, duration: float | None = None) -> float:
        """A duration in reference seconds (see speed.py)."""
        return (end - start if duration is None else duration) / sidecar.slowdown(start, end)

    def op_ref_s(start: float, end: float, parts: list) -> float:
        return sum(ref_s(s, e) for s, e in parts)

    loop_slowdown = sidecar.slowdown(loop_start, loop_end)
    import_ref_s = statistics.median(ref_s(*iv) for iv in imports)
    op_p50 = statistics.median(op_ref_s(*op) for op in tally.ops)
    figures = {
        "setup_s": import_ref_s + statistics.median(ref_s(*iv) for iv in fixtures),
        "op_s.p50": op_p50,
        "ops_per_s": len(tally.ops) * loop_slowdown / (loop_end - loop_start),
        "peak_rss_mb": _peak_rss_mb(children=args.workload == "cli-verify"),
    }
    raw_import_s = [end - begin for begin, end in imports]
    raw_fixture_s = [end - begin for begin, end in fixtures]
    named = {
        "setup_s": {"value": statistics.median(raw_import_s) + statistics.median(raw_fixture_s),
                    "unit": "s", "fresh_import_s": raw_import_s, "fixture_s": raw_fixture_s,
                    "in_process_import_s": import_s},
        **named,
        "peak_rss_mb": {"value": figures["peak_rss_mb"], "unit": "MB"},
        "failed_ratio": {"value": tally.failed / max(tally.attempted, 1), "unit": "ratio",
                         "failed": tally.failed, "attempted": tally.attempted},
        "slowdown": {"value": loop_slowdown, "unit": "ratio",
                     "setup": sidecar.slowdown(imports[0][0], fixtures[-1][1]),
                     "samples": len(sidecar.samples())},
    }
    if tracer is not None:
        figures = layer_metrics(tracer, ref_s)
        figures["cli.import_s"] = import_ref_s
        figures["trace.spans"] = len(tracer.spans)
        figures["trace.overhead_s"] = len(tracer.spans) * wrapper_cost_s() / loop_slowdown
        figures["trace.op_s.p50"] = op_p50
        WORK.mkdir(exist_ok=True)
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_file)
        named["trace_file"] = str(trace_file.relative_to(ROOT))

    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in figures]
    if missing:
        print(f"metrics not computed: {missing}", file=sys.stderr)
        return 1
    print(json.dumps(_environment(nproc, cpu)))
    print(json.dumps({"record": "named", "workload": args.workload,
                      "operation": workload.operation, "trace": args.trace,
                      "metrics": named, "failures": tally.failures}))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": float(figures[m["name"]]), "unit": m["unit"]}
                    for m in listed},
    }))
    return 0

if __name__ == "__main__":
    sys.exit(main())
