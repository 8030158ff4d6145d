"""qmac benchmark: one workload, one seed, a closed loop for a fixed time.

Usage (from the repository root):

    python3 perfbench/run.py --workload audit --seed 1 --seconds 20 --trace 0

One process, one thread, BLAS pinned to one thread: each call into qmac
waits for the previous one.  The last stdout line is the result object
(``correct``, ``attempted``, ``failed``, ``metrics``); the line before it
is a report with the environment and the per-workload metrics by their
long names.  ``--trace 1`` replays the timed operations under the span
tracer and reports per-layer metrics instead.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, for this process only: default BLAS threading
# on 4x4 matrices is both slower and noisier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import reference  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "quality": "score",
}

# Per-layer metrics, all per workload operation of the traced replay.
PER_LAYER = {
    **{f"{n}.{k}": u for n in tracing.SPAN_NAMES
       for k, u in (("calls", "count"), ("self_ms", "ms"))},
    "adversary.best_message_attack.evals": "count",
    "adversary.best_message_attack.pf_mean": "prob",
    "adversary.perfect_message_attack.found": "count",
    "adversary.simulate_key_reuse.trials": "count",
    "designer.security_score.secure": "count",
    "designer.security_score.secure_ratio": "ratio",
    "designer.optimize.haar_draws": "count",
    "cli.report_bytes.validate": "B",
    "cli.report_bytes.attack": "B",
    "cli.report_bytes.simulate": "B",
    "cli.report_bytes.demo": "B",
    "trace.ops": "count",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}


def load_qmac(root: Path) -> SimpleNamespace:
    """Import (or re-import) qmac from ``root/src`` and return its modules."""
    src = root / "src"
    if not (src / "qmac" / "__init__.py").is_file():
        raise FileNotFoundError(f"no qmac sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "qmac" or n.startswith("qmac.")]:
        del sys.modules[name]
    cli = importlib.import_module("qmac.cli")
    if Path(cli.__file__).resolve().parent != (src / "qmac").resolve():
        raise ImportError(f"qmac imported from {cli.__file__}, not {src}")
    names = ("config", "linalg", "protocol", "fixtures", "adversary",
             "conditions", "designer", "cli")
    return SimpleNamespace(**{n: sys.modules[f"qmac.{n}"] for n in names})


def percentile(xs: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(xs)
    return xs[max(1, math.ceil(pct * len(xs) / 100)) - 1]


def tail_percentile(n: int) -> int:
    """The highest whole percentile of ``n`` samples with ten samples beyond it.

    Below 20 samples no percentile at or above the median has ten beyond
    it, and the median is used.
    """
    return max(50, math.floor(100 * (n - 10) / n))


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    return None


def git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(root: Path, seed: int) -> dict:
    sources = sorted((root / "src" / "qmac").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": git_commit(root),
        "source_sha256": digest.hexdigest(),
    }


def timed_ops(wl, items, deadline: float | None = None, tracer=None) -> list[Op]:
    """Run, time and check each input in turn.

    With a ``deadline``, stops at the first whole batch past it, but never
    before ``wl.min_ops`` operations.
    """
    done = []
    nominal = reference.nominal(wl.reference_blocks)
    before = reference.measure(wl.reference_blocks)
    for i, inp in enumerate(items):
        if (deadline is not None and i >= wl.min_ops and i % wl.batch == 0
                and time.perf_counter() >= deadline):
            break
        span_op = tracer.recording(i) if tracer else contextlib.nullcontext()
        res, fails = None, []
        t0 = time.perf_counter()
        try:
            with span_op:
                res = wl.op(inp)
        except Exception:  # an operation that raises is a failed operation
            fails = [traceback.format_exc(limit=3)]
        elapsed = time.perf_counter() - t0
        after = reference.measure(wl.reference_blocks)
        scale = nominal / ((before + after) / 2)
        before = after
        if not fails:
            try:
                fails = wl.check(inp, res)
            except Exception:
                fails = [traceback.format_exc(limit=3)]
        done.append(Op(inp, res, elapsed * scale, scale, fails))
    return done


def per_layer(spans, replay: list[Op], untraced: list[Op], report: dict) -> dict:
    ops = len(replay)
    agg = tracing.aggregate(spans, scale=[op.scale for op in replay])
    out = {}
    for name, entry in agg.items():
        out[f"{name}.calls"] = entry["calls"] / ops
        out[f"{name}.self_ms"] = 1e3 * entry["self_s"] / ops
    bma = agg["adversary.best_message_attack"]
    score = agg["designer.security_score"]
    traced_s = sum(op.seconds for op in replay)
    untraced_s = sum(op.seconds for op in untraced)
    out.update({
        "adversary.best_message_attack.evals": bma.get("evals", 0) / ops,
        "adversary.best_message_attack.pf_mean": bma.get("pf", 0) / max(bma["calls"], 1),
        "adversary.perfect_message_attack.found":
            agg["adversary.perfect_message_attack"].get("found", 0) / ops,
        "adversary.simulate_key_reuse.trials":
            agg["adversary.simulate_key_reuse"].get("trials", 0) / ops,
        "designer.security_score.secure": score.get("secure", 0) / ops,
        "designer.security_score.secure_ratio": score.get("secure", 0) / max(score["calls"], 1),
        "designer.optimize.haar_draws": tracing.parent_counts(
            spans, "linalg.haar_random_unitary", "designer.optimize") / ops,
        "trace.ops": ops,
        "trace.overhead_ms": 1e3 * (traced_s - untraced_s) / ops,
        "trace.overhead_pct": 100 * (traced_s - untraced_s) / untraced_s,
    })
    for kind in ("validate", "attack", "simulate", "demo"):
        key = f"cli.report_bytes.{kind}"
        out[key] = report[key][0] if key in report else 0.0
    return {name: out[name] for name in PER_LAYER}


def completeness(wl, spans) -> list[str]:
    fired = {s.name for s in spans}
    return ([f"predicted span {n} never fired" for n in wl.expect if n not in fired]
            + [f"span {n} fired but was predicted absent" for n in wl.absent if n in fired])


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path = ROOT):
    """One benchmark run; returns (report, result) as printed by main()."""
    workdir = root / ".perfbench" / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setups, raw_setups = [], []
        blocks = WORKLOADS[workload].reference_blocks
        before = reference.measure(blocks)
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            q = load_qmac(root)
            wl = WORKLOADS[workload](q, workdir)
            inputs = wl.inputs(seed)
            leading = [next(inputs) for _ in range(wl.min_ops)]
            wl.warmup()
            raw_setups.append(time.perf_counter() - t0)
            after = reference.measure(blocks)
            setups.append(raw_setups[-1] * reference.nominal(blocks) / ((before + after) / 2))
            before = after

        gc.collect()
        done = timed_ops(wl, itertools.chain(leading, inputs),
                         deadline=time.perf_counter() + seconds)
        failures = {i: op.failures for i, op in enumerate(done) if op.failures}
        if not failures:
            failures = {i: f for i, f in wl.verify(done).items() if f}
        latencies = [op.seconds for op in done]
        raw = [op.seconds / op.scale for op in done]
        pct = tail_percentile(len(done))
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(done) / sum(latencies),
            "latency_p50_ms": 1e3 * percentile(latencies, 50),
            "latency_tail_ms": 1e3 * percentile(latencies, pct),
            "quality": 0.0,  # undefined when an operation failed
        }
        report = {}
        if not failures:
            metrics["quality"] = wl.quality(done)
            report = wl.report(done)
            report.update({alias: (metrics[name], END_TO_END[name])
                           for name, alias in wl.aliases.items()})
        wall = {
            "setup_s": statistics.median(raw_setups),
            "ops_per_s": len(done) / sum(raw),
            "latency_p50_ms": 1e3 * percentile(raw, 50),
            "latency_tail_ms": 1e3 * percentile(raw, pct),
            "reference_ms": 1e3 * reference.nominal(blocks) * statistics.median(
                1 / op.scale for op in done),
        }
        result_metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        attempted, problems = len(done), []

        if trace:
            tracer = tracing.Tracer()
            with tracer.install():
                replay = timed_ops(wl, [op.inp for op in done], tracer=tracer)
            attempted += len(replay)
            failures.update({len(done) + i: op.failures
                             for i, op in enumerate(replay) if op.failures})
            problems = completeness(wl, tracer.spans)
            tracer.write_jsonl(root / ".perfbench" / f"trace-{workload}.jsonl")
            result_metrics = {
                k: {"value": v, "unit": PER_LAYER[k]}
                for k, v in per_layer(tracer.spans, replay, done, report).items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rep = {
        "workload": workload,
        "why": wl.why,
        "environment": environment(root, seed),
        "loop": "closed, 1 client, 1 thread",
        "seconds": seconds,
        "operations": len(done),
        "latency_tail_percentile": pct,
        "setup_s_samples": setups,
        "wall_clock": wall,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "failures": {str(i): f for i, f in sorted(failures.items())[:10]},
        "trace_problems": problems,
    }
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result_metrics,
    }
    return rep, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 0 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds within [0, 600]")
    if not (ROOT / "src" / "qmac" / "__init__.py").is_file():
        print(f"error: qmac sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    rep, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(rep, sort_keys=True, allow_nan=False))
    print(json.dumps(result, allow_nan=False))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
