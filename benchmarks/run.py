"""Repository benchmark for homord.

    python3 benchmarks/run.py --workload {mc,structure,exact,cli} \\
        --seed N --seconds S --trace {0,1}

Run it from the repository root: it imports homord from ./src and reads the
metric list from ./BENCHMARK.json.  One closed-loop client: a single process
with one operation in flight, each started when the last one returns, no
threads or worker pools.  BLAS/OpenMP pools are pinned to one thread here
and in every child process.

--trace 0 repeats passes over the workload's operation list until S seconds
have gone by (at least one pass) and prints the end-to-end metrics:

  setup_s      median of three fresh-process set-ups (`import homord` plus
               the workload's fixed inputs): this process and two probes
  wall_s       median time of one pass, summed over its operations
  peak_rss_mb  largest resident set of this process or any child
  ok_ratio     operations that returned and passed their oracle, over
               operations attempted

setup_s and wall_s are in reference seconds: raw seconds scaled by the speed
of a fixed loop read just before and after each timed call, which damps the
shared machine's drifting speed; calls over 15 s stay raw (see
calibration.py).  The raw
seconds are printed with the provenance.

--trace 1 runs pass 0 untraced and then again traced, and prints the
per-layer metrics in raw seconds: self times and counts from spans around
every public homord function (see tracing.py), phase timings of the
untraced pass, and the tracing overhead (traced minus untraced pass time).
The cli workload calls homord.cli.main in-process for both passes of a
traced run.  Spans are written to .bench_out/spans-<workload>-<seed>.npz.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from calibration import REF_S, Clock, loop_seconds

BENCH_DIR = Path(__file__).resolve().parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
PROBES = 2  # fresh-process set-ups besides this process's own
OUT_DIR = ".bench_out"
PHASES = ("chain", "aut", "path", "assemble", "verdict")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "homord" / "__init__.py").is_file():
        print("error: no homord sources under ./src; run from the repository root", file=sys.stderr)
        return 2
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read ./BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(src)
    sys.path.insert(0, str(src))

    before = loop_seconds()
    t0 = time.perf_counter()
    import workloads

    t1 = time.perf_counter()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    t2 = time.perf_counter()
    setups = [{"import_s": t1 - t0, "setup_s": t2 - t0,
               "setup_ref_s": (t2 - t0) * REF_S / ((before + loop_seconds()) / 2)}]
    homord_file = Path(sys.modules["homord"].__file__).resolve()
    if src not in homord_file.parents:
        print(f"error: homord was imported from {homord_file}, not ./src", file=sys.stderr)
        return 2
    setups += [_probe(args.workload, args.seed) for _ in range(PROBES)]

    out_dir = root / OUT_DIR
    clock = Clock()
    if args.trace == 0:
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(_run_pass(workload, inputs, args, len(passes), "subprocess", out_dir, clock))
            if time.perf_counter() - start >= args.seconds:
                break
        records = [r for p in passes for r in p]
        metrics = {
            "setup_s": statistics.median(s["setup_ref_s"] for s in setups),
            "wall_s": statistics.median(_wall(p, ref=True) for p in passes),
            "peak_rss_mb": _peak_rss_mb(),
            "ok_ratio": sum(r.ok for r in records) / len(records),
        }
        wanted = spec["end_to_end"]
    else:
        import tracing

        untraced = _run_pass(workload, inputs, args, 0, "inprocess", out_dir, clock)
        rec = tracing.Recorder()
        with tracing.traced(rec):
            traced = _run_pass(workload, inputs, args, 0, "inprocess", out_dir, clock, rec)
        passes = [untraced, traced]
        records = untraced + traced
        metrics = _layer_metrics(rec, untraced, traced, setups)
        wanted = spec["per_layer"]
    _summary(args.workload, passes)

    prov = _provenance(root, src, args, setups)
    prov["raw_wall_s"] = [_wall(p) for p in passes]
    prov["ref_wall_s"] = [_wall(p, ref=True) for p in passes]
    prov["loop_s"] = {"ref": REF_S, "readings": clock.readings}
    if args.trace == 1:
        out_dir.mkdir(exist_ok=True)
        rec.dump(out_dir / f"spans-{args.workload}-{args.seed}.npz", prov)
    failed = sum(not r.ok for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps({"provenance": prov}, sort_keys=True))
    print(json.dumps(result))
    return 0


def _probe(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, env=os.environ, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@dataclass
class Record:
    op: object
    raw_s: float = 0.0
    ref_s: float = 0.0
    ok: bool = False


def _run_pass(workload, inputs, args, index: int, cli_mode: str, out_dir: Path, clock, rec=None):
    """Run one pass; returns one Record per operation.  Its seconds cover
    op.run only: preparing inputs and checking oracles are not timed."""
    workdir = out_dir / f"work-{os.getpid()}-{index}"
    if args.workload == "cli":
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
    paused = rec.paused if rec is not None else nullcontext
    records = []
    try:
        for op in workload.ops(inputs, args.seed, index, cli_mode, workdir):
            r = Record(op)
            try:
                if op.prepare is not None:
                    with paused():
                        op.prepare()
                result, r.raw_s, r.ref_s = clock.time(op.run)
                with paused():
                    op.check(result)
                r.ok = True
            except Exception:
                print(f"FAILED {op.name} (pass {index}):", file=sys.stderr)
                traceback.print_exc(limit=3, file=sys.stderr)
            records.append(r)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return records


def _wall(records, ref: bool = False) -> float:
    return sum(r.ref_s if ref else r.raw_s for r in records)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def _layer_metrics(rec, untraced, traced, setups) -> dict:
    import tracing

    m: dict[str, float] = dict(rec.counters)
    for span in tracing.FUNCTIONS.values():
        calls, self_s, total_s = rec.totals(span)
        m[f"{span}.calls"] = calls
        m[f"{span}.self_s"] = self_s
        m[f"{span}.s"] = total_s
    for name in tracing.SAMPLERS.values():
        m[f"samplers.{name}.self_s"] = rec.totals(f"samplers.{name}")[1]
    # phase timings come from the untraced pass: they carry no tracing overhead
    phase_s: dict[str, float] = defaultdict(float)
    samples = 0
    for r in untraced:
        phase_s[r.op.phase] += r.raw_s
        samples += r.op.samples
    for phase in PHASES:
        m[f"phase.{phase}_s"] = phase_s[phase]
    if phase_s["samples"]:
        m["phase.samples_per_s"] = samples / phase_s["samples"]
    m["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
    m["trace.untraced_wall_s"] = _wall(untraced)
    m["trace.traced_wall_s"] = _wall(traced)
    m["trace.overhead_s"] = _wall(traced) - _wall(untraced)
    m["trace.spans"] = len(rec.start)
    return m


def _summary(workload: str, passes) -> None:
    """Human-readable per-operation medians on stderr."""
    by_name: dict[str, list[float]] = defaultdict(list)
    for p in passes:
        for r in p:
            by_name[r.op.name].append(r.raw_s)
    walls = ", ".join(f"{_wall(p):.3f}" for p in passes)
    print(f"[{workload}] {len(passes)} pass(es), raw wall s: {walls}", file=sys.stderr)
    for name, times in sorted(by_name.items()):
        print(f"  {name:34s} n={len(times):4d} median {statistics.median(times) * 1e3:10.2f} ms"
              f"  total {sum(times):8.3f} s", file=sys.stderr)


def _provenance(root: Path, src: Path, args, setups) -> dict:
    import numpy
    import scipy

    import homord

    digest = hashlib.sha256()
    for path in sorted((src / "homord").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "homord": homord.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(root),
        "source_sha256": digest.hexdigest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "setups": setups,
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None when it is not itself a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},  # look no higher
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return None
    return lines[1]


if __name__ == "__main__":
    sys.exit(main())
