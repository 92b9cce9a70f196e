"""jmdp benchmark: one closed-loop client driving `jmdp.cli.main` in process.

    python3 bench/run.py --workload exact-chain --seed 1 --seconds 15 --trace 0

Each operation is one round of the workload's CLI calls (see workloads.py);
the next call starts only after the previous one returns. The run keeps
starting rounds until --seconds have passed, checks every call's outputs, and
prints as its last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (op_s, peak_rss_mb, setup_s,
ok_frac). --trace 1 alternates untraced and traced rounds and reports the
per-layer metrics of spans.py, taken as medians over the traced rounds. The
line before the result holds the run context (versions, BLAS threads, sizes,
samples). Nothing else runs during the timed rounds: setup_s comes from fresh
interpreters (setup_probe.py) started one at a time before them.

op_s is speed-calibrated. On a shared machine the speed of the same code
drifts by up to 1.6x over tens of seconds, so a 20-s run sees one speed phase
and the medians of separate runs spread by 15-30%. Around every round the run
times a fixed pure-Python chunk (`calibration_s`), and op_s is the median of
round wall time x CAL_REF_S / chunk time: the wall seconds the round would
take at the speed where the chunk takes CAL_REF_S. The raw wall seconds and
the chunk times are in the context line.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
# Chunk time at the reference speed: the median of 110 samples on a 2-vCPU
# Xeon VM at 2.1 GHz (Python 3.11). Only the scale of op_s depends on it.
CAL_REF_S = 1.5e-3
CAL_SECONDS = 0.3


def import_cli():
    """Import jmdp.cli from this checkout's src/, never from site-packages."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import jmdp.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "jmdp":
        raise ImportError(f"jmdp imported from {cli.__file__}, not {SRC / 'jmdp'}")
    return cli


def setup_seconds(name: str, seed: int, scale: str, work: Path) -> float:
    """Fresh-interpreter import jmdp plus config, env and policy building."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed), scale,
         str(work)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_op(cli, wl, config_dir: Path, out_dir: Path) -> tuple:
    """One round of the workload's calls: (seconds in main, failures, bytes)."""
    seconds, fails, written = 0.0, [], 0
    for call in wl.calls:
        out = out_dir / call.config
        shutil.rmtree(out, ignore_errors=True)
        argv = wl.argv(call, config_dir, out_dir)
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the op failed; count it and keep measuring
            code = f"{type(exc).__name__}: {exc}"
        seconds += time.perf_counter() - start
        if out.is_dir():
            written += _dir_bytes(out)
        if code != 0:
            fails.append(f"{call.config}: exit {code}")
            continue
        try:
            fails += workloads.check(wl, call, out)
        except (OSError, KeyError, ValueError) as exc:
            fails.append(f"{call.config}: unreadable output ({exc!r})")
    return seconds, fails, written


def highest_percentile(samples: list):
    """(p, value) for the highest of p50/p90/p95/p99 with >= 10 samples above it."""
    n = len(samples)
    best = None
    for p in (50, 90, 95, 99):
        if n * (100 - p) / 100 >= 10:
            best = (p, statistics.quantiles(samples, n=100)[p - 1])
    return best


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _blas() -> dict:
    """OpenBLAS build string and thread count, from the library numpy loaded."""
    import numpy as np

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # already loaded: this returns the same handle
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_config.restype = ctypes.c_char_p
                return {"config": get_config().decode(), "threads": get_threads()}
    return {"config": None, "threads": None}


def context(wl, args: dict) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "jmdp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _blas(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "sizes": wl.sizes,
        **args,
    }


def _chunk() -> int:
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return total


def calibration_s() -> float:
    """Mean time of a fixed pure-Python chunk, timed for about CAL_SECONDS."""
    start = time.perf_counter()
    count = 0
    while time.perf_counter() - start < CAL_SECONDS:
        _chunk()
        count += 1
    return (time.perf_counter() - start) / count


def measure(cli, wl, config_dir: Path, out_dir: Path, seconds: float,
            trace: bool) -> dict:
    """Start rounds until `seconds` have passed; at least one round (one
    untraced and one traced round in trace mode) always runs. The chunk is
    timed before the first round and after every round, outside the timing."""
    tracer = spans.Tracer()
    got = {"plain": [], "traced": [], "layer_rows": [], "attempted": 0, "failed": 0,
           "cal": [calibration_s()]}
    start = time.perf_counter()
    for n_pass in itertools.count():
        # Trace mode swaps the order of its two rounds on every pass, so that
        # neither kind always runs first.
        modes = ((False,) if not trace
                 else (False, True) if n_pass % 2 == 0 else (True, False))
        for traced_round in modes:
            if traced_round:
                tracer.instrument()
            first = len(tracer.spans)
            try:
                op_s, fails, written = run_op(cli, wl, config_dir, out_dir)
            finally:
                tracer.uninstrument()
            got["cal"].append(calibration_s())
            got["attempted"] += 1
            if fails:
                got["failed"] += 1
                print(f"op {got['attempted']} failed: {'; '.join(fails)}",
                      file=sys.stderr)
            if traced_round:
                got["traced"].append(op_s)
                got["layer_rows"].append(
                    spans.op_metrics(tracer.spans, first, len(tracer.spans), written))
            else:
                got["plain"].append(op_s)
        if time.perf_counter() - start >= seconds:
            return got


def run(name: str, seed: int, seconds: float, trace: bool, scale: str = "full",
        adjust=None) -> tuple:
    """Run one workload; returns (result line, context). `adjust(workload)`
    may change the workload before it runs (the smoke test forces failures)."""
    wl = workloads.build(name, seed, scale)
    if adjust is not None:
        adjust(wl)
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    try:
        config_dir = work / "configs"
        wl.write_configs(config_dir)
        setup = [] if trace else [
            setup_seconds(name, seed, scale, work / f"probe{i}")
            for i in range(SETUP_PROBES)]
        cli = import_cli()
        workloads.prepare(wl, workloads.build_inputs(cli, wl, config_dir))
        got = measure(cli, wl, config_dir, work / "out", seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's directory is still there
            pass

    attempted, failed, plain, cal = (
        got["attempted"], got["failed"], got["plain"], got["cal"])
    if trace:
        # median_low keeps each value a measured one, and counts whole numbers.
        metrics = {key: statistics.median_low(row[key] for row in got["layer_rows"])
                   for key in spans.PER_LAYER if key != "trace.overhead_frac"}
        metrics["trace.overhead_frac"] = (
            statistics.median(got["traced"]) / statistics.median(plain) - 1.0)
        units = spans.PER_LAYER
    else:
        # Untraced round i ran between chunk timings i and i + 1.
        metrics = {
            "op_s": statistics.median(
                op * CAL_REF_S * 2 / (cal[i] + cal[i + 1]) for i, op in enumerate(plain)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup),
            "ok_frac": (attempted - failed) / attempted,
        }
        units = {"op_s": "s", "peak_rss_mb": "MiB", "setup_s": "s", "ok_frac": "fraction"}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    ctx = context(wl, {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "scale": scale, "calls_per_op": len(wl.calls),
        "op_wall_s_samples": plain, "op_wall_s_traced_samples": got["traced"],
        "op_wall_s_median": statistics.median(plain),
        "op_wall_s_percentile": highest_percentile(plain), "cal_s_samples": cal,
        "setup_s_samples": setup, "fail_frac": failed / attempted,
    })
    return result, ctx


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SCALES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "jmdp" / "__init__.py").is_file():
        print(f"bench: no jmdp sources at {SRC / 'jmdp'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    result, ctx = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"context": ctx}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
