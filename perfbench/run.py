"""graphex benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It imports graphex from ``src/`` (never an
installed copy), measures set-up in fresh processes, then repeats rounds of
the workload until ``--seconds`` have passed, always finishing at least one
round. Every operation's output is checked. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``). Everything else printed before it is informational. Outputs
go to ``perfbench/out/`` and ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# NumPy asks the kernel for transparent huge pages for large arrays, and
# whether it gets them depends on how fragmented the machine's memory is at
# the time. So that time and peak memory do not depend on that, the
# benchmark, and the processes it starts, ask for none.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up is timed in fresh processes, which the speed probe cannot sample.
# One child's time spreads by 20-30% from one child to the next and drifts
# with the machine's speed over minutes, and the probe's interpreter loop does
# not track work that reads and links modules. So each set-up child is paired
# with a reference child that imports the same third-party modules without
# graphex, and set-up is reported as REF_IMPORT_S times the median ratio of
# the two. Reference and set-up children alternate in order.
SETUP_SAMPLES = 3
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from graphex.model import build
for spec in json.loads(sys.argv[2]):
    build(spec)
print(repr(time.perf_counter() - t0))
"""
REF_CODE = """
import time
t0 = time.perf_counter()
import numpy, scipy.integrate, scipy.special, scipy.stats
print(repr(time.perf_counter() - t0))
"""
# the reference child's median time on the machine the bounds were set on
# (2 cores, Python 3.11.7, NumPy 2.4.6, SciPy 1.17.1)
REF_IMPORT_S = 1.0
PARTS = ("part1", "part2", "part3")


def _child_seconds(args) -> float:
    done = subprocess.run([sys.executable, "-c", *args], capture_output=True, text=True,
                          timeout=120, check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def measure_setup(decls) -> tuple:
    """(set-up seconds, reference seconds) of SETUP_SAMPLES pairs of fresh
    processes: one imports graphex and builds ``decls``, the other imports
    only the third-party modules."""
    # set-up children load graphex from its bytecode cache, as every import
    # after the first does, whether or not the environment lets them write it
    compileall.compile_dir(str(SRC / "graphex"), quiet=1)
    children = {"setup": [SETUP_CODE, str(SRC), json.dumps(decls)], "ref": [REF_CODE]}
    times = {"setup": [], "ref": []}
    for i in range(SETUP_SAMPLES):
        for name in (("ref", "setup") if i % 2 == 0 else ("setup", "ref")):
            times[name].append(_child_seconds(children[name]))
    return times["setup"], times["ref"]


def environment(seed: int, why: str) -> dict:
    import numpy
    import scipy
    return {"seed": seed, "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "why": why}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="graphex benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "graphex" / "__init__.py").is_file():
        print(f"perfbench: no graphex sources under {SRC}; run from the root of a "
              "graphex checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import graphex
    if Path(graphex.__file__).resolve().parent != (SRC / "graphex").resolve():
        print(f"perfbench: imported graphex from {graphex.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{', '.join(workloads.WORKLOADS)}")
    round_fn, info_fn, decls, why = workloads.WORKLOADS[args.workload]
    import tracer as tracermod
    from probe import SpeedProbe
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}"
    out_dir = HERE / "out" / run_id
    out_dir.mkdir(parents=True, exist_ok=True)
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)

    raw_setup, ref_setup = measure_setup(decls)
    setup = [REF_IMPORT_S * t / r for t, r in zip(raw_setup, ref_setup)]
    probe = SpeedProbe()
    tracer = None
    rounds = []
    probe.start()
    try:
        if args.trace:
            tracer = tracermod.Tracer(run_id)
            tracer.install()
        t_start = time.monotonic()
        while True:
            # round 0 runs at the given seed; later rounds at derived ones
            rd = workloads.Round(args.seed + 1_000_003 * len(rounds), out_dir,
                                 keep_digest=not rounds)
            round_fn(rd)
            if not rounds:
                # before any output check: the peak is the program's own
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            rd.finish()
            rounds.append(rd)
            if time.monotonic() - t_start >= args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.restore()
        probe.stop()

    ops = [op for rd in rounds for op in rd.ops]
    for op in ops:
        op["s"] = probe.calibrate(op["start"], op["end"])
    raw_wall_s = statistics.median(sum(op["raw_s"] for op in rd.ops) for rd in rounds)
    attempted = len(ops)
    failed = sum(not op["ok"] for op in ops)
    wall_s = statistics.median(rd.wall for rd in rounds)
    e2e = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    for part in PARTS:
        e2e[f"{part}_s"] = (statistics.median(rd.part_seconds(part) for rd in rounds), "s")
    info = {"failed_frac": (failed / attempted, "1"),
            "raw_wall_s": (raw_wall_s, "s"),
            "raw_setup_s": (statistics.median(raw_setup), "s"),
            "ref_import_s": (statistics.median(ref_setup), "s"),
            "probe_slowdown": (probe.slowdown(), "1")}
    info.update(info_fn(rounds))
    verdicts = {}
    for rd in rounds:
        for key, ok in rd.verdicts.items():
            verdicts.setdefault(key, [0, 0])[0 if ok else 1] += 1

    result_path = results_dir / f"{run_id}.json"
    record = {
        "workload": args.workload, "rounds": len(rounds), "trace": args.trace,
        "env": environment(args.seed, why),
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "info": {k: v for k, (v, _) in info.items()},
        "setup_samples_s": setup,
        "setup_raw_samples_s": raw_setup,
        "setup_ref_samples_s": ref_setup,
        "package_verdicts_true_false": verdicts,
        "digest_sha256": rounds[0].digest.hexdigest(),
        "ops": ops,
    }
    if tracer is not None:
        metrics = tracer.metrics(wall_s)
        tracer.write(out_dir / "spans.jsonl")
        record["per_layer"] = {k: v for k, (v, _) in metrics.items()}
        untraced = results_dir / f"{args.workload}-s{args.seed}-t0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text(encoding="utf-8"))["end_to_end"]["wall_s"]
            info["trace_overhead_s"] = (wall_s - base, "s")
            record["info"]["trace_overhead_s"] = wall_s - base
    else:
        metrics = e2e
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    env = record["env"]
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"trace {args.trace}  ops {attempted}  failed {failed}")
    print(f"why {why}")
    print(f"env python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"nproc {env['nproc']}")
    for name, (value, unit) in list(e2e.items()) + list(info.items()):
        print(f"{name} {value!r} {unit}")
    for key, (n_true, n_false) in sorted(verdicts.items()):
        print(f"package verdict {key}: {n_true} true, {n_false} false (reported, not gated)")
    print(f"digest sha256 {record['digest_sha256']} (round 0 outputs)")
    if tracer is not None:
        for name, (value, unit) in metrics.items():
            print(f"layer {name} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
