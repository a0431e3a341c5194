#!/usr/bin/env python3
"""Build and run the pipeline benchmark (perfbench).

    python3 perfbench/run.py --workload <adapt_cycle|parma_tables|halo_solve>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library from src/ plus the driver (perfbench.cpp) into $CARGO_TARGET_DIR
(default .bench_build) as a Release build; later runs only re-check it.
Build output goes to stderr, so the last stdout line is the driver's result
object. The run refuses to start when a behaviour-changing PUMI_* variable
is set, and fails when the driver's metric names drift from BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Each of these changes what the library does (tracing, fault injection,
# reliable delivery, integrity armor, layout, bench scale).
FENCED_ENV = ("PUMI_TRACE", "PUMI_TRACE_FILE", "PUMI_FAULTS", "PUMI_RELIABLE",
              "PUMI_INTEGRITY", "PUMI_NO_REORDER", "PUMI_REPRO_SCALE")

RUN_TIMEOUT_S = 170
MIN_REPS = 3
SETUP_SAMPLES = 9


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "none (git unavailable)"
    return out.stdout.strip() if out.returncode == 0 else "none (not a git checkout)"


def cmake_cache(bdir, key):
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return "unknown"


def compiler(bdir):
    path = cmake_cache(bdir, "CMAKE_CXX_COMPILER")
    out = subprocess.run([path, "--version"], capture_output=True, text=True)
    return out.stdout.splitlines()[0] if out.returncode == 0 else path


def source_digest():
    """sha256 over the sources the binary is built from (path + content)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Driver:
    """Launches one driver process per repetition, within the run's deadline."""

    def __init__(self, binary, args, scratch):
        self.base = [binary, "--workload", args.workload, "--seed", str(args.seed)]
        self.scratch = scratch
        self.deadline = time.monotonic() + RUN_TIMEOUT_S

    def once(self, *extra):
        cmd = self.base + ["--scratch", self.scratch] + list(extra)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            fail(f"run exceeded {RUN_TIMEOUT_S} s")
        try:
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                 cwd=ROOT, timeout=timeout)
        except subprocess.TimeoutExpired:
            fail(f"run exceeded {RUN_TIMEOUT_S} s")
        lines = out.stdout.strip().splitlines()
        if not lines:
            fail(f"driver printed no result (exit {out.returncode}): {' '.join(cmd)}")
        return json.loads(lines[-1])


def end_to_end(reps, setups, attempted, failed):
    counts = reps[0]["counts"]
    return {
        "wall_s": (median([r["wall_s"] for r in reps if not r["traced"]]), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in reps]), "MB"),
        "elem_imbalance": (counts["elem_imbalance"], "ratio"),
        "vtx_imbalance": (counts["vtx_imbalance"], "%"),
        "boundary_vtx": (counts["boundary_vtx"], "count"),
        "check_pass_ratio": (1.0 - failed / attempted, "ratio"),
    }


def per_layer(reps, units):
    counts = reps[0]["counts"]
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    m = {}
    for name in traced[0]["times"]:
        m[name] = median([r["times"][name] for r in traced])
    for name in units:
        if name in counts:
            m[name] = counts[name]
    iters = counts.get("solver.iters", 0)
    per_iter = (lambda v: v / iters) if iters else (lambda v: 0.0)
    m["solver.iters"] = iters
    m["solver.ms_per_iter"] = per_iter(1000.0 * m["solver.solve_s"])
    for k in ("msgs_logical", "msgs_physical", "bytes"):
        m[f"solver.{k}_per_iter"] = per_iter(counts.get(f"solver.{k}", 0))
    traced_wall = median([r["wall_s"] for r in traced])
    cpu = median([r["cpu_s"] for r in traced])
    m["proc.cpu_s"] = cpu
    m["proc.cpu_util"] = cpu / traced_wall
    m["trace.wall_s"] = traced_wall
    m["trace.overhead"] = traced_wall / median([r["wall_s"] for r in untraced]) - 1.0
    return {name: (m.get(name, 0.0), unit) for name, unit in units.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["adapt_cycle", "parma_tables", "halo_solve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for var in FENCED_ENV:
        if var in os.environ:
            fail(f"refusing to run: {var} is set; it changes the measured "
                 "program. Unset it.", 2)

    units = expected_metrics(args.trace)
    binary = build(build_dir())
    scratch = os.path.join(build_dir(), f"scratch-{os.getpid()}")
    spans_dir = os.path.join(build_dir(), "spans")
    os.makedirs(spans_dir, exist_ok=True)
    driver = Driver(binary, args, scratch)
    reps, attempted, failed = [], 0, 0
    start = time.monotonic()
    try:
        # Repetitions until --seconds have passed, at least MIN_REPS. With
        # --trace 1 every second one is traced.
        while len(reps) < MIN_REPS or time.monotonic() - start < args.seconds:
            traced = args.trace == 1 and len(reps) % 2 == 1
            spans = os.path.join(
                spans_dir, f"{args.workload}-seed{args.seed}-rep{len(reps)}.json")
            rep = driver.once("--trace", "1" if traced else "0", "--spans", spans)
            rep["traced"] = traced
            attempted += rep["attempted"]
            failed += rep["failed"]
            if reps:  # every count and quality number repeats exactly
                first = reps[0]["counts"]
                diff = sorted(k for k in rep["counts"].keys() | first.keys()
                              if rep["counts"].get(k) != first.get(k))
                attempted += 1
                if diff:
                    failed += 1
                    print(f"perfbench: determinism defect: repetition {len(reps)} "
                          f"differs from repetition 0 in {diff}", file=sys.stderr)
            print(f"perfbench: {args.workload} rep {len(reps)}"
                  f"{' (traced)' if traced else ''}: setup {rep['setup_s']:.3f} s, "
                  f"wall {rep['wall_s']:.3f} s", file=sys.stderr)
            reps.append(rep)
        # Cheap set-ups get a few extra samples, within a tenth of the run.
        setups = [r["setup_s"] for r in reps]
        extra_start = time.monotonic()
        while (len(setups) < SETUP_SAMPLES
               and time.monotonic() - extra_start < 0.1 * args.seconds):
            setups.append(driver.once("--mode", "setup")["setup_s"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = (per_layer(reps, units) if args.trace
               else end_to_end(reps, setups, attempted, failed))
    if {k: u for k, (_, u) in metrics.items()} != units:
        fail("metric names or units differ from BENCHMARK.json")
    provenance = {
        "commit": commit(), "source_digest": source_digest(),
        "build_type": cmake_cache(build_dir(), "CMAKE_BUILD_TYPE"),
        "compiler": compiler(build_dir()),
        "nproc": os.cpu_count(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "runs": len(reps),
        "traced_runs": sum(r["traced"] for r in reps), "setup_samples": len(setups),
    }
    print(json.dumps({"provenance": provenance, "counts": reps[0]["counts"]}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
