#!/usr/bin/env python3
"""Runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

builds the benchmark binary in Release if needed (into $CARGO_TARGET_DIR,
default .bench_build, under the checkout root), runs workload W in its own
process, checks its outputs, and prints as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). The full report of the run, with its
recorded context, is saved under --out (default .bench_out).

Without --workload it runs all four workloads, each in its own process,
first untraced and then traced (unless --trace is given).
--calibrate instead measures each serving workload's capacity and prints
the rates to freeze into perfbench/workloads.json.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
# A run whose load generator fell this far behind its schedule (p99, ms)
# is kept but marked invalid; compare_runs.py skips it.
MAX_LAG_P99_MS = 0.5


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def git_commit():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build(build_dir):
    """Configures (Release) and builds the benchmark; returns the binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources under {ROOT}; nothing to build")
    cache = build_dir / "CMakeCache.txt"
    if cache.is_file():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:") and \
                    line.split("=", 1)[1] != "Release":
                fail(f"{build_dir} is a {line.split('=', 1)[1]} build; "
                     "the benchmark only runs Release builds")
    env = dict(os.environ, TMPDIR=str(build_dir / "tmp"))
    (build_dir / "tmp").mkdir(parents=True, exist_ok=True)
    if not cache.is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                       "--target", "dchag_perfbench"],
                      stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return build_dir / "dchag_perfbench"


def end_group(pgid):
    """Kills whatever is left of a run's process group and waits for it."""
    deadline = time.monotonic() + 10
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < deadline:
            os.killpg(pgid, 0)
            time.sleep(0.05)
    except ProcessLookupError:
        pass


def run_workload(binary, workload, seed, seconds, trace, rates, out_dir):
    """Runs one workload in its own process; returns its report dict."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out_dir)]
    if "nominal_rps" in rates:
        cmd += ["--nominal-rps", str(rates["nominal_rps"]),
                "--overload-rps", str(rates["overload_rps"])]
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    # Its own process group, so ingress worker processes end with it even
    # if the run dies before draining them.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        end_group(proc.pid)
        proc.communicate()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    end_group(proc.pid)
    lines = stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail(f"{workload} printed no report")


def print_table(workload, trace, report):
    print(f"== {workload} (trace {trace}) ==")
    for name, m in sorted(report["metrics"].items()):
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    ctx = report["context"]
    print("  context: " + ", ".join(f"{k}={ctx[k]}" for k in sorted(ctx)))


def result_line(report, names):
    metrics = {}
    for name in names:
        if name not in report["metrics"]:
            fail(f"the report lacks metric {name}")
        metrics[name] = report["metrics"][name]
    return {"correct": bool(report["outputs_ok"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": metrics}


def main():
    spec = load_json(ROOT / "BENCHMARK.json")
    rates_by_workload = load_json(HERE / "workloads.json")
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--out", default=".bench_out")
    ap.add_argument("--calibrate", action="store_true")
    args = ap.parse_args()

    binary = build(ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    out_dir = (ROOT / args.out).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.calibrate:
        return calibrate(binary, rates_by_workload, args, out_dir)

    plan = [(w, t) for t in ([args.trace] if args.trace is not None else
                             [0] if args.workload else [0, 1])
            for w in ([args.workload] if args.workload else workloads)]
    e2e = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    all_ok = True
    for workload, trace in plan:
        rates = rates_by_workload[workload]
        t0 = time.monotonic()
        report = run_workload(binary, workload, args.seed, args.seconds, trace,
                              rates, out_dir)
        lag = report["metrics"].get("client.lag_p99_ms", {}).get("value", 0.0)
        report["valid"] = (report["context"].get("build_type") == "Release"
                           and lag <= MAX_LAG_P99_MS)
        report["context"].update(git_commit=git_commit(),
                                 wall_s=round(time.monotonic() - t0, 3))
        (out_dir / f"{workload}-seed{args.seed}-trace{trace}.json").write_text(
            json.dumps(report, indent=1, sort_keys=True) + "\n")
        print_table(workload, trace, report)
        if not report["valid"]:
            print(f"  INVALID: client.lag_p99_ms {lag:.3f} > "
                  f"{MAX_LAG_P99_MS} ms", file=sys.stderr)
        line = result_line(report, per_layer if trace else e2e)
        all_ok = all_ok and line["correct"]
        print(json.dumps(line), flush=True)
    return 0 if all_ok else 1


def calibrate(binary, rates_by_workload, args, out_dir):
    """Capacity = overload-phase throughput when offered 3x the frozen
    overload rate; prints rates at each workload's nominal/overload share."""
    suggested = {}
    for workload, rates in rates_by_workload.items():
        if "nominal_rps" not in rates:
            suggested[workload] = rates
            continue
        probe = dict(rates, overload_rps=3 * rates["overload_rps"])
        report = run_workload(binary, workload, args.seed, args.seconds, 0,
                              probe, out_dir)
        cap = report["metrics"]["sat_throughput"]["value"]
        print(f"{workload}: capacity {cap:.0f} req/s", file=sys.stderr)
        suggested[workload] = dict(
            rates, nominal_rps=round(rates["nominal_frac"] * cap, -1),
            overload_rps=round(rates["overload_frac"] * cap, -1))
    print(json.dumps(suggested, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
