"""hashexit benchmark: routed inference, toy lab and BERT-scale accounting.

    python3 bench/run.py --workload infer-mid --seed 1 --seconds 20 --trace 0

Workloads: infer-mid, toy, price-bert, or `all` (one after another). Each
runs in its own child process (bench/workload.py) with one BLAS thread;
this parent reads the child's peak RSS from the kernel's rusage, writes a
run record under .bench_out/results/ and prints a summary, then one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics. Exits 1 if a child fails and 2 if the checkout has no
package to measure.
"""

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("infer-mid", "toy", "price-bert")
CHILD_TIMEOUT_S = 170
# One BLAS thread: load is one closed-loop caller, and the figures must
# not depend on how many cores happen to be free.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
# End-to-end figures printed and recorded beside the gated ones; not every
# workload has each, so BENCHMARK.json cannot list them.
E2E_EXTRAS = {"wall_speedup": "x", "ablation_s": "s", "difficulty_s": "s",
              "build_hash_s": "s", "priced_tokens_per_s": "tokens/s",
              "failed_share": "fraction", "cli.flops_report_speedup": "x"}


def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_child(workload, args, timeout):
    """Run one workload process; returns (result dict, peak RSS MB)."""
    result_path = OUT / "results" / f"child-{workload}-{os.getpid()}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size,
           "--result", str(result_path)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **THREAD_ENV})
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.send_signal(signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise RuntimeError(f"{workload} ran past {timeout} s")
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited with {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result_path.unlink()
    # Linux reports ru_maxrss in KiB
    return result, usage.ru_maxrss / 1024.0


def metric_block(names_units, values, prefix=""):
    out = {}
    for name, unit in names_units:
        value = values.get(name)
        if value is None:
            raise RuntimeError(f"metric {name} was not measured")
        out[prefix + name] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: seconds-long inputs for the smoke test")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "hashexit" / "__init__.py").is_file():
        print(f"error: no hashexit package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = spec()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    key = "per_layer" if args.trace else "end_to_end"
    wanted = [(m["name"], m["unit"]) for m in bench[key]]
    units = {**E2E_EXTRAS, **{m["name"]: m["unit"] for m in bench[key]}}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    records = []
    for workload in workloads:
        try:
            result, peak_mb = run_child(workload, args, CHILD_TIMEOUT_S)
        except (RuntimeError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        values = dict(result["per_layer"] if args.trace else result["e2e"])
        values["peak_rss_mb"] = peak_mb
        result["e2e"]["peak_rss_mb"] = peak_mb
        prefix = "" if len(workloads) == 1 else workload + "."
        try:
            metrics.update(metric_block(wanted, values, prefix))
        except RuntimeError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"== {workload} seed {args.seed}: {result['attempted']} "
              f"attempted, {result['failed']} failed, "
              f"{len(result['rounds'])} rounds")
        shown = [n for n, _ in wanted] + ([] if args.trace else list(E2E_EXTRAS))
        for name in shown:
            if name in values:
                print(f"   {name:<34} {values[name]:.6g} {units[name]}")
        for failure in result["failures"][:10]:
            print(f"   FAILED {failure}")
        records.append(result)
    record = {
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "git_commit": git_commit(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "thread_env": THREAD_ENV,
        "workloads": records,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = OUT / "results" / (f"{args.workload}-seed{args.seed}-"
                              f"trace{args.trace}-{stamp}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
