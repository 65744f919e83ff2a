"""Benchmark for sparselab: drives its CLI in-process, checks the outputs,
and prints end-to-end metrics (or, with --trace 1, per-layer metrics).

    python3 bench/run.py --workload mlp-schedulers --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one table
    python3 bench/run.py --write-spec                 # regenerate BENCHMARK.json

A run repeats rounds of the workload's CLI calls while the next round is
expected to end within --seconds, and reports medians over rounds. The first
round's outputs get every check in checks.py; every later round, and every
earlier run of the same code, workload and seed, must produce byte-identical
output files. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".bench_out")

import spec  # noqa: E402
import tracing  # noqa: E402
from checks import digest_outputs  # noqa: E402
from splb import CheckFailed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_program():
    """sparselab from this checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import sparselab.cli as cli
    except ImportError as e:
        sys.exit(f"bench: cannot import sparselab from {src}: {e}")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"bench: sparselab imported from {cli.__file__}, not {src}")
    return cli


def _blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None,
            "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                    if k in os.environ}}
    try:
        with open("/proc/self/maps") as f:
            libs = [line.split()[-1] for line in f if "openblas" in line and "/" in line]
    except OSError:  # not Linux: report no thread count
        libs = []
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        try:
            fn = getattr(ctypes.CDLL(libs[0]), sym)
        except (IndexError, OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        info["threads"] = fn()
        break
    return info


def _code_hash() -> str:
    """Identifies the commit's code: the program's and the benchmark's sources."""
    h = hashlib.sha256()
    for d in (os.path.join(ROOT, "src", "sparselab"), HERE):
        for f in sorted(os.listdir(d)):
            if f.endswith(".py"):
                with open(os.path.join(d, f), "rb") as fh:
                    h.update(f.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _run_op(cli, rec: tracing.Recorder, op) -> tuple[bool, int, str]:
    """One CLI call as one operation: (succeeded, root span index, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    rec.op = op.command
    i = rec.open("cli." + op.command)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except (Exception, SystemExit):
        code = None
        err.write(traceback.format_exc())
    finally:
        rec.close(i)
        rec.op = None
    if code != 0:
        sys.stderr.write(f"bench: {' '.join(op.argv)} failed ({code}):\n{err.getvalue()}\n")
    return code == 0, i, out.getvalue()


def execute_round(cli, work, out_dir: str, traced: bool, keep_datasets: bool):
    """Runs one round's CLI calls into a fresh out_dir. Returns the recorder
    and, per call, (op, succeeded, root span index, stdout)."""
    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(out_dir)
    rec = tracing.Recorder(keep_datasets=keep_datasets)
    with tracing.Patches(rec, traced):
        results = [(op,) + _run_op(cli, rec, op) for op in work.ops(out_dir)]
    return rec, results


def _round(cli, work, out_dir: str, traced: bool, check: bool) -> dict:
    rec, results = execute_round(cli, work, out_dir, traced, keep_datasets=check)
    setup = tracing.setup_by_op(rec)
    failed = sum(1 for _, ok, _, _ in results if not ok)
    stdout = {op.command: text for op, _, _, text in results}
    problem = None
    if check and not failed:
        try:
            work.check(out_dir, stdout, rec.kept_datasets)
        except CheckFailed as e:
            problem = str(e)
        except (OSError, KeyError, ValueError) as e:  # an output missing or unreadable
            problem = f"{type(e).__name__}: {e}"
    return {
        "wall_s": sum(rec.end[i] - rec.start[i] for _, _, i, _ in results),
        "setup_s": sum(setup.values()),
        "samples": sum(op.samples for op, ok, _, _ in results if ok),
        "train_s": sum(rec.end[i] - rec.start[i] - setup.get(i, 0.0)
                       for op, ok, i, _ in results if ok and op.samples),
        "attempted": len(results),
        "failed": failed,
        "problem": problem,
        "digest": digest_outputs(out_dir, stdout),
        "layers": tracing.layer_metrics(rec) if traced else None,
    }


def compare_with_earlier_runs(key: str, digest: dict) -> str | None:
    """Digests of every run of one code, workload and seed must agree."""
    d = os.path.join(OUT_ROOT, "digests")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, key + ".json")
    try:
        with open(path, "x", encoding="utf-8") as f:
            json.dump(digest, f, indent=1, sort_keys=True)
        return None
    except FileExistsError:
        with open(path, encoding="utf-8") as f:
            earlier = json.load(f)
    if earlier != digest:
        changed = sorted(k for k in set(earlier) | set(digest) if earlier.get(k) != digest.get(k))
        return f"outputs differ from an earlier run with the same code and seed: {changed}"
    return None


def run_workload(args) -> dict:
    t_import = perf_counter()
    cli = import_program()
    import_s = perf_counter() - t_import
    blas = _blas_info()
    print(f"blas: {json.dumps(blas)}")

    run_dir = os.path.join(OUT_ROOT, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    cfg_dir = os.path.join(run_dir, "configs")
    os.makedirs(cfg_dir, exist_ok=True)
    rounds = []
    problems = []
    try:
        work = WORKLOADS[args.workload](args.seed, cfg_dir)
        t0 = perf_counter()
        while True:
            k = len(rounds)
            started = perf_counter()
            r = _round(cli, work, os.path.join(run_dir, "round"), traced=bool(args.trace and k % 2),
                       check=(k == 0))
            r["round_s"] = perf_counter() - started
            rounds.append(r)
            sys.stderr.write(f"bench: round {k}{' traced' if r['layers'] else ''}: "
                             f"wall {r['wall_s']:.3f} s, set-up {r['setup_s']:.3f} s, "
                             f"{r['attempted']} calls, {r['failed']} failed\n")
            if r["problem"]:
                problems.append(r["problem"])
            if not (r["failed"] or rounds[0]["failed"]) and r["digest"] != rounds[0]["digest"]:
                problems.append(f"round {k} outputs differ from round 0")
            # the next round is expected to take as long as this one
            enough = len(rounds) >= (2 if args.trace else 1)
            if enough and perf_counter() - t0 + r["round_s"] > args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not any(r["failed"] for r in rounds):
        problem = compare_with_earlier_runs(
            f"{args.workload}-seed{args.seed}-{_code_hash()}", rounds[0]["digest"])
        if problem:
            problems.append(problem)
    for p in problems:
        sys.stderr.write(f"bench: check failed: {p}\n")
    sys.stderr.write(f"bench: {len(rounds)} rounds\n")

    plain = [r for r in rounds if r["layers"] is None]
    med = lambda key, rs: statistics.median(r[key] for r in rs)  # noqa: E731
    if args.trace:
        traced = [r for r in rounds if r["layers"] is not None]
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = med("wall_s", traced) - med("wall_s", plain)
    else:
        metrics = {
            "wall_s": med("wall_s", plain),
            "setup_s": import_s + med("setup_s", plain),
            "train_samples_per_s": statistics.median(r["samples"] / r["train_s"] for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    wanted = [n for n, *_ in (spec.PER_LAYER if args.trace else spec.END_TO_END)]
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {n: {"value": metrics[n], "unit": spec.UNITS[n]} for n in wanted},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"bench: {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = v
    return total


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = p.parse_args(argv)
    if args.write_spec:
        print(spec.write_benchmark_json(ROOT))
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    result = run_all(args) if args.workload == "all" else run_workload(args)
    for name, m in result["metrics"].items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    print(f"correct {result['correct']}, attempted {result['attempted']}, "
          f"failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
