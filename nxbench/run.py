#!/usr/bin/env python3
"""Build and run the nxbench benchmark from the root of a checkout.

    python3 nxbench/run.py --workload eval_sweep --seed 1 --seconds 12 --trace 0
    python3 nxbench/run.py --workload all          # every workload, one after another

Builds the library and the benchmark binary from source into .bench_build/ (CMake,
Release + LTO), runs one workload in its own process, checks the canonical
fingerprints against nxbench/pinned.json, writes a result file stamped with
host/build/commit metadata to .nxbench_out/, prints every metric with its
unit and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports BENCHMARK.json's end_to_end metrics, --trace 1 its
per_layer metrics. Exit status: 0 correct, 1 a check failed, 2 the
benchmark could not build or run.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".nxbench_out")
WORKLOADS = ("eval_sweep", "train_sweep", "fleet_rounds")
DEFAULT_SEED = 1  # the seed whose full-run fingerprints are pinned
RUN_TIMEOUT_S = 170
# Latency percentiles: measured and compared, not gated (see README.md).
REPORTED = {"op_ms_per_sim_s_p50": "lower", "op_ms_per_sim_s_p90": "lower",
            "round_ms_p50": "lower", "round_ms_p90": "lower"}


def die(message):
    print(f"nxbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def cache_matches():
    """True when .bench_build was configured for this checkout's nxbench/."""
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt"), encoding="utf-8") as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    home = line.split("=", 1)[1].strip()
                    return os.path.realpath(home) == os.path.realpath(BENCH_DIR)
    except OSError:
        pass
    return False


def build():
    """Configures once, then (re)builds; returns the benchmark binary's path.
    A build tree configured elsewhere (a moved or copied checkout), or one
    whose incremental build fails, is wiped and built once more from
    scratch before the build counts as failed."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        die(f"no library sources at {os.path.join(ROOT, 'src')}")
    jobs = str(min(4, os.cpu_count() or 1))
    log_path = os.path.join(BUILD_DIR, "nxbench-build.log")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"] + generator
    compile_ = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    for fresh in (False, True):
        if (fresh or not cache_matches()) and os.path.isdir(BUILD_DIR):
            shutil.rmtree(BUILD_DIR)
        os.makedirs(BUILD_DIR, exist_ok=True)
        steps = ([] if cache_matches() else [configure]) + [compile_]
        with open(log_path, "w", encoding="utf-8") as log:
            failed = next((cmd for cmd in steps
                           if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode),
                          None)
        if failed is None:
            return os.path.join(BUILD_DIR, "nxbench")
        if fresh:
            with open(log_path, encoding="utf-8") as f:
                sys.stderr.write(f.read()[-4000:])
            die("build failed: " + " ".join(failed))


def source_digest():
    """SHA-256 over the library and benchmark sources (identity without git)."""
    h = hashlib.sha256()
    for top in ("src", "nxbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_binary(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns its report dict."""
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    # The binary takes a 64-bit seed; any integer maps onto one.
    cmd = [binary, "--workload", workload, "--seed", str(seed % 2**64), "--seconds", str(seconds),
           "--trace", str(trace), "--scratch", scratch]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"{workload} exited with status {proc.returncode}")
    return json.loads(lines[-1])


def check_fingerprints(workload, seed, report, pinned):
    """Compares the run's fingerprints with the pinned ones; returns
    (attempted, failed, rows)."""
    pins = pinned.get(workload, {})
    wanted = [("setup", "setup")]
    if seed == DEFAULT_SEED:
        wanted.append(("run", "run_seed1"))
    rows = []
    failed = 0
    for key, pin_key in wanted:
        got = report["fingerprints"].get(key)
        want = pins.get(pin_key)
        ok = got is not None and got == want
        failed += 0 if ok else 1
        rows.append({"fingerprint": key, "observed": got, "pinned": want, "match": ok})
    return len(wanted), failed, rows


def run_one(binary, bench, pinned, workload, seed, seconds, trace, meta):
    report = run_binary(binary, workload, seed, seconds, trace)
    attempted = report["attempted"]
    failed = report["failed"]
    fp_attempted, fp_failed, fp_rows = check_fingerprints(workload, seed, report, pinned)
    attempted += fp_attempted
    failed += fp_failed
    metrics = {}
    errors = list(report["errors"])
    for spec in bench["per_layer"] if trace else bench["end_to_end"]:
        name = spec["name"]
        got = report["metrics"].get(name)
        if got is None or got["value"] is None or got["unit"] != spec["unit"]:
            failed += 1
            errors.append(f"metric {name} missing or not in {spec['unit']}: {got}")
            continue
        metrics[name] = {**{k: v for k, v in spec.items() if k != "name"}, "value": got["value"]}
    reported = {name: dict(m, better=REPORTED[name])
                for name, m in report["metrics"].items() if name in REPORTED}
    errors += [f"fingerprint {r['fingerprint']}: observed {r['observed']}, pinned {r['pinned']}"
               for r in fp_rows if not r["match"]]
    correct = failed == 0
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "metrics": metrics,
        "reported": reported,
        "outcomes": report["outcomes"],
        "info": report["info"],
        "fingerprints": fp_rows,
        "errors": errors,
        "metadata": dict(meta, compiler=report["build"]["compiler"],
                         flags=report["build"]["flags"], workers=report["info"]["workers"],
                         clock_lap_ns=report["info"]["clock_lap_ns"]),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")
    print_summary(result, path)
    return result


def print_summary(result, path):
    print(f"== {result['workload']} seed={result['seed']} seconds={result['seconds']} trace={result['trace']} "
          f"workers={result['metadata']['workers']}")
    info = result["info"]
    for name, m in sorted(result["metrics"].items()):
        print(f"  {name:<26} {m['value']:>16.6g} {m['unit']}")
    for name, m in sorted(result["reported"].items()):
        print(f"  {name:<26} {m['value']:>16.6g} {m['unit']}  (not gated)")
    for name, m in sorted(result["outcomes"].items()):
        print(f"  {name:<26} {m['value']:>16.6g} {m['unit']}  (simulated)")
    if "op_samples" in info:
        print(f"  {'op samples':<26} {info['op_samples']:>16.0f}")
    if result["trace"] and "core.next_control_ns" in result["metrics"]:
        print(f"  {'paper Section V agent cost':<26} {227:>16} ns per decision "
              f"(measured here: {result['metrics']['core.next_control_ns']['value']:.0f} ns)")
    print(f"  {'fail_ratio':<26} {result['fail_ratio']:>16.6g} "
          f"({result['failed']}/{result['attempted']})")
    for e in result["errors"][:10]:
        print(f"  ERROR {e}")
    print(f"  result file: {os.path.relpath(path, ROOT)}")


def main():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    pinned = load_json(os.path.join(BENCH_DIR, "pinned.json"))
    meta = {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "source_digest": source_digest(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_one(binary, bench, pinned, w, args.seed, args.seconds, args.trace, meta)
               for w in workloads]

    if len(results) == 1:
        r = results[0]
        line = {"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
                "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                            for k, v in r["metrics"].items()}}
    else:
        line = {"correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {f"{r['workload']}.{k}": {"value": v["value"], "unit": v["unit"]}
                            for r in results for k, v in r["metrics"].items()}}
    print(json.dumps(line, sort_keys=True))
    sys.exit(0 if line["correct"] else 1)


if __name__ == "__main__":
    main()
