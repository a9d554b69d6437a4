#!/usr/bin/env python3
"""Run one metasim benchmark workload and print its result.

    python3 metabench/run.py --workload paper-warm --seed 1 --seconds 55 --trace 0
    python3 metabench/run.py --workload fleet-sampled --seed 1 --seconds 55 --trace 1 --out r.json
    python3 metabench/run.py compare parent.json change.json

Run from the repository root. The script builds `metabench` (a Cargo
workspace of its own in this directory) in release mode, stages the warm
store `paper-warm` needs once per build, runs the measurement, and prints
two JSON lines: the full result (with the host block and per-run detail),
then the summary line `{"correct", "attempted", "failed", "metrics"}`.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones.
See BENCHMARK.md next to this file.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-cold", "paper-warm", "fleet-sampled")
FLEET_SIZE = 8  # metabench's FLEET_SIZE, reported in the host block
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170
# Host fields that must agree for two results to be compared like for like
# (the run seed may differ: it does not change the inputs).
HOST_KEYS = ("nproc", "cpu_model", "rustc", "profile", "args")


def target_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else (ROOT / path)


def build():
    """Build the measuring binary; exit 1 (printing no result) on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"build failed: {e}")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        sys.exit("build failed")
    return target_dir() / "release" / "metabench"


def run(cmd, timeout):
    """Run `metabench` in a process group of its own, so that a timeout
    also stops the child processes a traced run starts."""
    try:
        p = subprocess.Popen([str(c) for c in cmd], cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True, start_new_session=True)
    except OSError as e:
        sys.exit(f"{cmd[1]} failed: {e}")
    try:
        out, err = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        sys.exit(f"{cmd[1]} timed out after {timeout} s")
    if p.returncode != 0:
        sys.stderr.write(err)
        sys.exit(f"{cmd[1]} failed with exit code {p.returncode}")
    return out


def staged_warm_store(binary):
    """The warm store (every probe, trace and ground-truth entry, no study
    entry), staged by one cold study and reused until the binary changes."""
    stage = target_dir() / "metabench" / "warm-store"
    marker = stage.with_name("warm-store.id")
    st = binary.stat()
    ident = f"{st.st_size}:{st.st_mtime_ns}"
    if not (stage.is_dir() and marker.is_file() and marker.read_text() == ident):
        tmp = stage.with_name("warm-store.tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        run([binary, "stage", "--out", tmp], RUN_TIMEOUT_S)
        shutil.rmtree(stage, ignore_errors=True)
        tmp.rename(stage)
        marker.write_text(ident)
    return stage


def capture(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts that are
    not git repositories."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", "metabench"):
        for dirpath, dirnames, filenames in os.walk(ROOT / top):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", ".bench_build"))
            files += [Path(dirpath) / f for f in sorted(filenames)]
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def host_block(args, jobs):
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = capture(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None
    paper = args.workload.startswith("paper")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "rustc": capture(["rustc", "-V"]),
        "commit": commit,
        "source_sha256": source_digest(),
        "profile": "release",
        "args": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "size": "paper grid: 5 cases x 3 cpu counts x 10 targets" if paper
                    else f"{FLEET_SIZE} machines x 3 apps",
            "fleet_seed": None if paper else args.fleet_seed,
            "jobs": 1 if paper else jobs,
            "tier": "exact" if paper else "analytic",
        },
    }


def measure(args):
    binary = build()
    nproc = len(os.sched_getaffinity(0))
    jobs = max(1, min(2, nproc))
    stage = staged_warm_store(binary) if args.workload == "paper-warm" else ROOT
    work = target_dir() / "metabench" / f"work-{os.getpid()}"
    try:
        out = run([binary, "run", "--workload", args.workload, "--seconds", args.seconds,
                   "--trace", args.trace, "--work", work, "--reference", HERE / "reference",
                   "--stage", stage, "--fleet-seed", args.fleet_seed,
                   "--jobs", jobs, "--clk-tck", os.sysconf("SC_CLK_TCK")], RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = json.loads(out.strip().splitlines()[-1])
    full = {"benchmark": "metabench", "schema": 1, "host": host_block(args, jobs), **result}
    print(json.dumps(full))
    if args.out:
        Path(args.out).write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def compare(a_path, b_path):
    """Print both results' metrics side by side, flagging host differences."""
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    def like(result, key):
        value = result["host"].get(key)
        return {k: v for k, v in value.items() if k != "seed"} if key == "args" else value

    differ = [k for k in HOST_KEYS if like(a, k) != like(b, k)]
    if differ:
        print("FLAG: the host blocks differ, so this is not a like-for-like comparison:")
        for k in differ:
            print(f"  {k}: {a['host'].get(k)!r} vs {b['host'].get(k)!r}")
    print(f"{'metric':36} {'unit':6} {'A':>14} {'B':>14} {'B/A':>8}")
    for name in sorted(set(a["metrics"]) | set(b["metrics"])):
        va = a["metrics"].get(name, {}).get("value")
        vb = b["metrics"].get(name, {}).get("value")
        unit = (a["metrics"].get(name) or b["metrics"][name])["unit"]
        ratio = f"{vb / va:8.3f}" if va and vb is not None else f"{'-':>8}"
        print(f"{name:36} {unit:6} {va if va is not None else '-':>14} "
              f"{vb if vb is not None else '-':>14} {ratio}")


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            sys.exit("usage: run.py compare A.json B.json")
        compare(sys.argv[2], sys.argv[3])
        return
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True,
                   help="recorded in the host block; the workloads' inputs are fixed (see BENCHMARK.md)")
    p.add_argument("--seconds", type=int, required=True, help="how long the timed run measures")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--fleet-seed", type=int, default=42, help="seed of the sampled fleet (default 42)")
    p.add_argument("--out", help="also write the full result to this file")
    measure(p.parse_args())


if __name__ == "__main__":
    main()
