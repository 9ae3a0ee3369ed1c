#!/usr/bin/env python3
"""Build and run the simulator's host-speed benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper-fig12 --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles
the simulator's libraries from src/) into .bench_build/perfbench,
refuses unoptimized or sanitizer builds, runs one workload, prints the
SHA-256 of the cells' key-sorted simulated statistics, and ends its
standard output with the program's JSON result line. Exits non-zero,
without a result line, when the sources are missing or any step fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    for rel in ("src/CMakeLists.txt", "src/harness/system.hh",
                "perfbench/CMakeLists.txt"):
        if not os.path.isfile(rel):
            fail(f"{rel} not found: run from the repository root", 2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)

    cache = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            name, sep, value = line.strip().partition("=")
            if sep and not line.startswith(("#", "//")):
                cache[name.split(":")[0]] = value
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    if build_type not in OPTIMIZED_BUILD_TYPES:
        fail(f"refusing to time build type '{build_type}'")
    flags = " ".join(v for k, v in cache.items()
                     if k.startswith(("CMAKE_CXX_FLAGS",
                                      "CMAKE_EXE_LINKER_FLAGS")))
    if "-fsanitize" in flags:
        fail("refusing to time a sanitizer build")
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0xc0ffee)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")
    if args.self_test:
        sys.exit(subprocess.run([binary, "--self-test"]).returncode)

    out_dir = os.path.join(".bench_build", f"run-{os.getpid()}")
    os.makedirs(out_dir)
    try:
        try:
            proc = subprocess.run(
                [binary, "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--out", out_dir],
                stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stdout)
            fail(f"benchmark exited with code {proc.returncode}")
        with open(os.path.join(out_dir, "stats.json"), "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for line in lines[:-1]:
        print(line)
    print(f"model digest ({args.workload}, seed {args.seed}): "
          f"sha256 {digest}")
    print(lines[-1])


if __name__ == "__main__":
    main()
