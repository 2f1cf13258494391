#!/usr/bin/env python3
"""Builds and runs coda's benchmark from the root of a source tree.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The benchmark is built with CMake (Release) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when the variable is unset. Build output goes to
stderr; stdout carries the benchmark's report and, as its last line, the
result object. Every result is appended with its host/build fingerprint to
<build dir>/history.jsonl, and a result whose fingerprint differs from the
previous one of the same workload is labelled not comparable.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

# Fingerprint fields that must match for two results to be comparable. The
# revision and the seed are recorded too, but differ by design between the
# runs one compares.
COMPARABLE_KEYS = ("cpu_model", "nproc", "build_type", "compiler",
                   "coda_native_arch")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build(target):
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", target, "-j",
                    str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, target)


def source_digest():
    """A digest of src/ and perfbench/, the code a result measures."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def revision():
    """The git commit, plus "-dirty-<digest>" when src/ or perfbench/ have
    uncommitted changes; outside git, "src-<digest>"."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--", "src", "perfbench"],
            check=True, capture_output=True, text=True).stdout.strip()
        if head:
            return head + ("-dirty-" + source_digest() if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        pass
    return "src-" + source_digest()


def comparability(fingerprint, history_path):
    """Labels `fingerprint` against the last result of the same workload."""
    previous = None
    if os.path.isfile(history_path):
        with open(history_path) as f:
            for line in f:
                entry = json.loads(line)
                if entry["fingerprint"].get("workload") == \
                        fingerprint.get("workload"):
                    previous = entry["fingerprint"]
    if previous is None:
        return "comparable: no earlier result of this workload here"
    differs = [k for k in COMPARABLE_KEYS
               if previous.get(k) != fingerprint.get(k)]
    if differs:
        return ("comparable: NO, not comparable with the previous result "
                "(fingerprint differs in " + ", ".join(differs) + ")")
    return ("comparable: yes, same host and build as the previous result "
            "(revision " + str(previous.get("revision")) + ")")


def check_benchmark_json(path="BENCHMARK.json"):
    """Validates BENCHMARK.json's names, units and keys; returns errors."""
    with open(path) as f:
        spec = json.load(f)
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        errors.append("top-level keys: %s" % sorted(spec))
    seen = set()
    for section, fields in (("workloads", {"name", "why"}),
                            ("end_to_end", {"name", "unit", "better",
                                            "bound"}),
                            ("per_layer", {"name", "unit", "better"})):
        for entry in spec.get(section, []):
            name = entry.get("name", "")
            if set(entry) != fields:
                errors.append("%s %s: keys %s" % (section, name,
                                                  sorted(entry)))
            if not NAME_RE.match(name) or name in seen:
                errors.append("%s: bad or repeated name %r" % (section, name))
            seen.add(name)
            if "unit" in fields and not UNIT_RE.match(entry.get("unit", "")):
                errors.append("%s %s: bad unit" % (section, name))
            if "better" in fields and entry.get("better") not in (
                    "higher", "lower"):
                errors.append("%s %s: bad 'better'" % (section, name))
            if "bound" in fields and not 0 < entry.get("bound", 0) <= 0.25:
                errors.append("%s %s: bound out of range" % (section, name))
    return errors


def self_test():
    errors = check_benchmark_json()
    for e in errors:
        log("BENCHMARK.json: " + e)
    tests = build("perfbench_tests")
    status = subprocess.run([tests]).returncode
    return 1 if errors or status != 0 else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    for required in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(required):
            log("perfbench: %s not found; run from the root of a coda "
                "source tree" % required)
            return 2
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")

    binary = build("perfbench")
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--revision", revision()],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(l for l in lines
                                   if not l.startswith('{"correct"')) + "\n")
        log("perfbench: exited with code %d" % proc.returncode)
        return proc.returncode
    result = lines[-1]
    fingerprint = {}
    for line in lines:
        if line.startswith("fingerprint: "):
            fingerprint = json.loads(line[len("fingerprint: "):])
    history = os.path.join(build_dir(), "history.jsonl")
    label = comparability(fingerprint, history)
    with open(history, "a") as f:
        f.write(json.dumps({"fingerprint": fingerprint, "trace": args.trace,
                            "result": json.loads(result)}) + "\n")
    sys.stdout.write("\n".join(lines[:-1] + [label, result]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
