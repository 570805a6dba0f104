#!/usr/bin/env python3
"""Campaign benchmark: builds the repository from source and runs one
workload, printing every metric by name and unit.

    python3 campaign_bench/run.py --workload sweep --seed 1 --seconds 15 \
        --trace 0 [--campaign-seed M] [--out results.jsonl]
    python3 campaign_bench/run.py --self-test

Run it from the repository root. The build goes to
$CARGO_TARGET_DIR/campaign_bench (default .bench_build/campaign_bench).
The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}; --trace 0 reports BENCHMARK.json's end_to_end metrics and
--trace 1 its per_layer metrics, and also writes a Chrome trace-event
file under the build directory. --out appends the full result set
(metrics, digest, host fingerprint) as one JSON line, the input of
compare.py. See campaign_bench/README.md.
"""
import argparse
import json
import os
import re
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SPEC = REPO / "BENCHMARK.json"
RUN_TIMEOUT_S = 175

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec_errors(spec):
    """Every way `spec` breaks the benchmark contract's naming rules."""
    errors = []
    names = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for item in spec.get(section, []):
            name = item.get("name", "")
            if not NAME_RE.match(name):
                errors.append(f"{section}: invalid name {name!r}")
            if name in names:
                errors.append(f"{section}: duplicate name {name!r}")
            names.add(name)
            if section == "workloads":
                continue
            if not UNIT_RE.match(item.get("unit", "")):
                errors.append(f"{name}: invalid unit {item.get('unit')!r}")
            if item.get("better") not in ("higher", "lower"):
                errors.append(f"{name}: better must be higher or lower")
            if section == "end_to_end" and not 0 < item.get("bound", 0) <= 0.25:
                errors.append(f"{name}: bound must be in (0, 0.25]")
    setup = [m for m in spec.get("end_to_end", []) if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        errors.append("end_to_end must hold setup_s in s, lower is better")
    return errors


def result_line(raw, spec, trace):
    """The result-line object built from the benchmark binary's output;
    raises ValueError when the binary's metrics differ from the spec."""
    section = "per_layer" if trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[section]}
    got = {name: m["unit"] for name, m in raw["metrics"].items()}
    if wanted != got:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        wrong = sorted(n for n in set(wanted) & set(got) if wanted[n] != got[n])
        raise ValueError(f"metric mismatch: missing {missing}, unexpected "
                         f"{extra}, wrong unit {wrong}")
    return {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {n: raw["metrics"][n] for n in wanted},
    }


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() \
        / "campaign_bench"


def build(target):
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", target])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-6000:])
            sys.exit(f"build failed: {' '.join(step)}")
    return out / target


def child_env():
    # The engine and crypto layers read QREPRO_* overrides; the benchmark
    # runs the defaults so every result set measures the same program.
    return {k: v for k, v in os.environ.items() if not k.startswith("QREPRO_")}


def self_test():
    binary = build("campaign_bench_tests")
    code = subprocess.run([str(binary)]).returncode
    suite = unittest.defaultTestLoader.discover(str(BENCH_DIR / "tests"))
    ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    return 0 if code == 0 and ok else 1


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--campaign-seed", type=int,
                        help="second seed for held-out re-runs "
                             "(default: --seed)")
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--out", help="append the full result set here")
    args = parser.parse_args(argv)
    if args.seed < 0 or (args.campaign_seed or 0) < 0 or args.seconds < 1:
        parser.error("seeds must be >= 0 and --seconds >= 1")
    errors = spec_errors(spec)
    if errors:
        sys.exit("BENCHMARK.json: " + "; ".join(errors))
    if not (REPO / "src" / "CMakeLists.txt").exists():
        sys.exit(f"{REPO / 'src'} is missing: the benchmark builds the "
                 "repository from source")

    binary = build("campaign_bench")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.campaign_seed is not None:
        cmd += ["--campaign-seed", str(args.campaign_seed)]
    trace_file = None
    if args.trace:
        trace_file = build_dir() / "traces" / f"{args.workload}.trace.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_file)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          env=child_env(), timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"campaign_bench exited with {proc.returncode}")
    raw = json.loads(lines[-1])
    for line in lines[:-1]:
        print("#", line)
    if trace_file:
        print(f"# trace {trace_file} (summary {trace_file}.summary.json)")
    result = result_line(raw, spec, args.trace)
    if args.out:
        raw["time"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        raw["trace"] = args.trace
        with open(args.out, "a") as out:
            out.write(json.dumps(raw, sort_keys=True) + "\n")
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
