#!/usr/bin/env python3
"""The repository benchmark: builds bneck_perf from source and runs it.

Run from the repository root:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      Builds perfbench/ (and the bneck library it links) into
      .bench_build/ (or $CARGO_TARGET_DIR), runs workload W, writes the
      full record (host context + result + notes) to
      <build>/results/, prints the notes, and prints as the last line
      {"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py compare OLD.json NEW.json
      Compares two records metric by metric.  Refuses (exit 3) when
      their context differs in anything but the commit: host CPUs,
      compiler, flags, build type, LTO, benchmark version, workload,
      seed or run length.

  python3 perfbench/run.py baseline --out FILE
      Runs every workload untraced and traced on seed 1, and untraced on
      the held-out seed 2, for BENCHMARK.json's run_seconds each, and
      writes all records plus the churn_sharded / churn_medium ratios to
      FILE.

Workloads: churn_medium, churn_sharded, daemon_loopback, verify_campaign
(see perfbench/README.md for what each measures and why).
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["churn_medium", "churn_sharded", "daemon_loopback",
             "verify_campaign"]
RUN_TIMEOUT_S = 170
# The baseline's seeds: the main one, and one held out from tuning.
MAIN_SEED = 1
HELD_OUT_SEED = 2
# Context fields two records must share to be compared.
COMPARABLE = ["nproc", "effective_cpus", "cpu_model", "compiler", "flags",
              "build_type", "lto", "benchmark", "workload", "seed",
              "seconds", "trace"]


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    env = os.environ.get("CARGO_TARGET_DIR")
    return Path(env).resolve() if env else ROOT / ".bench_build"


def build():
    """Configures (once) and builds bneck_perf; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"the bneck sources (CMakeLists.txt, src/) are not in {ROOT}", 2)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "perfbench_build.log"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "bneck_perf",
                  "-j", jobs])
    with open(log, "a") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail))
    return out / "bneck_perf"


def tree_hash(paths):
    h = hashlib.sha256()
    for base in paths:
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file())
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            dirty = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "src"],
                capture_output=True, text=True, timeout=10).stdout.strip()
            return r.stdout.strip() + ("-dirty" if dirty else "")
    except OSError:
        pass
    # Not a git checkout: identify the sources by content instead.
    return "tree-" + tree_hash([ROOT / "src", ROOT / "CMakeLists.txt"])


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context(args):
    info = json.loads((build_dir() / "build_info.json").read_text())
    return {
        "nproc": os.cpu_count(),
        "effective_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "compiler": info["compiler"],
        "flags": " ".join(info["flags"].split()),
        "build_type": info["build_type"],
        "lto": bool(info["lto"]),
        "commit": commit(),
        "benchmark": tree_hash([HERE / "src", HERE / "CMakeLists.txt",
                                Path(__file__).resolve()]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def benchmark_spec():
    """BENCHMARK.json, or None when it is absent."""
    spec = ROOT / "BENCHMARK.json"
    return json.loads(spec.read_text()) if spec.is_file() else None


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode (None if absent)."""
    doc = benchmark_spec()
    if doc is None:
        return None
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def run_workload(args):
    binary = build()
    ctx = context(args)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    results = build_dir() / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        cmd += ["--trace-out", str(results / f"{stem}.spans.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"bneck_perf exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("bneck_perf printed no result")
    result = json.loads(lines[-1])
    declared = declared_metrics(args.trace)
    if declared is not None and sorted(declared) != sorted(result["metrics"]):
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(declared) ^ set(result['metrics']))}")
    record = {"context": ctx, "result": result}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def print_record(record):
    ctx, result = record["context"], record["result"]
    print("# context: " + json.dumps(ctx))
    for note in result["notes"]:
        print("# " + note)
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


def compare(old_path, new_path):
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    diff = [k for k in COMPARABLE
            if old["context"].get(k) != new["context"].get(k)]
    if diff:
        for k in diff:
            print(f"context differs in {k}: {old['context'].get(k)!r} vs "
                  f"{new['context'].get(k)!r}", file=sys.stderr)
        fail("refusing to compare results from different contexts", 3)
    print(f"commits: {old['context']['commit']} -> {new['context']['commit']}")
    for name, m in old["result"]["metrics"].items():
        n = new["result"]["metrics"].get(name)
        if n is None:
            print(f"{name:40s} missing in {new_path}")
            continue
        a, b = m["value"], n["value"]
        rel = f"{(b - a) / a:+.2%}" if a else "n/a"
        print(f"{name:40s} {a:14.6g} {b:14.6g} {rel:>9s} {m['unit']}")


def baseline(out):
    doc = benchmark_spec()
    if doc is None:
        fail("BENCHMARK.json is missing", 2)
    seconds = doc["run_seconds"]
    records = []
    for seed, traces in ((MAIN_SEED, (0, 1)), (HELD_OUT_SEED, (0,))):
        for workload in WORKLOADS:
            for trace in traces:
                ns = argparse.Namespace(workload=workload, seed=seed,
                                        seconds=seconds, trace=trace)
                rec = run_workload(ns)
                print(f"{workload} seed {seed} trace {trace}: "
                      f"correct={rec['result']['correct']} "
                      f"{rec['result']['failed']}/{rec['result']['attempted']}"
                      " failed", file=sys.stderr)
                records.append(rec)

    def e2e(workload, name):
        for r in records:
            c = r["context"]
            if (c["workload"], c["seed"], c["trace"]) == (workload, MAIN_SEED, 0):
                return r["result"]["metrics"][name]["value"]
        return None

    ratios = {}
    for name in ("run_s", "cpu_s"):
        med, sh = e2e("churn_medium", name), e2e("churn_sharded", name)
        ratios[f"churn_sharded/churn_medium {name}"] = sh / med
    main_set = sorted(records[0]["result"]["metrics"])
    held_out = [r for r in records if r["context"]["seed"] == HELD_OUT_SEED]
    doc = {"schema": "bneck-perfbench/1", "main_seed": MAIN_SEED,
           "held_out_seed": HELD_OUT_SEED, "ratios": ratios,
           "held_out_clean": all(r["result"]["correct"] for r in held_out),
           "held_out_same_metric_set": all(
               sorted(r["result"]["metrics"]) == main_set for r in held_out),
           "records": records}
    Path(out).write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(ratios, indent=1))


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run.py compare OLD.json NEW.json", 2)
        compare(sys.argv[2], sys.argv[3])
        return
    if len(sys.argv) > 1 and sys.argv[1] == "baseline":
        p = argparse.ArgumentParser(prog="run.py baseline")
        p.add_argument("--out", required=True)
        baseline(p.parse_args(sys.argv[2:]).out)
        return
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    print_record(run_workload(p.parse_args()))


if __name__ == "__main__":
    main()
