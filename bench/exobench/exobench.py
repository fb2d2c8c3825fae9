#!/usr/bin/env python3
"""exobench: build and run the repository's benchmark, check it, compare runs.

Run one workload (what BENCHMARK.json's command does; builds first):
  python3 bench/exobench/exobench.py --workload net-small --seed 1 \
      --seconds 20 --trace 0

Smoke-run every workload for about 2 s with every check on, and check that
the metric names match BENCHMARK.json:
  python3 bench/exobench/exobench.py --smoke

Record runs (end-to-end metrics per seed, plus traced runs) to a file:
  python3 bench/exobench/exobench.py --record runs.json --runs 5

Compare two recordings against the bounds in BENCHMARK.json (exit 1 on a
regression):
  python3 bench/exobench/exobench.py --compare base.json new.json

The build goes to $CARGO_TARGET_DIR/exobench (default .bench_build), relative
to the repository root; traces and the unix socket go there too.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = ROOT / "BENCHMARK.json"
# Per-layer metrics that are exact: the same on every run of one commit.
EXACT_PREFIXES = ("gma.instructions", "gma.issue_cycles", "gma.memory_ops",
                  "gma.cache_misses", "gma.tlb_misses", "gma.proxy_calls",
                  "gma.sim_device_ms", "xjit.sim_device_ms", "cluster.")


def die(msg, code=1):
    print(f"exobench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not d.is_absolute():
        d = ROOT / d
    return d / "exobench"


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no EXOCHI sources at {ROOT / 'src'}: run from a full checkout",
            2)
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("configuring the benchmark failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(out), "--target", "exobench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        die("building the benchmark failed")
    return out / "exobench"


def scratch_arg():
    """--scratch for the binary: the build dir, relative when possible, so
    the unix socket path stays short."""
    out = build_dir()
    try:
        return os.path.relpath(out)
    except ValueError:
        return str(out)


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns its result object (None on failure)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", scratch_arg()]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        print(f"exobench: {' '.join(cmd)} exited {p.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def smoke(binary):
    """Every workload, untraced and traced, about 2 s each."""
    spec = load_spec()
    ok = True
    for w in (x["name"] for x in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = run_once(binary, w, 1, 2, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            if r is None:
                ok = False
                continue
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            problems = []
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                problems.append(f"correct={r['correct']} "
                                f"attempted={r['attempted']} "
                                f"failed={r['failed']}")
            for name in sorted(set(want) - set(got)):
                problems.append(f"missing {name}")
            for name in sorted(set(got) - set(want)):
                problems.append(f"not in BENCHMARK.json: {name}")
            for name in sorted(set(want) & set(got)):
                if want[name] != got[name]:
                    problems.append(f"{name}: unit {got[name]}, "
                                    f"BENCHMARK.json says {want[name]}")
            status = "ok" if not problems else "FAIL"
            print(f"smoke {w} --trace {trace}: {status} "
                  f"({len(got)} metrics)")
            for p in problems:
                print(f"  {p}")
            ok = ok and not problems
    return 0 if ok else 1


def record(binary, out, runs, seconds):
    """Untraced runs with seeds 1..runs, then one traced run (seed 1), per
    workload."""
    spec = load_spec()
    doc = {"seconds": seconds, "workloads": {}}
    for w in (x["name"] for x in spec["workloads"]):
        entry = {"runs": [], "traced": []}
        for seed in range(1, runs + 1):
            r = run_once(binary, w, seed, seconds, 0)
            if r is None:
                die(f"{w} seed {seed} failed")
            entry["runs"].append({"seed": seed, "metrics": {
                k: v["value"] for k, v in r["metrics"].items()}})
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                file=sys.stderr)
        r = run_once(binary, w, 1, seconds, 1)
        if r is None:
            die(f"{w} traced run failed")
        entry["traced"].append({"seed": 1, "metrics": {
            k: v["value"] for k, v in r["metrics"].items()}})
        doc["workloads"][w] = entry
    with open(out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(base_path, new_path):
    spec = load_spec()
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    regressions = 0
    print(f"{'workload':<22} {'metric':<20} {'base median [q1,q3]':>30} "
          f"{'new median [q1,q3]':>30} {'change':>8} {'bound':>6}  verdict")
    for w in sorted(set(base["workloads"]) & set(new["workloads"])):
        b_runs = base["workloads"][w]["runs"]
        n_runs = new["workloads"][w]["runs"]
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            lower = m["better"] == "lower"
            bv = [r["metrics"][name] for r in b_runs if name in r["metrics"]]
            nv = [r["metrics"][name] for r in n_runs if name in r["metrics"]]
            if not bv or not nv:
                continue
            bq, nq = quartiles(bv), quartiles(nv)
            change = (nq[1] - bq[1]) / bq[1]
            worse = change if lower else -change
            spread = max((bq[2] - bq[0]) / bq[1], (nq[2] - nq[0]) / nq[1])
            all_better = (max(nv) < min(bv)) if lower else (min(nv) > max(bv))
            if spread > bound and not all_better:
                verdict = "unresolved (spread %.1f%% > bound)" % (spread * 100)
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif -worse > bound or all_better:
                verdict = "better"
            else:
                verdict = "within bound"
            cell = "{:.6g} [{:.4g}, {:.4g}]"
            print(f"{w:<22} {name:<20} "
                  f"{cell.format(bq[1], bq[0], bq[2]):>30} "
                  f"{cell.format(nq[1], nq[0], nq[2]):>30} "
                  f"{change * 100:>+7.1f}% {bound * 100:>5.0f}%  {verdict}")
        b_tr = base["workloads"][w].get("traced", [])
        n_tr = new["workloads"][w].get("traced", [])
        if b_tr and n_tr:
            for m in spec["per_layer"]:
                name = m["name"]
                bv = [r["metrics"][name] for r in b_tr if name in r["metrics"]]
                nv = [r["metrics"][name] for r in n_tr if name in r["metrics"]]
                if not bv or not nv:
                    continue
                bm, nm = statistics.median(bv), statistics.median(nv)
                note = ""
                if name.startswith(EXACT_PREFIXES) and bm != nm:
                    note = "  (exact count changed)"
                rel = f"{(nm - bm) / bm * 100:+.1f}%" if bm else "n/a"
                print(f"{w:<22} {name:<34} {bm:>14.6g} -> {nm:<14.6g} "
                      f"{rel}{note}")
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record", metavar="OUT")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    ap.add_argument("--binary", help="use this exobench binary, no build")
    a = ap.parse_args()

    if a.compare:
        return compare(*a.compare)
    binary = Path(a.binary) if a.binary else build()
    if a.smoke:
        return smoke(binary)
    if a.record:
        return record(binary, a.record, a.runs, a.seconds)
    if not a.workload:
        die("one of --workload, --smoke, --record, --compare is required", 2)
    # One run: the binary's output is the result; pass it through.
    p = subprocess.run([str(binary), "--workload", a.workload, "--seed",
                        str(a.seed), "--seconds", str(a.seconds), "--trace",
                        str(a.trace), "--scratch", scratch_arg()])
    return p.returncode


if __name__ == "__main__":
    sys.exit(main())
