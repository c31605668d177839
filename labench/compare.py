#!/usr/bin/env python3
"""Repeat, summarize and compare labench runs against BENCHMARK.json.

Run from the repository root:

  python3 labench/compare.py run --runs 10 --out base.jsonl [--workloads churn,lease-wire]
      runs `bash labench/run.sh` once per seed and workload and appends one
      JSON line per run: {"workload", "seed", "trace", "env", "result"}
  python3 labench/compare.py spread base.jsonl
      per workload and end-to-end metric: median, quartile spread as a share
      of the median, and whether it is below a third of the metric's bound
  python3 labench/compare.py compare base.jsonl head.jsonl
      exits 1 if head is worse than base by more than a metric's bound on
      any workload, if head's fail_ratio (failed / attempted) is higher, or if
      any head run is incorrect
  python3 labench/compare.py self-test
      checks the comparison itself on synthetic result sets
"""

import argparse
import copy
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")


def load_spec(path=SPEC):
    with open(path) as f:
        return json.load(f)


def load_runs(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                runs.append(json.loads(line))
    return runs


def by_workload(runs, trace=0):
    out = {}
    for r in runs:
        if r.get("trace", 0) == trace:
            out.setdefault(r["workload"], []).append(r["result"])
    return out


def spread(values):
    """Quartile distance as a share of the median, as the acceptance check
    computes it."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def fail_ratio(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return failed / attempted if attempted else 1.0


def compare(spec, base, head):
    """Returns the list of regressions of head against base (empty: pass)."""
    problems = []
    bw, hw = by_workload(base), by_workload(head)
    for w in sorted(bw):
        if w not in hw:
            problems.append(f"{w}: no head runs")
            continue
        b, h = bw[w], hw[w]
        for r in h:
            if not r["correct"]:
                problems.append(f"{w}: a head run failed its correctness checks")
                break
        if fail_ratio(h) > fail_ratio(b):
            problems.append(f"{w}: fail_ratio {fail_ratio(h):.3g} above base {fail_ratio(b):.3g}")
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in b]
            hv = [r["metrics"][name]["value"] for r in h]
            bm, hm = statistics.median(bv), statistics.median(hv)
            worse = (hm - bm) / bm if m["better"] == "lower" else (bm - hm) / bm
            if worse > m["bound"]:
                problems.append(f"{w}: {name} {hm:.6g} vs base {bm:.6g}, {worse:+.1%} worse (bound {m['bound']:.0%})")
    return problems


def cmd_run(args):
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    with open(args.out, "a") as out:
        for i in range(args.runs):
            seed = args.seed_base + i
            for w in workloads:
                cmd = ["bash", "labench/run.sh", "--workload", w, "--seed", str(seed),
                       "--seconds", str(args.seconds or spec["run_seconds"]), "--trace", str(args.trace)]
                p = subprocess.run(cmd, capture_output=True, text=True)
                if p.returncode != 0:
                    sys.stderr.write(p.stderr)
                    print(f"{w} seed {seed}: exit {p.returncode}", file=sys.stderr)
                    return 1
                lines = p.stdout.strip().splitlines()
                env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
                result = json.loads(lines[-1])
                out.write(json.dumps({"workload": w, "seed": seed, "trace": args.trace, "env": env, "result": result}) + "\n")
                out.flush()
                print(f"{w} seed {seed}: ok", file=sys.stderr)
    return 0


def cmd_spread(args):
    spec = load_spec()
    bad = 0
    for w, results in sorted(by_workload(load_runs(args.file)).items()):
        print(f"{w} ({len(results)} runs, fail_ratio {fail_ratio(results):.3g})")
        for m in spec["end_to_end"]:
            med, sp = spread([r["metrics"][m["name"]]["value"] for r in results])
            ok = sp < m["bound"] / 3
            bad += not ok
            print(f"  {m['name']:16s} median {med:14.6g} {m['unit']:6s} spread {sp:6.1%}  bound {m['bound']:.0%}  {'ok' if ok else 'WIDE'}")
    return 1 if bad else 0


def cmd_compare(args):
    problems = compare(load_spec(), load_runs(args.base), load_runs(args.head))
    for p in problems:
        print("regression:", p)
    if not problems:
        print("no regression beyond the bounds")
    return 1 if problems else 0


def synthetic(spec, runs=10):
    """Result sets with a little deterministic run-to-run jitter."""
    out = []
    for w in spec["workloads"]:
        for i in range(runs):
            jitter = 1 + 0.002 * ((i * 7) % 5 - 2)
            metrics = {m["name"]: {"value": 100.0 * jitter, "unit": m["unit"]} for m in spec["end_to_end"]}
            out.append({"workload": w["name"], "seed": i, "trace": 0,
                        "result": {"correct": True, "attempted": 100000, "failed": 0, "metrics": metrics}})
    return out


def cmd_self_test(_args):
    spec = load_spec()
    base = synthetic(spec)
    checks = []

    checks.append(("identical result sets pass", compare(spec, base, copy.deepcopy(base)) == []))

    slow = copy.deepcopy(base)
    first = spec["workloads"][0]["name"]
    metric = spec["end_to_end"][0]
    for r in slow:
        if r["workload"] == first:
            v = r["result"]["metrics"][metric["name"]]
            v["value"] = v["value"] * 2 if metric["better"] == "lower" else v["value"] / 2
    checks.append((f"2x slower {metric['name']} on {first} fails", compare(spec, base, slow) != []))

    failing = copy.deepcopy(base)
    failing[0]["result"]["failed"] = 5
    checks.append(("higher fail_ratio fails", compare(spec, base, failing) != []))

    wrong = copy.deepcopy(base)
    wrong[0]["result"]["correct"] = False
    checks.append(("an incorrect run fails", compare(spec, base, wrong) != []))

    for name, ok in checks:
        print(("ok   " if ok else "FAIL ") + name)
    return 0 if all(ok for _, ok in checks) else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed-base", type=int, default=1)
    r.add_argument("--workloads", default="")
    r.add_argument("--seconds", type=int, default=0)
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out", required=True)
    s = sub.add_parser("spread")
    s.add_argument("file")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("head")
    sub.add_parser("self-test")
    args = ap.parse_args()
    return {"run": cmd_run, "spread": cmd_spread, "compare": cmd_compare, "self-test": cmd_self_test}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
