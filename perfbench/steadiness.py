"""Steadiness self-check: do two sets of benchmark runs of the same code agree?

    python3 perfbench/steadiness.py

Runs ``run.py --trace 0`` once per seed (seeds 1..10) for every workload of
BENCHMARK.json, for ``run_seconds`` each, and then repeats that set.  For
each end-to-end metric it reports the spread of each set (distance between
the first and third quartile of the per-seed values, as
``statistics.quantiles(values, n=4)`` gives them, over their median) and
the relative change of the second set's median from the first's.  A metric
agrees when both spreads are within its bound in BENCHMARK.json and the
median changed by no more than the bound in either direction.  ``setup_s``
is exempt from the spread rule but not from the median rule.  A spread
above a third of the bound is flagged as thin margin.  Exits 1 if any
metric disagrees.
"""

import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_set(spec, label):
    """values[workload][metric] -> the per-seed values of one set."""
    values = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        values[name] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in SEEDS:
            for metric, value in run_once(name, seed, spec["run_seconds"]).items():
                values[name][metric].append(value)
            print(f"set {label} {name} seed {seed} done", file=sys.stderr, flush=True)
    return values


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, second = run_set(spec, 1), run_set(spec, 2)

    agree = True
    report = []
    for workload in first:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = first[workload][name], second[workload][name]
            spreads = [spread(a), spread(b)]
            change = statistics.median(b) / statistics.median(a) - 1.0
            ok = abs(change) <= bound and (name == "setup_s" or max(spreads) <= bound)
            notes = []
            if not ok:
                notes.append("DISAGREES")
            if name == "setup_s" and max(spreads) > bound:
                notes.append("setup_s spread above bound (exempt)")
            elif max(spreads) > bound / 3:
                notes.append("spread above a third of the bound")
            agree = agree and ok
            report.append({"workload": workload, "metric": name, "bound": bound,
                           "medians": [statistics.median(a), statistics.median(b)],
                           "spreads": spreads, "change": change, "agree": ok,
                           "notes": notes})
            print(f"{workload:14s} {name:12s} bound {bound:<5g} medians "
                  f"{statistics.median(a):.6g} {statistics.median(b):.6g}  spreads "
                  f"{spreads[0]:.4f} {spreads[1]:.4f}  change {change:+.4f}"
                  + ("  " + "; ".join(notes) if notes else ""))
    print(json.dumps({"agree": agree, "report": report}))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
