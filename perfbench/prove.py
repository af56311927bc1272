"""Steadiness proof: run workloads over many seeds, report spreads and digests.

    python3 perfbench/prove.py --label a --workloads train score --seeds 10
    python3 perfbench/prove.py --compare a b

A set runs each workload once per seed (1..N), untraced, one process at a
time, and saves results to .perfbench/prove-<label>.json. For each
end-to-end metric it prints the median and the quartile spread (Q3 - Q1 over
the median, from statistics.quantiles(n=4)) against the metric's bound.
A set passes when every spread, setup_s included, is within its bound and
every run is correct. --compare checks a second set against a first: every
median within its bound of the first median, in either direction, and
identical output digests for every workload and seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import spec

ROOT = Path.cwd()
OUT = ROOT / ".perfbench"
BOUND = {name: bound for name, _, _, bound in spec.END_TO_END}


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def run_set(label: str, workloads: list[str], seeds: int) -> dict:
    results: dict = {}
    for w in workloads:
        for seed in range(1, seeds + 1):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec.RUN_SECONDS), "--trace", "0"],
                capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                raise RuntimeError(f"{w} seed {seed} failed:\n{proc.stderr[-2000:]}")
            lines = proc.stdout.strip().splitlines()
            result, record = json.loads(lines[-1]), json.loads(lines[-2])
            results.setdefault(w, {})[str(seed)] = {
                "correct": result["correct"], "failed": result["failed"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "digests": record["digests"],
            }
            print(f"{label} {w} seed {seed}: correct={result['correct']}", flush=True)
    (OUT / f"prove-{label}.json").write_text(json.dumps(results, indent=1), encoding="utf-8")
    return results


def report(results: dict) -> bool:
    ok = True
    for w, runs in results.items():
        print(f"\n{w} ({len(runs)} seeds)")
        print(f"{'metric':<28}{'median':>14}{'spread':>9}{'bound':>7}  verdict")
        for name, _, _, bound in spec.END_TO_END:
            vals = [r["metrics"][name] for r in runs.values()]
            s = spread(vals)
            verdict = "steady" if s < bound / 3 else ("within" if s <= bound else "WIDE")
            ok = ok and s <= bound
            print(f"{name:<28}{statistics.median(vals):>14.6g}{s:>9.4f}{bound:>7.2f}  {verdict}")
        ok = ok and all(r["correct"] for r in runs.values())
    return ok


def compare(first: dict, second: dict) -> bool:
    ok = True
    for w in first:
        for name in BOUND:
            m1 = statistics.median(r["metrics"][name] for r in first[w].values())
            m2 = statistics.median(r["metrics"][name] for r in second[w].values())
            shift = (m2 - m1) / m1
            bad = abs(shift) > BOUND[name]
            ok = ok and not bad
            print(f"{w:<8}{name:<28}{m1:>14.6g}{m2:>14.6g}{shift:>+9.4f}  "
                  f"{'APART' if bad else 'ok'}")
        for seed in first[w].keys() & second[w].keys():
            same = first[w][seed]["digests"] == second[w][seed]["digests"]
            ok = ok and same
            print(f"{w:<8}seed {seed} digests {'identical' if same else 'DIFFER'}")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", default="a")
    ap.add_argument("--workloads", nargs="+", default=list(spec.WORKLOADS),
                    choices=list(spec.WORKLOADS))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    OUT.mkdir(exist_ok=True)
    if args.compare:
        sets = [json.loads((OUT / f"prove-{x}.json").read_text()) for x in args.compare]
        return 0 if compare(*sets) else 1
    return 0 if report(run_set(args.label, args.workloads, args.seeds)) else 1


if __name__ == "__main__":
    sys.exit(main())
