"""Alternating parent/change pairs of perfbench runs, one metric table.

    python3 benchmarks/pairs.py --a ../parent --b . --workload score --pairs 10

--a and --b are two checkouts (e.g. the parent commit from `git archive`,
and the working tree). Pair i runs `perfbench/run.py --seed i` once in each,
each from its own root, one process at a time; odd pairs run A first and even
pairs B first, so a drift in machine speed during the series falls on both
sides instead of reading as an effect. For every metric it prints each side's
median and quartiles, the ratio of the medians, and in how many pairs B was
better (direction from BENCHMARK.json); each end-to-end metric also gets a
verdict against its bound (see `verdict`). Digests are compared pair by pair.
Exits 1 if a run fails its checks or a pair's digests differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=seconds * 4 + 300)
    if proc.returncode != 0:
        raise RuntimeError(f"{root} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result, record = json.loads(lines[-1]), json.loads(lines[-2])
    return {"correct": result["correct"], "digests": record["digests"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """Verdict on one end-to-end metric from paired runs of A (the parent) and B.

    `a[i]` and `b[i]` are pair i; `better` is "higher" or "lower"; `bound` is
    relative to A's median, as in BENCHMARK.json. The first rule that holds wins:
    - "regressed": B's median is worse than A's by more than the bound;
    - "unresolved": A's quartile spread (Q3 - Q1) is wider than the bound and
      not every B run is better than every A run;
    - "gain": B is better in at least 9/10 of the pairs, ties counting for
      neither side, and the medians differ by more than A's quartile spread;
    - "held" otherwise.
    """
    sign = {"higher": 1.0, "lower": -1.0}[better]
    qa1, ma, qa3 = quartiles(a)
    shift = sign * (statistics.median(b) - ma)  # > 0 when B's median is better
    if -shift > bound * abs(ma):
        return "regressed"
    if qa3 - qa1 > bound * abs(ma) and not min(sign * y for y in b) > max(sign * x for x in a):
        return "unresolved"
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    if 10 * wins >= 9 * len(a) and shift > qa3 - qa1:
        return "gain"
    return "held"


def report(pairs: list[tuple[dict, dict]], better: dict[str, str],
           bounds: dict[str, float]) -> None:
    n = len(pairs)
    print(f"\n{'metric':<32}{'A median [Q1, Q3]':>40}{'B median [Q1, Q3]':>40}"
          f"{'B/A':>8}  B better")
    for name in pairs[0][0]["metrics"]:
        a = [p[0]["metrics"][name] for p in pairs]
        b = [p[1]["metrics"][name] for p in pairs]
        way = better.get(name, "higher")
        wins = sum((y > x) if way == "higher" else (y < x) for x, y in zip(a, b))
        (qa1, ma, qa3), (qb1, mb, qb3) = quartiles(a), quartiles(b)
        ratio = f"{mb / ma:8.3f}" if ma else f"{'-':>8}"
        judged = f", {verdict(a, b, way, bounds[name])}" if name in bounds else ""
        print(f"{name:<32}{f'{ma:.6g} [{qa1:.6g}, {qa3:.6g}]':>40}"
              f"{f'{mb:.6g} [{qb1:.6g}, {qb3:.6g}]':>40}{ratio}  {wins}/{n}"
              f" ({way} is better{judged})")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=Path, required=True, help="checkout A (e.g. the parent)")
    ap.add_argument("--b", type=Path, required=True, help="checkout B (e.g. the change)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    for root in (args.a, args.b):
        if not (root / "perfbench" / "run.py").is_file():
            ap.error(f"no perfbench/run.py under {root}")
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}

    pairs, ok = [], True
    for i in range(1, args.pairs + 1):
        order = ("a", "b") if i % 2 else ("b", "a")
        runs = {side: run_once(getattr(args, side).resolve(), args.workload, i, args.seconds,
                               args.trace) for side in order}
        same = runs["a"]["digests"] == runs["b"]["digests"]
        ok = ok and same and runs["a"]["correct"] and runs["b"]["correct"]
        print(f"pair {i} ({order[0].upper()} first): correct A={runs['a']['correct']} "
              f"B={runs['b']['correct']}, digests {'identical' if same else 'DIFFER'}",
              flush=True)
        pairs.append((runs["a"], runs["b"]))
    report(pairs, better, bounds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
