"""Alternating parent/change pairs of perfbench runs, one metric table.

    python3 benchmarks/pairs.py --a ../parent --b . --workload score --pairs 10

--a and --b are two checkouts (e.g. the parent commit checked out with
`git worktree add --detach ../parent <parent-sha>` or a `git clone`, and the
working tree). Pair i runs `perfbench/run.py --seed i` once in each,
each from its own root, one process at a time; odd pairs run A first and even
pairs B first, so a drift in machine speed during the series falls on both
sides instead of reading as an effect. For every metric it prints each side's
median and quartiles, the ratio of the medians, and in how many pairs B was
better (direction from BENCHMARK.json); each end-to-end metric also gets a
verdict against its bound (see `verdict`). Digests are compared pair by pair.
Exits 1 if a run fails its checks or a pair's digests differ.

    python3 benchmarks/pairs.py --a ../parent --b . --workload train --json BENCH.json

--json also writes the series to a file, one entry per workload (an existing
file keeps its other workloads' entries): the environment record, each
side's commit, each metric's medians, quartiles, pairs won and verdict, and
for each pair the sorted names of the digests that differ ([] when none do).
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
            "environment": record["environment"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def commit(root: Path) -> dict:
    """HEAD of the checkout at root and whether its files differ from it.

    Nulls unless root is the top of a git work tree: an unpacked tree that sits
    inside another repository would otherwise report that repository's HEAD.
    """
    def git(*args: str) -> str | None:
        proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != Path(root).resolve():
        return {"commit": None, "dirty": None}
    head = git("rev-parse", "HEAD")
    return {"commit": head, "dirty": None if head is None else bool(git("status", "--porcelain"))}


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


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str],
              bounds: dict[str, float]) -> dict[str, dict]:
    """Per metric: each side's median and quartiles, the pairs B won, and the verdict.

    The verdict is None for a metric without a bound (a per-layer one).
    """
    out = {}
    for name in pairs[0][0]["metrics"]:
        a = [p[0]["metrics"][name] for p in pairs]
        b = [p[1]["metrics"][name] for p in pairs]
        way = better.get(name, "higher")
        side = {}
        for key, values in (("a", a), ("b", b)):
            q1, med, q3 = quartiles(values)
            side[key] = {"median": med, "q1": q1, "q3": q3}
        out[name] = {**side, "better": way,
                     "b_won": sum((y > x) if way == "higher" else (y < x) for x, y in zip(a, b)),
                     "verdict": verdict(a, b, way, bounds[name]) if name in bounds else None}
    return out


def spread(side: dict) -> str:
    return f"{side['median']:.6g} [{side['q1']:.6g}, {side['q3']:.6g}]"


def report(summary: dict[str, dict], n: int) -> None:
    print(f"\n{'metric':<32}{'A median [Q1, Q3]':>40}{'B median [Q1, Q3]':>40}"
          f"{'B/A':>8}  B better")
    for name, row in summary.items():
        a, b = row["a"], row["b"]
        ratio = f"{b['median'] / a['median']:8.3f}" if a["median"] else f"{'-':>8}"
        judged = f", {row['verdict']}" if row["verdict"] else ""
        print(f"{name:<32}{spread(a):>40}{spread(b):>40}{ratio}  {row['b_won']}/{n}"
              f" ({row['better']} is better{judged})")


def digests_moved(a: dict, b: dict) -> list[str]:
    """Sorted names of the digests that differ between runs a and b, or that only one has."""
    da, db = a["digests"], b["digests"]
    return sorted(k for k in da.keys() | db.keys() if da.get(k) != db.get(k))


def series_record(pairs: list[tuple[dict, dict]], summary: dict[str, dict],
                  commits: dict[str, dict], seconds: float, trace: int) -> dict:
    """One workload's entry of the --json file."""
    return {
        "environment": pairs[0][0]["environment"],
        "commits": commits,
        "seconds": seconds,
        "trace": trace,
        "pairs": len(pairs),
        "correct": [[a["correct"], b["correct"]] for a, b in pairs],
        "digests_moved": [digests_moved(a, b) for a, b in pairs],
        "metrics": summary,
    }


def write_json(path: Path, workload: str, entry: dict) -> None:
    """Put entry under workload in the file at path, keeping its other workloads."""
    doc = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {"workloads": {}}
    doc["workloads"][workload] = entry
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=Path, required=True, help="checkout A (e.g. the parent)")
    ap.add_argument("--b", type=Path, required=True, help="checkout B (e.g. the change)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", type=Path, help="also write the series to this file")
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
        moved = digests_moved(runs["a"], runs["b"])
        ok = ok and not moved and runs["a"]["correct"] and runs["b"]["correct"]
        print(f"pair {i} ({order[0].upper()} first): correct A={runs['a']['correct']} "
              f"B={runs['b']['correct']}, digests "
              f"{'DIFFER: ' + ', '.join(moved) if moved else 'identical'}", flush=True)
        pairs.append((runs["a"], runs["b"]))
    summary = summarize(pairs, better, bounds)
    report(summary, len(pairs))
    if args.json:
        commits = {side: commit(getattr(args, side).resolve()) for side in ("a", "b")}
        write_json(args.json, args.workload,
                   series_record(pairs, summary, commits, args.seconds, args.trace))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
