"""ecgvae benchmark: one workload per process, metrics as JSON on the last line.

    python3 perfbench/run.py --workload train --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --manifest          # rewrite BENCHMARK.json from spec.py
    python3 perfbench/prove.py --label a         # spreads over seeds 1..10, see prove.py

Run from the root of a checkout; the library is imported from ./src. With
--trace 0 the last line carries every end-to-end metric; with --trace 1 it
carries every per-layer metric: the probe in probe.py, plus the overhead and
unattributed time of one round run under spans. The line before it is a
record with the environment, input sizes, per-call stage times and sha256
digests of the outputs. Scratch files live under .perfbench/; the record and
the span file stay there.

Set-up runs SETUP_REPEATS times and setup_s is its median. Then rounds that
call every stage (see workloads.py) repeat for --seconds; each stage's figure
is the median over all its calls. eval_recon and mmd2_gen come from a pinned
reference problem run once at the end.
"""

from __future__ import annotations

import os

# BLAS pools are sized when numpy loads; pin them first, as ecgvae.cli does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC), str(ROOT / "benchmarks")]

import spec  # noqa: E402


def environment() -> dict:
    import numpy
    import scipy
    from ecgvae import kernels
    return {
        "backend": kernels.backend_name(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def run(workload: str, seed: int, seconds: float, traced: bool, out_dir: Path) -> dict:
    from spans import Tracer
    from workloads import (Checks, Stages, child_env, n_train_split, reference_quality, run_round,
                           setup)

    mix = spec.WORKLOADS[workload]
    work = out_dir / f"tmp-{os.getpid()}"
    work.mkdir(parents=True)
    env = child_env(SRC)
    checks = Checks()
    run_id = f"{workload}-seed{seed}-trace{int(traced)}"
    record = {"run_id": run_id, "why": mix.why, "sizes": asdict(mix),
              "environment": environment()}
    try:
        setup_times, setup_digests = [], set()
        for _ in range(spec.SETUP_REPEATS):
            t0 = time.process_time()
            inp = setup(mix, seed, work)
            setup_times.append(time.process_time() - t0)
            setup_digests.add(inp.digest)
        checks(len(setup_digests) == 1, "repeated set-up gave different inputs")
        n = int(inp.cycles.shape[0])
        sizes = {"corpus_records": spec.CORPUS_RECORDS, "ingest_records": spec.INGEST_RECORDS,
                 "ingest_repeats": spec.INGEST_REPEATS,
                 "corpus_cycles": n,
                 "train_cycles_per_round": n_train_split(mix.train_cycles or n),
                 "encode_cycles": mix.encode or n, "mmd_real_cycles": mix.mmd_real or n}
        record["sizes"].update(sizes)

        rounds, digests = [], []
        untraced = Tracer(run_id, enabled=False)
        t_start = time.perf_counter()

        def more() -> bool:
            if traced:  # one plain round warms caches and gives the digests to match
                return not rounds
            if len(rounds) < len(mix.cold):
                return True  # the first rounds start each listed subcommand cold once
            # stop before a round that would end past the window
            return time.perf_counter() - t_start + rounds[-1]["wall_s"] <= seconds

        while more():
            stage = Stages()
            t0 = time.perf_counter()
            i = len(rounds)
            dig = run_round(mix, seed, inp, work / "round", env, untraced, checks, stage,
                            mix.cold[i:i + 1])
            rounds.append({"wall_s": time.perf_counter() - t0, "samples": stage.samples})
            digests.append(dig)
        checks(all(d == digests[0] for d in digests), "rounds with one seed gave different outputs")
        record["digests"] = digests[0]
        record["rounds"] = rounds

        if traced:
            tracer = Tracer(run_id, enabled=True)
            with tracer.span("round"):
                dig = run_round(mix, seed, inp, work / "round", env, tracer, checks, Stages(),
                                mix.cold[:1])
            checks(dig == digests[0], "the traced round gave different outputs")
            from probe import run_probe
            metrics = run_probe(inp, seed, work, env, checks)
            metrics["trace.overhead_s"] = tracer.overhead_s()
            metrics["trace.unattributed_s"] = tracer.self_times()["round"]
            record["self_s"] = tracer.self_times()
            tracer.write(out_dir / f"{run_id}.spans.json")
        else:
            metrics = end_to_end(mix, sizes, rounds, setup_times)
            eval_recon, mmd2_gen, ref_digest = reference_quality(work / "reference", checks)
            metrics.update(eval_recon=eval_recon, mmd2_gen=mmd2_gen)
            record["digests"]["reference_model"] = ref_digest
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics["ops_ok_share"] = 1.0 - len(checks.failures) / checks.attempted
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["failures"] = checks.failures
    record["metrics"] = metrics
    (out_dir / f"{run_id}.record.json").write_text(json.dumps(record, indent=1),
                                                   encoding="utf-8")
    wanted = [m[0] for m in (spec.PER_LAYER if traced else spec.END_TO_END)]
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    for name in wanted:
        print(f"{name:<36}{metrics[name]:>16.6g} {spec.UNITS[name]}")
    for what in checks.failures:
        print(f"check failed: {what}")
    print(json.dumps(record, sort_keys=True))
    return {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": spec.UNITS[name]}
                    for name in wanted},
    }


def end_to_end(mix: spec.Mix, sizes: dict, rounds: list[dict], setup_times: list[float]) -> dict:
    """Medians over every call of each stage in every round."""
    def med(stage: str) -> float:
        return statistics.median(t for r in rounds for t in r["samples"].get(stage, ()))

    return {
        "setup_s": statistics.median(setup_times),
        "train_cycles_per_s": sizes["train_cycles_per_round"] / med("train"),
        "generate_cycles_per_s": mix.generate / med("generate"),
        "encode_cycles_per_s": sizes["encode_cycles"] / med("encode"),
        "traverse_s": med("traverse"),
        "mmd_s": med("mmd"),
        "synth_records_per_s": spec.INGEST_RECORDS / med("synth"),
        "preprocess_records_per_s": spec.INGEST_RECORDS / med("preprocess"),
        "cold_start_s.p50": med("cold"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--manifest", action="store_true",
                    help="write BENCHMARK.json from spec.py and exit")
    args = ap.parse_args()
    if args.manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.manifest(), indent=2) + "\n",
                                             encoding="utf-8")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (SRC / "ecgvae" / "__init__.py").is_file():
        print(f"error: no ecgvae sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
