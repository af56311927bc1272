"""Set-up, one timed round of pipeline stages, output checks and digests.

A round calls the library's public functions in the order the CLI subcommand
bodies do. Stage times feed the end-to-end metrics; each call into a layer
sits in a span, so a traced round shows where its wall time went.

Stage times are CPU seconds: time.process_time() of this process, and the
rusage of the child for a cold start. The library is single-threaded with
BLAS pinned to one thread, so on an idle machine these equal wall time
(compare_sets 1000 x 1908: 4.32 s wall, 4.32 s CPU on a 2-vCPU Xeon VM); on
a shared host they leave out the time the process waited for a core.
"""

from __future__ import annotations

import hashlib
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ecgvae.experiments import sample_synthetic, traversal_sweep
from ecgvae.metrics import compare_sets, mmd2_biased
from ecgvae.model import encode_batch
from ecgvae.persistence import (
    load_dataset, load_model, load_record, read_r_truth_csv, save_dataset, save_model,
    save_record, write_mmd_report, write_r_truth_csv,
)
from ecgvae.preprocess import detect_r_peaks, preprocess_records
from ecgvae.synth import gen_corpus
from ecgvae.training import TrainConfig, train

from spec import CORPUS_RECORDS, INGEST_RECORDS, INGEST_REPEATS, Mix

PEAK_TOLERANCE = 10   # samples (20 ms at 500 Hz), as in the acceptance detector score
PEAK_FLOOR = 0.95     # minimum recall and precision against the truth CSV
REFERENCE_SEED = 0


class Checks:
    """Counts output checks attempted and keeps a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


def model_digest(model) -> str:
    return digest(*(a.data for _, a in model.named_parameters()),
                  *(a for _, a in model.named_state()))


def finite(a, shape) -> bool:
    a = np.asarray(a)
    return a.shape == shape and bool(np.isfinite(a).all())


def n_train_split(n: int) -> int:
    """Cycles train() fits on after its default 20% hold-out."""
    return n - max(1, int(round(n * 0.2)))


def peak_score(found, truth, tol: int = PEAK_TOLERANCE) -> tuple[int, int, int]:
    """(true positives, misses, false alarms), each detection matched once."""
    tp = fn = 0
    used = np.zeros(found.size, dtype=bool)
    for t in truth:
        d = np.abs(found - t).astype(np.float64)
        d[used] = np.inf
        if d.size and d.min() <= tol:
            used[int(np.argmin(d))] = True
            tp += 1
        else:
            fn += 1
    return tp, fn, int((~used).sum())


def naive_mmd2(a, b, sigma: float) -> float:
    def k(u, v):
        d = u - v
        return np.exp(-float(d @ d) / (2.0 * sigma * sigma))

    m, n = a.shape[0], b.shape[0]
    saa = sum(k(a[i], a[j]) for i in range(m) for j in range(m)) / (m * m)
    sbb = sum(k(b[i], b[j]) for i in range(n) for j in range(n)) / (n * n)
    sab = sum(k(a[i], b[j]) for i in range(m) for j in range(n)) / (m * n)
    return saa + sbb - 2.0 * sab


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Inputs:
    cycles: np.ndarray   # corpus cycles
    model_path: Path     # model fit on the corpus, read by the scoring stages
    cold_dir: Path       # smallest valid inputs for every subcommand
    digest: str


def setup(mix: Mix, seed: int, work: Path) -> Inputs:
    corpus = gen_corpus(CORPUS_RECORDS, seed=seed)
    cycles, _, _ = preprocess_records([rec for rec, _ in corpus])
    model, _ = train(cycles[:mix.fit_cycles], TrainConfig(seed=seed, epochs=1))
    model_path = work / "fit.ecgv"
    save_model(model_path, model)
    cold = work / "cold"
    (cold / "records").mkdir(parents=True, exist_ok=True)
    save_record(cold / "records" / "rec_0000.ecgr", corpus[0][0])
    save_dataset(cold / "tiny.ecgc", cycles[:4])
    return Inputs(cycles, model_path, cold, digest(cycles, model_path.read_bytes()))


def cold_argv(sub: str, inp: Inputs, seed: int) -> list[str]:
    d = inp.cold_dir
    tiny = str(d / "tiny.ecgc")
    model = str(inp.model_path)
    s = str(seed)
    args = {
        "synth": ["--records", "1", "--duration", "2", "--seed", s, "--out", str(d / "synth")],
        "preprocess": ["--in", str(d / "records"), "--out", str(d / "pre.ecgc")],
        "train": ["--data", tiny, "--out", str(d / "tiny.ecgv"), "--seed", s,
                  "--epochs", "1", "--batch-size", "2", "--quiet"],
        "generate": ["--model", model, "--count", "1", "--seed", s,
                     "--out", str(d / "gen.ecgc")],
        "encode": ["--model", model, "--data", tiny, "--out", str(d / "features.csv")],
        "traverse": ["--model", model, "--feature", "0", "--steps", "1", "--seed", s,
                     "--out", str(d / "traverse")],
        "mmd": ["--a", tiny, "--b", tiny, "--seed", s, "--out", str(d / "mmd.csv")],
        "plot": ["--data", tiny, "--indices", "0", "--out", str(d / "plot.svg")],
    }[sub]
    return [sys.executable, "-m", "ecgvae.cli", sub] + args


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def child_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def cold_start(sub: str, inp: Inputs, seed: int, env: dict[str, str],
               checks: Checks) -> float:
    """CPU seconds of one fresh `ecgvae <sub>` process; a failed exit is a failed check."""
    t0 = child_cpu()
    proc = subprocess.run(cold_argv(sub, inp, seed), env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    secs = child_cpu() - t0
    err = proc.stderr.strip().splitlines()[-1:] or [""]
    checks(proc.returncode == 0, f"ecgvae {sub} exited with code {proc.returncode}: {err[0]}")
    return secs


# ---------------------------------------------------------------------------
# one round


class Stages:
    """CPU seconds of every stage call, keyed by stage name.

    The shared host runs at up to 2x different speeds for stretches of a few
    seconds, so calls close together in time are not independent. Each round
    calls each stage once (synth and preprocess INGEST_REPEATS times); a
    stage's figure is the median over all its calls, which are spread over
    the whole window.
    """

    def __init__(self):
        self.samples: dict[str, list[float]] = {}

    def __call__(self, name: str, fn):
        t0 = time.process_time()
        out = fn()
        self.samples.setdefault(name, []).append(time.process_time() - t0)
        return out


def run_round(mix: Mix, seed: int, inp: Inputs, work: Path, env: dict[str, str],
              tr, checks: Checks, stage: Stages, cold: list[str]) -> dict[str, str]:
    """All stages in CLI order; stage times land in `stage`, digests are returned."""
    dig: dict[str, str] = {}
    rec_dir = work / "records"
    rec_dir.mkdir(parents=True, exist_ok=True)

    def synth():  # corpus -> one file per record -> truth CSV
        with tr.span("synth.gen_corpus"):
            corpus = gen_corpus(INGEST_RECORDS, seed=seed)
        truth_rows = []
        for rec, positions in corpus:
            with tr.span("persistence.save_record"):
                save_record(rec_dir / f"{rec.record_id}.ecgr", rec)
            truth_rows.extend((rec.record_id, int(r)) for r in positions)
        with tr.span("persistence.write_r_truth_csv"):
            write_r_truth_csv(rec_dir / "r_peaks_truth.csv", truth_rows)
        return corpus

    def preprocess():  # records back from disk -> cycles -> dataset file
        records = []
        for f in sorted(rec_dir.glob("*.ecgr")):
            with tr.span("persistence.load_record"):
                records.append(load_record(f))
        with tr.span("preprocess.preprocess_records"):
            cycles, meta, _ = preprocess_records(records)
        with tr.span("persistence.save_dataset"):
            save_dataset(work / "cycles.ecgc", cycles,
                         sampling_rate_hz=records[0].sampling_rate_hz, ids=meta)
        return records, cycles, meta

    for _ in range(INGEST_REPEATS):  # short stages: more samples steady their median
        corpus = stage("synth", synth)
        records, cycles, meta = stage("preprocess", preprocess)

    with tr.span("bench.check"):
        checks(all(np.array_equal(a.leads, b.leads) and a.record_id == b.record_id
                   for (a, _), b in zip(corpus, records)) and len(records) == len(corpus),
               "records read back differ from the records written")
        checks(cycles.shape[0] > 0 and finite(cycles, (cycles.shape[0], 400)),
               "preprocess gave no cycles or non-finite cycles")
    with tr.span("persistence.read_r_truth_csv"):
        truth = read_r_truth_csv(rec_dir / "r_peaks_truth.csv")
    with tr.span("persistence.load_dataset"):
        back, _, back_ids = load_dataset(work / "cycles.ecgc")
    with tr.span("bench.check"):
        checks(np.array_equal(back, cycles) and back_ids == meta,
               "dataset read back differs from the dataset written")
        tp = fn = fp = 0
        for rec in records:
            found = detect_r_peaks(rec.leads[0], rec.sampling_rate_hz).indices
            a, b, c = peak_score(found, truth[rec.record_id])
            tp, fn, fp = tp + a, fn + b, fp + c
        recall, precision = tp / max(1, tp + fn), tp / max(1, tp + fp)
        checks(recall >= PEAK_FLOOR, f"peak recall {recall:.4f} below {PEAK_FLOOR}")
        checks(precision >= PEAK_FLOOR, f"peak precision {precision:.4f} below {PEAK_FLOOR}")
    dig["dataset"] = digest(cycles)

    # train, then the checkpoint round trip
    fit = inp.cycles[:mix.train_cycles] if mix.train_cycles else inp.cycles

    def fit_model():
        with tr.span("training.train"):
            return train(fit, TrainConfig(seed=seed, epochs=1))

    model, history = stage("train", fit_model)
    with tr.span("persistence.save_model"):
        save_model(work / "round.ecgv", model)
    with tr.span("persistence.load_model"):
        loaded = load_model(work / "round.ecgv")
    with tr.span("bench.check"):
        losses = [(h.train_recon, h.train_kl, h.eval_recon, h.eval_kl) for h in history]
        checks(finite(losses, (1, 4)), "training losses are not finite")
        dig["model"] = model_digest(model)
        checks(model_digest(loaded) == dig["model"], "checkpoint read back differs")

    # score the set-up model: generate -> encode -> traverse -> mmd
    with tr.span("persistence.load_model"):
        model = load_model(inp.model_path)

    def generate():
        with tr.span("experiments.sample_synthetic"):
            return sample_synthetic(model, mix.generate, seed=seed).cycles

    def encode():
        with tr.span("model.encode_batch"):
            return encode_batch(model, enc)

    def traverse():
        with tr.span("experiments.traversal_sweep"):
            return traversal_sweep(model, work / "traverse", seed=seed)

    def mmd():
        with tr.span("metrics.compare_sets"):
            return compare_sets(gen[:mix.mmd_gen], real, label_a="generated",
                                label_b="corpus", seed=seed)

    enc = inp.cycles[:mix.encode] if mix.encode else inp.cycles
    real = inp.cycles[:mix.mmd_real] if mix.mmd_real else inp.cycles
    gen = stage("generate", generate)
    mu, logvar = stage("encode", encode)
    svgs = stage("traverse", traverse)
    report = stage("mmd", mmd)
    with tr.span("persistence.write_mmd_report"):
        write_mmd_report(work / "mmd.csv", report)

    with tr.span("bench.check"):
        checks(finite(gen, (mix.generate, 400)), "generated cycles: bad shape or non-finite")
        checks(finite(mu, (enc.shape[0], 25)) and finite(logvar, (enc.shape[0], 25)),
               "features: bad shape or non-finite")
        checks(len(svgs) == 25 and all(p.stat().st_size > 0 for p in svgs),
               "traversal did not write 25 plots")
        checks(np.isfinite([report.mmd2_biased, report.mmd2_unbiased, report.sigma]).all()
               and report.mmd2_biased >= 0.0, "MMD report is not finite or is negative")
        x = real[:24]
        checks(mmd2_biased(x, x.copy(), report.sigma) == 0.0, "MMD2(X, X) is not exactly 0")
        a, b = gen[:12].astype(np.float64), real[:16].astype(np.float64)
        err = abs(mmd2_biased(a, b, report.sigma) - naive_mmd2(a, b, report.sigma))
        checks(err <= 1e-12, f"mmd2_biased differs from the double loop by {err:.3e}")
        dig["generated"] = digest(gen)
        dig["features"] = digest(mu, logvar)
        dig["traversal"] = digest(*(p.read_bytes() for p in svgs))
        dig["mmd_row"] = digest((work / "mmd.csv").read_bytes())

    # cold start: each subcommand in `cold` as a fresh process, one at a time
    for sub in cold:
        with tr.span(f"cli.{sub}"):
            secs = cold_start(sub, inp, seed, env, checks)
        stage.samples.setdefault("cold", []).append(secs)
    return dig


def reference_quality(work: Path, checks: Checks) -> tuple[float, float, str]:
    """eval_recon and mmd2_gen on one pinned problem, the same for every seed.

    Across seeds a short training run's held-out MSE and MMD^2 spread by
    15-30%, which would drown any change in numerics. A pinned corpus and
    training seed make both figures move only when the numerics do.
    """
    corpus = gen_corpus(40, seed=REFERENCE_SEED)
    cycles, _, _ = preprocess_records([rec for rec, _ in corpus])
    model, history = train(cycles, TrainConfig(seed=REFERENCE_SEED, epochs=1))
    gen = sample_synthetic(model, 256, seed=REFERENCE_SEED).cycles
    report = compare_sets(gen, cycles, seed=REFERENCE_SEED)
    eval_recon = history[-1].eval_recon
    checks(bool(np.isfinite([eval_recon, report.mmd2_biased]).all())
           and eval_recon > 0 and report.mmd2_biased > 0,
           "reference eval_recon or mmd2_gen not finite and positive")
    return eval_recon, report.mmd2_biased, model_digest(model)
