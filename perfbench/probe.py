"""Per-layer measurements on fixed inputs, for the traced run.

The same probe runs on every workload, so a layer figure means the same
thing wherever it is read. Times are CPU seconds of this process, medians
over a few repetitions; cold starts are CPU seconds of the child. Kernel
shapes come from benchmarks/bench_kernels.py, so the two cannot drift, and
kernels are driven through the public wrappers only.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from ecgvae import autodiff as ad
from ecgvae import kernels
from ecgvae.autodiff import Tensor
from ecgvae.experiments import sample_synthetic, traversal_sweep
from ecgvae.metrics import compare_sets, median_heuristic, mmd2_biased, mmd2_unbiased
from ecgvae.model import ModelConfig, VaeModel, decode_batch, encode_batch, kl_node, recon_node
from ecgvae.optim import Adam
from ecgvae.persistence import (
    load_dataset, load_model, load_record, save_dataset, save_model, save_record,
)
from ecgvae.preprocess import cut_segments, detect_r_peaks, extract_cycles
from ecgvae.synth import gen_corpus
from ecgvae.training import DEFAULT_BETA_KL

from bench_kernels import CONV_SHAPES, KERNEL_WIDTH, POOL_SHAPES, POOL_WIDTH
from spec import BLOCKS, SUBCOMMANDS
from workloads import cold_start, peak_score

BATCH = 64
EVAL_BATCH = 256
REPS = 5
PROBE_RECORDS = 30  # ~280 cycles: enough for batch-64 steps and batch-256 evals


def median_time(fn, reps: int = REPS) -> float:
    """Median seconds of fn() over reps calls, after one warm call."""
    fn()
    times = []
    for _ in range(reps):
        t0 = time.process_time()
        fn()
        times.append(time.process_time() - t0)
    return statistics.median(times)


def io_chars() -> tuple[int, int]:
    """Bytes this process has passed through read and write calls so far (Linux)."""
    fields = dict(line.split(": ") for line in
                  Path("/proc/self/io").read_text().splitlines())
    return int(fields["rchar"]), int(fields["wchar"])


def tape_nodes(root: Tensor) -> int:
    """Distinct tensors reachable from root through the recorded graph."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def probe_kernels(rng) -> dict[str, float]:
    out = dict.fromkeys(("conv1d_fwd_ms", "conv1d_bwd_ms", "maxpool1d_fwd_ms",
                         "maxpool1d_bwd_ms", "conv1d_gflop", "conv1d_mb_moved"), 0.0)
    for _, ci, co, length, stride in CONV_SHAPES:
        x = rng.standard_normal((BATCH, ci, length)).astype(np.float32)
        w = rng.standard_normal((co, ci, KERNEL_WIDTH)).astype(np.float32)
        y = kernels.conv1d_fwd(x, w, stride)
        out["conv1d_fwd_ms"] += 1e3 * median_time(lambda: kernels.conv1d_fwd(x, w, stride))
        out["conv1d_bwd_ms"] += 1e3 * median_time(lambda: kernels.conv1d_bwd(x, w, stride, y))
        # computed from shapes, not counted: forward 2*B*Co*Ci*K*Lout flops, backward twice
        # that (dx and dw). Bytes: forward reads x, w and writes y; backward reads x, w, dy
        # and writes dx, dw; each float32 array moved once.
        flops = 2.0 * BATCH * co * ci * KERNEL_WIDTH * y.shape[2]
        out["conv1d_gflop"] += 3.0 * flops / 1e9
        out["conv1d_mb_moved"] += 4.0 * (3 * x.size + 3 * w.size + 2 * y.size) / 1e6
    for _, ch, length in POOL_SHAPES:
        x = rng.standard_normal((BATCH, ch, length)).astype(np.float32)
        y, idx = kernels.maxpool1d_fwd(x, POOL_WIDTH)
        out["maxpool1d_fwd_ms"] += 1e3 * median_time(lambda: kernels.maxpool1d_fwd(x, POOL_WIDTH))
        out["maxpool1d_bwd_ms"] += 1e3 * median_time(
            lambda: kernels.maxpool1d_bwd(y, idx, length))
    return {f"kernels.{k}": v for k, v in out.items()}


def block_inputs(cfg: ModelConfig, b: int, rng) -> dict[str, np.ndarray]:
    shapes = {
        "enc_conv": (b, 1, cfg.input_len), "enc_dense": (b, cfg.input_len),
        "mu_head": (b, 2 * cfg.latent_dim), "logvar_head": (b, 2 * cfg.latent_dim),
        "dec_dense": (b, cfg.latent_dim), "dec_conv": (b, 1, cfg.latent_dim),
        "out_head": (b, 2 * cfg.input_len),
    }
    return {k: rng.standard_normal(s).astype(np.float32) for k, s in shapes.items()}


def probe_layers(model: VaeModel, rng) -> dict[str, float]:
    out = {}
    train_in = block_inputs(model.config, BATCH, rng)
    eval_in = block_inputs(model.config, EVAL_BATCH, rng)
    params = [p for _, p in model.named_parameters()]
    for name in BLOCKS:
        block = getattr(model, name)
        x = train_in[name]
        fwd = lambda: block(Tensor(x, requires_grad=True), train=True)  # noqa: E731
        out[f"layers.{name}.fwd_ms"] = 1e3 * median_time(fwd)
        g = Tensor(rng.standard_normal(fwd().data.shape).astype(np.float32))
        bwd_times = []
        for _ in range(REPS + 1):
            loss = ad.reduce_sum(fwd() * g)  # the probe's mul+sum adds 2 small nodes
            for p in params:
                p.grad = None
            t0 = time.process_time()
            loss.backward()
            bwd_times.append(time.process_time() - t0)
        out[f"layers.{name}.bwd_ms"] = 1e3 * statistics.median(bwd_times[1:])
        xe = eval_in[name]
        out[f"layers.{name}.eval_ms"] = 1e3 * median_time(lambda: block(Tensor(xe)))
    return out


def probe_train_step(cycles: np.ndarray, seed: int) -> dict[str, float]:
    """Forward/backward/Adam split of a training step, as training.train runs it."""
    rng = np.random.default_rng(seed)
    model = VaeModel(ModelConfig(), rng)
    adam = Adam(model.named_parameters())
    latent = model.config.latent_dim
    fwd, bwd, opt = [], [], []
    nodes = 0
    for step in range(REPS + 1):
        idx = rng.choice(cycles.shape[0], size=BATCH, replace=False)
        x = Tensor(cycles[idx])
        noise = Tensor(rng.standard_normal((BATCH, latent), dtype=np.float32))
        t0 = time.process_time()
        mu, lv = model.encode(x, train=True)
        z = mu + ad.exp(lv * 0.5) * noise
        x_hat = model.decode(z, train=True)
        loss = recon_node(x, x_hat) + kl_node(mu, lv) * DEFAULT_BETA_KL
        t1 = time.process_time()
        adam.zero_grad()
        loss.backward()
        t2 = time.process_time()
        adam.step()
        t3 = time.process_time()
        if step:  # the first step warms caches
            fwd.append(t1 - t0)
            bwd.append(t2 - t1)
            opt.append(t3 - t2)
        nodes = tape_nodes(loss)
    return {"model.forward_ms": 1e3 * statistics.median(fwd),
            "autodiff.backward_ms": 1e3 * statistics.median(bwd),
            "optim.adam_step_ms": 1e3 * statistics.median(opt),
            "autodiff.tape_nodes": float(nodes)}


def probe_model_use(model: VaeModel, cycles: np.ndarray, work: Path, seed: int) -> dict:
    x = np.resize(cycles, (512, cycles.shape[1]))
    z = np.random.default_rng(seed).standard_normal((512, 25)).astype(np.float32)
    return {
        "experiments.sample_synthetic_ms":
            1e3 * median_time(lambda: sample_synthetic(model, 512, seed=seed), 3),
        "experiments.traversal_sweep_ms":
            1e3 * median_time(lambda: traversal_sweep(model, work / "traverse", seed=seed), 3),
        "model.encode_batch_ms": 1e3 * median_time(lambda: encode_batch(model, x), 3),
        "model.decode_batch_ms": 1e3 * median_time(lambda: decode_batch(model, z), 3),
    }


def probe_metrics(cycles: np.ndarray) -> dict[str, float]:
    a = cycles[:100].astype(np.float64)
    b = cycles[100:].astype(np.float64)
    sigma = median_heuristic(a, b)
    out = {
        "metrics.median_heuristic_s": median_time(lambda: median_heuristic(a, b), 3),
        "metrics.mmd2_biased_s": median_time(lambda: mmd2_biased(a, b, sigma), 3),
        "metrics.mmd2_unbiased_s": median_time(lambda: mmd2_unbiased(a, b, sigma), 3),
    }
    tracemalloc.start()
    compare_sets(a, b)
    out["metrics.peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    return out


def probe_io(corpus, cycles: np.ndarray, model: VaeModel, work: Path) -> dict[str, float]:
    d = work / "io"
    d.mkdir(parents=True, exist_ok=True)
    paths = [d / f"{rec.record_id}.ecgr" for rec, _ in corpus]

    def save_records():
        for p, (rec, _) in zip(paths, corpus):
            save_record(p, rec)

    out = {
        "persistence.save_record_s": median_time(save_records, 3),
        "persistence.load_record_s": median_time(lambda: [load_record(p) for p in paths], 3),
        "persistence.save_dataset_s":
            median_time(lambda: save_dataset(d / "c.ecgc", cycles), 3),
        "persistence.load_dataset_s": median_time(lambda: load_dataset(d / "c.ecgc"), 3),
        "persistence.save_model_s": median_time(lambda: save_model(d / "m.ecgv", model), 3),
        "persistence.load_model_s": median_time(lambda: load_model(d / "m.ecgv"), 3),
    }
    # one pass of every save, then of every load, counted by the kernel
    r0, w0 = io_chars()
    save_records()
    save_dataset(d / "c.ecgc", cycles)
    save_model(d / "m.ecgv", model)
    r1, w1 = io_chars()
    [load_record(p) for p in paths]
    load_dataset(d / "c.ecgc")
    load_model(d / "m.ecgv")
    r2, _ = io_chars()
    out["persistence.bytes_written"] = float(w1 - w0)
    out["persistence.bytes_read"] = float(r2 - r1)
    return out


def probe_preprocess(corpus) -> dict[str, float]:
    """The stages of preprocess_records, called one by one on the same segments."""
    t_detect = t_extract = 0.0
    n_peaks = n_cycles = tp = fn = fp = 0
    for rec, truth in corpus:
        for i, seg in enumerate(cut_segments(rec)):
            lo = i * seg.n_samples
            seg_truth = truth[(truth >= lo) & (truth < lo + seg.n_samples)] - lo
            for lead in seg.leads:
                t0 = time.process_time()
                peaks = detect_r_peaks(lead, seg.sampling_rate_hz)
                t1 = time.process_time()
                rows, _ = extract_cycles(lead, peaks)
                t2 = time.process_time()
                t_detect += t1 - t0
                t_extract += t2 - t1
                n_peaks += len(peaks)
                n_cycles += rows.shape[0]
                a, b, c = peak_score(peaks.indices, seg_truth)
                tp, fn, fp = tp + a, fn + b, fp + c
    return {
        "preprocess.detect_r_peaks_s": t_detect,
        "preprocess.extract_cycles_s": t_extract,
        "preprocess.peaks": float(n_peaks),
        "preprocess.cycles_per_peak": n_cycles / max(1, n_peaks),
        "preprocess.peak_recall": tp / max(1, tp + fn),
        "preprocess.peak_precision": tp / max(1, tp + fp),
    }


def probe_cli(inp, seed: int, env: dict[str, str], checks) -> dict[str, float]:
    out = {f"cli.cold_start_s.{sub}": cold_start(sub, inp, seed, env, checks)
           for sub in SUBCOMMANDS}
    code = ("import time; t = time.process_time(); import ecgvae.cli; "
            "print(time.process_time() - t)")
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    out["cli.import_s"] = float(res.stdout.strip().splitlines()[-1])
    return out


def run_probe(inp, seed: int, work: Path, env: dict[str, str], checks) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    t0 = time.process_time()
    corpus = gen_corpus(PROBE_RECORDS, seed=seed)
    out = {"synth.gen_corpus_s": time.process_time() - t0}
    cycles = inp.cycles[:EVAL_BATCH + 64]
    model = load_model(inp.model_path)
    out.update(probe_kernels(rng))
    out.update(probe_layers(VaeModel(ModelConfig(), rng), rng))
    out.update(probe_train_step(cycles, seed))
    out.update(probe_model_use(model, cycles, work, seed))
    out.update(probe_metrics(cycles))
    out.update(probe_io(corpus, cycles, model, work))
    out.update(probe_preprocess(corpus))
    out.update(probe_cli(inp, seed, env, checks))
    return out
