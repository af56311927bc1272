"""End-to-end acceptance checks for the full toolkit.

Each test prints one PASS/FAIL line on the live terminal (bypassing capture)
so a complete run reads as a 9-line scorecard. The heavy pipeline (corpus,
training, generation, comparison) runs once in a session fixture and again,
from scratch, for the bit-reproducibility check.
"""

import hashlib
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson

from conftest import max_grad_rel_err
from ecgvae import autodiff as ad
from ecgvae.autodiff import Tensor
from ecgvae.cli import main
from ecgvae.layers import BatchNorm1d, Conv1d, Dense, MaxPool1d, UpsampleNearest1d
from ecgvae.metrics import mmd2_biased, compare_sets
from ecgvae.model import ModelConfig, VaeModel, kl_loss, kl_node, recon_node
from ecgvae.persistence import load_dataset, load_model, save_dataset
from ecgvae.preprocess import detect_r_peaks, preprocess_records
from ecgvae.synth import ParamRanges, gen_corpus
from ecgvae.training import mean_cycle_baseline
from ecgvae.experiments import latent_traversal, traversal_effect

pytestmark = pytest.mark.acceptance

CORPUS_SEED = 101
TRAIN_SEED = 202
GEN_SEED = 303
HELD_SEED = 404
NOISE_SEED = 505

COMPACT = ModelConfig(
    input_len=64, latent_dim=4,
    conv_channels=(4, 8, 8, 8), kernel_size=5,
    enc_dense=(32, 16), dec_dense=(16, 32), dec_conv_channels=(8, 8, 8),
)


def report(capsys, n: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def run_pipeline(root: Path) -> dict:
    """Corpus -> cycles -> 50-epoch training -> generation -> MMD report."""
    root.mkdir(parents=True, exist_ok=True)
    records = root / "records"
    cycles = root / "cycles.ecgc"
    model = root / "model.ecgv"
    gen = root / "gen.ecgc"
    held_records = root / "held_records"
    held_full = root / "held_full.ecgc"
    held = root / "held1000.ecgc"
    mmd_csv = root / "report.csv"

    t0 = time.perf_counter()
    assert main(["synth", "--records", "200", "--seed", str(CORPUS_SEED),
                 "--out", str(records)]) == 0
    assert main(["preprocess", "--in", str(records), "--out", str(cycles)]) == 0
    assert main(["train", "--data", str(cycles), "--out", str(model),
                 "--seed", str(TRAIN_SEED), "--quiet"]) == 0
    assert main(["generate", "--model", str(model), "--count", "1000",
                 "--seed", str(GEN_SEED), "--out", str(gen)]) == 0
    assert main(["synth", "--records", "120", "--seed", str(HELD_SEED),
                 "--out", str(held_records)]) == 0
    assert main(["preprocess", "--in", str(held_records),
                 "--out", str(held_full)]) == 0
    held_cycles, fs, _ = load_dataset(held_full)
    assert held_cycles.shape[0] >= 1000
    save_dataset(held, held_cycles[:1000], sampling_rate_hz=fs)
    assert main(["mmd", "--a", str(gen), "--b", str(held), "--seed", "0",
                 "--out", str(mmd_csv)]) == 0
    elapsed = time.perf_counter() - t0

    return {
        "root": root, "records": records, "cycles": cycles, "model": model,
        "history": Path(f"{model}.loss.csv"), "gen": gen, "held": held,
        "mmd_csv": mmd_csv, "elapsed": elapsed,
    }


def tree_digests(root: Path) -> dict[str, str]:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="session")
def run_a(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("accept") / "run_a")


def test_criterion_1_source_value_not_reproducible(capsys):
    # The published MMD figure (3.83e-3) was measured against a private
    # clinical dataset that is not available here; the checks below validate
    # the same pipeline against its own held-out synthetic data instead.
    report(capsys, 1, True,
           "source MMD figure needs a private clinical dataset; "
           "property-based substitutes (criteria 2-9) apply")


def test_criterion_2_gradient_suite(capsys):
    t0 = time.perf_counter()
    worst_layer = 0.0
    worst_e2e = 0.0
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)

        def check(build, tensors, n=3):
            return max_grad_rel_err(build, tensors, n_per_tensor=n, rng=rng)

        # individual layers, f64 inputs
        dense = Dense(6, 4, rng=rng, dtype=np.float64)
        x = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        worst_layer = max(worst_layer, check(
            lambda: ad.reduce_sum(ad.square(dense(x))),
            [x, dense.weight, dense.bias]))

        for stride in (1, 2):
            conv = Conv1d(2, 3, 5, stride, rng=rng, dtype=np.float64)
            xc = Tensor(rng.standard_normal((2, 2, 12)), requires_grad=True)
            worst_layer = max(worst_layer, check(
                lambda: ad.reduce_sum(ad.square(conv(xc))),
                [xc, conv.weight, conv.bias]))

        bn = BatchNorm1d(4, dtype=np.float64)
        xb = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        cb = Tensor(rng.standard_normal((5, 4)))  # breaks the scale invariance
        worst_layer = max(worst_layer, check(
            lambda: ad.reduce_sum(ad.square(bn(xb, train=True) * cb)),
            [xb, bn.gamma, bn.beta]))

        bn3 = BatchNorm1d(3, dtype=np.float64)
        xb3 = Tensor(rng.standard_normal((4, 3, 6)), requires_grad=True)
        cb3 = Tensor(rng.standard_normal((4, 3, 6)))
        worst_layer = max(worst_layer, check(
            lambda: ad.reduce_sum(ad.square(bn3(xb3, train=True) * cb3)),
            [xb3, bn3.gamma, bn3.beta]))

        pool = MaxPool1d(2)
        up = UpsampleNearest1d(2)
        xp = Tensor(rng.standard_normal((2, 3, 8)), requires_grad=True)
        worst_layer = max(worst_layer, check(
            lambda: ad.reduce_sum(ad.square(up(pool(xp)))), [xp]))

        # composed encoder/decoder through the full loss
        model = VaeModel.build(COMPACT, seed=seed, dtype=np.float64)
        xm = Tensor(0.5 * rng.standard_normal((3, COMPACT.input_len)))
        noise = Tensor(rng.standard_normal((3, COMPACT.latent_dim)))

        def vae_loss():
            mu, lv = model.encode(xm, train=True)
            z = mu + ad.exp(lv * 0.5) * noise
            x_hat = model.decode(z, train=True)
            return recon_node(xm, x_hat) + kl_node(mu, lv) * 0.1

        worst_e2e = max(worst_e2e, check(
            vae_loss, [p for _, p in model.named_parameters()], n=1))

    dt = time.perf_counter() - t0
    ok = worst_layer < 1e-4 and worst_e2e < 1e-3 and dt < 60.0
    report(capsys, 2, ok,
           f"layer err {worst_layer:.2e} (<1e-4), end-to-end err "
           f"{worst_e2e:.2e} (<1e-3), 5 seeds in {dt:.1f}s (<60s)")


def test_criterion_3_kl_against_numerical_integration(capsys):
    z = np.linspace(-30.0, 30.0, 24001)
    log_p = -0.5 * z ** 2 - 0.5 * np.log(2 * np.pi)
    worst = 0.0
    for mu in np.linspace(-2.0, 2.0, 17):
        for lv in np.linspace(-2.0, 2.0, 17):
            sigma = np.exp(0.5 * lv)
            log_q = -0.5 * ((z - mu) / sigma) ** 2 - np.log(sigma * np.sqrt(2 * np.pi))
            q = np.exp(log_q)
            integrand = np.where(q > 1e-300, q * (log_q - log_p), 0.0)
            numeric = float(simpson(integrand, x=z))
            closed = kl_loss(np.array([mu]), np.array([lv]))
            worst = max(worst, abs(closed - numeric))
    ok = worst < 1e-6
    report(capsys, 3, ok,
           f"closed-form vs Simpson integral, 17x17 grid, max |diff| "
           f"{worst:.2e} (<1e-6)")


def test_criterion_4_mmd_against_double_loop(capsys):
    def brute(a, b, sigma):
        def k(u, v):
            d = u - v
            return np.exp(-float(d @ d) / (2.0 * sigma * sigma))
        m, n = a.shape[0], b.shape[0]
        saa = sum(k(a[i], a[j]) for i in range(m) for j in range(m)) / (m * m)
        sbb = sum(k(b[i], b[j]) for i in range(n) for j in range(n)) / (n * n)
        sab = sum(k(a[i], b[j]) for i in range(m) for j in range(n)) / (m * n)
        return saa + sbb - 2.0 * sab

    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 13))
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 9))
        sigma = float(rng.uniform(0.3, 3.0))
        a = rng.standard_normal((m, d))
        b = rng.standard_normal((n, d)) + rng.uniform(-1, 1)
        worst = max(worst, abs(mmd2_biased(a, b, sigma) - brute(a, b, sigma)))
    x = rng.standard_normal((60, 25))
    self_mmd = mmd2_biased(x, x.copy(), 1.0)
    ok = worst < 1e-12 and self_mmd <= 1e-12
    report(capsys, 4, ok,
           f"100 pairs vs double loop, max |diff| {worst:.2e} (<1e-12); "
           f"MMD2(X,X)={self_mmd:.2e} (<=1e-12)")


def test_criterion_5_desk_scale_training_run(capsys, run_a):
    cycles, _, _ = load_dataset(run_a["cycles"])
    last = run_a["history"].read_text().splitlines()[-1].split(",")
    eval_recon = float(last[3])
    baseline = mean_cycle_baseline(cycles, cycles)
    ratio_a = eval_recon / baseline

    gen_cycles, _, _ = load_dataset(run_a["gen"])
    held_cycles, _, _ = load_dataset(run_a["held"])
    rng = np.random.default_rng(NOISE_SEED)
    noise = (rng.standard_normal(held_cycles.shape)
             * held_cycles.std(axis=0, ddof=0)[None, :]).astype(np.float32)
    mmd_gen = compare_sets(gen_cycles, held_cycles, seed=0).mmd2_biased
    mmd_noise = compare_sets(noise, held_cycles, seed=0).mmd2_biased
    ratio_b = mmd_gen / mmd_noise

    ok = (cycles.shape[0] >= 1500 and ratio_a < 0.25 and ratio_b < 0.5
          and run_a["elapsed"] < 900.0)
    report(capsys, 5, ok,
           f"{cycles.shape[0]} cycles, 50 epochs in {run_a['elapsed']:.0f}s "
           f"(<900s); recon/baseline {ratio_a:.3f} (<0.25); "
           f"mmd(gen)/mmd(noise) {ratio_b:.3f} (<0.5)")


def test_criterion_6_shape_contract(capsys):
    model = VaeModel.build(seed=0)
    s = model.architecture_summary()
    ok = (model.config.input_len == 400 and s.mu_dim == 25 and s.logvar_dim == 25
          and s.encoder_concat == 50 and s.decoder_concat == 800
          and s.output_len == 400)
    report(capsys, 6, ok,
           f"{model.config.input_len} -> ({s.mu_dim},{s.logvar_dim}) encoder, "
           f"concat {s.encoder_concat}; decoder concat {s.decoder_concat}, "
           f"{s.mu_dim} -> {s.output_len}")


def test_criterion_7_latent_traversal(capsys, run_a, tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "traversals"
    assert main(["traverse", "--model", str(run_a["model"]), "--all",
                 "--seed", "0", "--out", str(out)]) == 0
    svgs = sorted(out.glob("traversal_feature_*.svg"))
    traces_per_plot = [p.read_text().count("<polyline") for p in svgs]

    model = load_model(run_a["model"])
    base = np.zeros(25, dtype=np.float32)
    effects = []
    repeat_gap = 0.0
    for f in range(25):
        tr = latent_traversal(model, base, f, [-3.0, 3.0])
        effects.append(traversal_effect(tr[0], tr[1]))
        again = latent_traversal(model, base, f, [-3.0, 3.0])
        repeat_gap = max(repeat_gap, float(np.abs(tr - again).max()))
    n_active = sum(e > 1e-6 for e in effects)
    dt = time.perf_counter() - t0

    ok = (len(svgs) == 25 and all(c == 10 for c in traces_per_plot)
          and n_active >= 20 and repeat_gap == 0.0 and dt < 60.0)
    report(capsys, 7, ok,
           f"25 plots x 10 traces; {n_active}/25 features move the decoding "
           f"(>=20); repeat decode gap {repeat_gap}; {dt:.1f}s (<60s)")


def test_criterion_8_bitwise_reproducibility(capsys, run_a, tmp_path_factory):
    run_b = run_pipeline(tmp_path_factory.mktemp("accept") / "run_b")
    dig_a = tree_digests(run_a["root"])
    dig_b = tree_digests(run_b["root"])
    same_names = set(dig_a) == set(dig_b)
    diff = [k for k in dig_a if dig_a.get(k) != dig_b.get(k)]
    losses_a = run_a["history"].read_text().splitlines()[-1]
    losses_b = run_b["history"].read_text().splitlines()[-1]
    ok = same_names and not diff and losses_a == losses_b
    report(capsys, 8, ok,
           f"rerun reproduced {len(dig_a)} files bit-for-bit"
           if ok else f"mismatched files: {diff[:5]}")


def test_criterion_9_detector_score(capsys):
    corpus = gen_corpus(100, seed=606, ranges=ParamRanges(noise_std=(0.01, 0.05)))
    tp = fn = fp = 0
    for rec, truth in corpus:
        found = detect_r_peaks(rec.leads[0], rec.sampling_rate_hz).indices
        used = np.zeros(found.size, dtype=bool)
        for t in truth:
            d = np.abs(found - t).astype(np.float64)
            d[used] = 11.0
            if d.size and d.min() <= 10.0:
                used[int(np.argmin(d))] = True
                tp += 1
            else:
                fn += 1
        fp += int((~used).sum())
    sens = tp / (tp + fn)
    prec = tp / (tp + fp)
    ok = sens >= 0.95 and prec >= 0.95
    report(capsys, 9, ok,
           f"100 noisy records: sensitivity {sens:.4f}, precision {prec:.4f} "
           f"(both >=0.95, +-10 samples)")
