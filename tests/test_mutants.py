"""Known one-line mutants of src/ and the test that must catch each.

Each case copies src/ to a temporary directory, swaps one line there (the old
line, leading whitespace aside, must occur exactly once in its file) and runs
only the named test against the copy, in a subprocess. The test must fail
with pytest's exit code 1: a copy that no longer imports (a collection error)
or a test id that matches nothing exits otherwise, and is not a kill. At most
two subprocesses run at a time.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# id: (file in src/ecgvae, old line, new line, test that must fail)
MUTANTS = {
    "median-even-count-takes-upper-middle": (
        "metrics.py",
        "med = (math.sqrt(upper[half - 1]) + math.sqrt(upper[half])) / 2.0",
        "med = math.sqrt(upper[half])",
        "tests/test_metrics.py::TestMedianHeuristic::test_matches_bruteforce_pair_loop"),
    "median-pick-with-replacement": (
        "metrics.py",
        "return np.sort(rng.choice(total, size=MEDIAN_POINTS, replace=False))",
        "return np.sort(rng.choice(total, size=MEDIAN_POINTS, replace=True))",
        "tests/test_metrics.py::TestOneDistancePass"
        "::test_sigma_is_the_median_over_the_picked_pairs"),
    "gram-product-on-the-syrk-path": (
        "metrics.py",
        "sq = (-2.0 * x) @ y.T",
        "sq = -2.0 * (x @ y.T)",
        "tests/test_metrics.py::TestMmd::test_copy_of_a_blocked_input_gives_exactly_zero"),
    "cycle-baseline-from-first-samples-only": (
        "preprocess.py",
        "edges = np.concatenate((rows[:, :10], rows[:, -10:]), axis=1)",
        "edges = rows[:, :10]",
        "tests/test_preprocess.py::TestExtractCycles::test_window_bounds_and_skips"),
    "cycle-window-edge-exclusive": (
        "preprocess.py",
        "inside = (idx >= half_width) & (idx <= lead.shape[0] - half_width)",
        "inside = (idx >= half_width) & (idx < lead.shape[0] - half_width)",
        "tests/test_preprocess.py::TestExtractCycles::test_gather_matches_slice_loop_bitwise"),
    "close-peaks-merge-at-the-refractory-gap": (
        "preprocess.py",
        "if kept and p - kept[-1] < refractory:",
        "if kept and p - kept[-1] <= refractory:",
        "tests/test_preprocess.py::TestMergeClose"
        "::test_peaks_exactly_refractory_apart_are_both_kept"),
    "bandpass-low-edge-at-6-hz": (
        "preprocess.py",
        "lo, hi = (4.0 * np.tan(np.pi * edge / nyq / 2.0) for edge in (5.0, 15.0))",
        "lo, hi = (4.0 * np.tan(np.pi * edge / nyq / 2.0) for edge in (6.0, 15.0))",
        "tests/test_preprocess.py::TestPinnedDetector::test_digests"),
    "bandpass-nyquist-at-a-third-of-the-rate": (
        "preprocess.py",
        "nyq = fs / 2.0",
        "nyq = fs / 3.0",
        "tests/test_preprocess.py::TestPinnedDetector::test_digests"),
    "threshold-window-of-1.5-s": (
        "preprocess.py",
        "top = _window_max(mwi, maxima, peaks, max(1, int(round(2.0 * fs))))",
        "top = _window_max(mwi, maxima, peaks, max(1, int(round(1.5 * fs))))",
        "tests/test_preprocess.py::TestPinnedDetector::test_digests"),
    "equal-heights-go-to-the-later-peak": (
        "preprocess.py",
        'for j in np.argsort(-x.ravel()[maxima], kind="stable").tolist():',
        'for j in np.argsort(x.ravel()[maxima], kind="stable")[::-1].tolist():',
        "tests/test_scipy_oracles.py::TestScipyOracles"
        "::test_equal_heights_go_to_the_earlier_peak"),
    "window-max-one-sample-longer-at-even-sizes": (
        "preprocess.py",
        "hi = np.minimum(at + (size - 1) // 2, start + n - 1)",
        "hi = np.minimum(at + size // 2, start + n - 1)",
        "tests/test_scipy_oracles.py::TestScipyOracles"
        "::test_window_max_matches_maximum_filter1d_at_the_detector_size"),
    "pool-tie-routed-to-a-later-offset": (
        "kernels.py",
        "taken = x[:, :, 0:n:width] == y",
        "taken = (x[:, :, 0:n:width] == y) & (x[:, :, width - 1:n:width] != y)",
        "tests/test_kernels.py::TestPoolOracle::test_fwd_and_bwd_match_loops"),
    "running-variance-scaled": (
        "layers.py",
        "(1.0 - m) * self.running_var + m * var.astype(np.float32)",
        "(1.0 - m) * self.running_var + m * var.astype(np.float32) * 1.0001",
        "tests/test_layers.py::TestBatchNorm::test_running_stats_updated_with_momentum"),
    "running-variance-weights-swapped": (
        "layers.py",
        "(1.0 - m) * self.running_var + m * var.astype(np.float32)",
        "m * self.running_var + (1.0 - m) * var.astype(np.float32)",
        "tests/test_layers.py::TestBatchNorm::test_running_variance_weighs_the_batch_by_momentum"),
    "adam-without-second-moment-correction": (
        "optim.py",
        "v_hat = v / bc2",
        "v_hat = v",
        "tests/test_optim.py::TestAdamUpdates::test_two_steps_match_reference_formula"),
    "eval-split-size-floored": (
        "training.py",
        "n_eval = max(1, int(round(n * EVAL_FRACTION)))  # n >= 4 leaves at least 3 to train on",
        "n_eval = max(1, int(n * EVAL_FRACTION))",
        "tests/test_bench_contract.py::test_train_split_size_matches_train[1908]"),
    "kl-with-the-posterior-std-for-its-variance": (
        "model.py",
        "per_element = ad.square(mu) + ad.exp(logvar) - logvar - 1.0",
        "per_element = ad.square(mu) + ad.exp(logvar * 0.5) - logvar - 1.0",
        "tests/test_model.py::TestKlLoss::test_matches_numeric_integration"),
    "kl-reads-any-rank": (
        "model.py",
        "if mu.data.ndim != 2 or mu.data.shape != logvar.data.shape:",
        "if False:",
        "tests/test_model.py::TestKlLoss::test_rank_other_than_2_or_mismatched_shapes_refused"),
    "recon-summed-not-averaged": (
        "model.py",
        "return ad.reduce_mean(ad.square(x_hat - x))",
        "return ad.reduce_sum(ad.square(x_hat - x))",
        "tests/test_model.py::TestReconLoss::test_hand_value"),
    "eval-columns-in-float32": (
        "training.py",
        "x, x_hat, mu, lv = (Tensor(a.astype(np.float64))",
        "x, x_hat, mu, lv = (Tensor(a.astype(np.float32))",
        "tests/test_training.py::TestEvalColumns::test_eval_pass_matches_the_float64_formulas"),
}


def _mutate(src: Path, file: str, old: str, new: str) -> None:
    path = src / "ecgvae" / file
    lines = path.read_text().splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.strip() == old]
    assert len(hits) == 1, f"{file}: the old line occurs {len(hits)} times: {old!r}"
    line = lines[hits[0]]
    lines[hits[0]] = line[:len(line) - len(line.lstrip())] + new + "\n"
    path.write_text("".join(lines))


def _run(case: tuple[str, str, str, str], tmp: Path) -> subprocess.CompletedProcess:
    file, old, new, test = case
    src = tmp / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    _mutate(src, file, old, new)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def runs(request, tmp_path_factory):
    """The subprocess of every selected case, all started up front, two at a time."""
    names = [item.callspec.params["name"] for item in request.session.items
             if item.originalname == "test_mutant_is_killed_by_its_test"]
    with ThreadPoolExecutor(max_workers=2) as pool:
        yield {name: pool.submit(_run, MUTANTS[name], tmp_path_factory.mktemp(name))
               for name in names}


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed_by_its_test(runs, name):
    proc = runs[name].result()
    out = (proc.stdout + proc.stderr)[-3000:]
    assert proc.returncode == 1, f"{MUTANTS[name][3]} exited {proc.returncode}:\n{out}"
