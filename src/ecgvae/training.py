"""Training loop: seeded split, minibatch Adam updates, per-epoch stats.

Everything random (weight init, train/eval split, shuffling, reparameterization
noise) flows from one Generator seeded by TrainConfig.seed, so a repeated run
with the same config and data is bit-for-bit identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import as_cycle_array
from .errors import DimensionError, NumericsError
from .model import ModelConfig, VaeModel, decode_batch, encode_batch, kl_node, recon_node
from .optim import Adam

# Reconstruction is a per-sample mean over 400 points (order 1e-3 mV^2) while
# KL is summed over 25 features (order 1 nat), so an unscaled KL term drowns
# the reconstruction signal and the posterior collapses to the prior. This
# weight rebalances the two; see the training tests for the behavior it buys.
DEFAULT_BETA_KL = 1.5e-4

# share of the cycles held out of training for the per-epoch eval numbers
EVAL_FRACTION = 0.2


@dataclass
class TrainConfig:
    seed: int
    epochs: int = 50
    batch_size: int = 64
    lr: float = 1e-3
    beta_kl: float = DEFAULT_BETA_KL

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (batch statistics)")
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not 0 <= self.beta_kl < np.inf:
            raise ValueError(f"beta_kl must be non-negative and finite, got {self.beta_kl}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EpochStats:
    epoch: int
    train_recon: float
    train_kl: float
    eval_recon: float
    eval_kl: float


def _step(model: VaeModel, adam: Adam, x: Tensor, noise: Tensor,
          beta: float) -> tuple[float, float]:
    """One Adam update on a batch; returns its recon and KL losses.

    The step's graph lives only in this frame, so none of it is bound while
    the next step runs its forward pass.
    """
    mu, lv = model.encode(x, train=True)
    z = mu + ad.exp(lv * 0.5) * noise
    recon = recon_node(x, model.decode(z, train=True))
    kl = kl_node(mu, lv)
    loss = recon + kl * beta
    adam.zero_grad()
    loss.backward()
    adam.step()
    return recon.item(), kl.item()


def _eval_pass(model: VaeModel, cycles: np.ndarray) -> tuple[float, float]:
    """Eval-mode recon (decoding the posterior mean) and KL over a split, in float64.

    The arrays enter the loss functions as constants, so no tape is recorded.
    """
    mu, lv = encode_batch(model, cycles)
    x, x_hat, mu, lv = (Tensor(a.astype(np.float64))
                        for a in (cycles, decode_batch(model, mu), mu, lv))
    return recon_node(x, x_hat).item(), kl_node(mu, lv).item()


def train(
    dataset,
    config: TrainConfig,
    model_config: ModelConfig = ModelConfig(),
    log=None,
) -> tuple[VaeModel, list[EpochStats]]:
    """Fit a fresh VAE on `dataset` ([n, 400] cycles) and return it with history.

    The dataset is split once into train/eval parts, with EVAL_FRACTION of it
    (at least one cycle) held out; per-epoch stats carry the eval numbers so
    reconstruction progress is measured on unseen cycles.
    `log`, when given, receives one formatted line per epoch.
    """
    cycles = as_cycle_array(dataset)
    if cycles.shape[1] != model_config.input_len:
        raise DimensionError(
            f"dataset cycles have length {cycles.shape[1]}, model wants {model_config.input_len}"
        )
    n = cycles.shape[0]
    if n < 4:
        raise DimensionError(f"need at least 4 cycles to split and batch, got {n}")

    rng = np.random.default_rng(config.seed)
    model = VaeModel(model_config, rng, dtype=np.float32)

    perm = rng.permutation(n)
    n_eval = max(1, int(round(n * EVAL_FRACTION)))  # n >= 4 leaves at least 3 to train on
    eval_idx = perm[:n_eval]
    train_idx = perm[n_eval:]
    train_cycles = cycles[train_idx]
    eval_cycles = cycles[eval_idx]

    adam = Adam(model.named_parameters(), lr=config.lr)
    latent = model_config.latent_dim
    history: list[EpochStats] = []

    for epoch in range(config.epochs):
        order = rng.permutation(train_cycles.shape[0])
        recon_sum = 0.0
        kl_sum = 0.0
        n_seen = 0
        t0 = time.perf_counter()
        for lo in range(0, order.size, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            if idx.size < 2:
                continue  # a lone leftover cycle cannot feed batch statistics
            x = Tensor(train_cycles[idx])
            noise = Tensor(rng.standard_normal((idx.size, latent), dtype=np.float32))
            try:
                recon, kl = _step(model, adam, x, noise, config.beta_kl)
            except NumericsError as e:
                raise NumericsError(
                    f"training diverged at epoch {epoch} batch {lo // config.batch_size}: {e}"
                ) from e
            recon_sum += recon * idx.size
            kl_sum += kl * idx.size
            n_seen += idx.size
        try:
            eval_recon, eval_kl = _eval_pass(model, eval_cycles)
        except NumericsError as e:
            raise NumericsError(f"training diverged at epoch {epoch} eval pass: {e}") from e
        stats = EpochStats(
            epoch=epoch,
            train_recon=recon_sum / n_seen,
            train_kl=kl_sum / n_seen,
            eval_recon=eval_recon,
            eval_kl=eval_kl,
        )
        history.append(stats)
        if log is not None:
            log(
                f"epoch {epoch:3d}  train_recon {stats.train_recon:.6f}  "
                f"train_kl {stats.train_kl:.4f}  eval_recon {stats.eval_recon:.6f}  "
                f"eval_kl {stats.eval_kl:.4f}  ({time.perf_counter() - t0:.1f}s)"
            )

    model.train_seed = config.seed
    model.train_config_dict = config.to_dict()
    return model, history


def mean_cycle_baseline(train_cycles, eval_cycles) -> float:
    """MSE of always predicting the training set's mean cycle, on eval data."""
    mean_cycle = as_cycle_array(train_cycles).mean(axis=0, dtype=np.float64)
    eval_arr = as_cycle_array(eval_cycles).astype(np.float64)
    return recon_node(Tensor(eval_arr), Tensor(np.broadcast_to(mean_cycle, eval_arr.shape))).item()
