"""Variational autoencoder over single cardiac cycles.

Encoder runs a convolutional branch (conv/batchnorm/relu/maxpool blocks that
halve the length four times, then a width-1 conv collapsing channels) next to
a dense branch, concatenates both 25-wide outputs into a 50-vector, and maps
that through two affine heads to the posterior mean and log-variance. The
decoder mirrors it: a dense branch straight to 400 samples and a conv branch
that upsamples the latent code back to length 400, concatenated into an
800-vector and projected to the output cycle.

Loss pieces live here as plain-array helpers (kl_loss, recon_loss) and as
graph builders used by the trainer; a unit test pins the two against each
other so they cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import CYCLE_LEN, CardiacCycle, as_cycle_array
from .errors import DimensionError
from .layers import (
    BatchNorm1d,
    Conv1d,
    Dense,
    Layer,
    LayerSpec,
    MaxPool1d,
    Parameter,
    ReLU,
    Sequential,
    UpsampleNearest1d,
)


# the model's layer chains in checkpoint order
_CHAINS = ("enc_conv", "enc_dense", "mu_head", "logvar_head", "dec_dense", "dec_conv", "out_head")


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of the architecture; defaults reproduce the 400->25 stack."""

    input_len: int = CYCLE_LEN
    latent_dim: int = 25
    conv_channels: tuple[int, ...] = (16, 32, 64, 128)
    kernel_size: int = 5
    enc_dense: tuple[int, ...] = (256, 64)
    dec_dense: tuple[int, ...] = (64, 128, 256)
    dec_conv_channels: tuple[int, ...] = (64, 32, 16)
    pool_width: int = 2
    up_factor: int = 2
    bn_momentum: float = 0.1
    bn_eps: float = 1e-5

    def __post_init__(self):
        if self.input_len < 1 or self.latent_dim < 1:
            raise ValueError("input_len and latent_dim must be positive")
        if self.kernel_size % 2 != 1:
            raise ValueError("kernel_size must be odd")
        n_pools = len(self.conv_channels)
        if self.input_len != self.latent_dim * self.pool_width ** n_pools:
            raise ValueError(
                f"input_len {self.input_len} must equal latent_dim {self.latent_dim} "
                f"* pool_width^{n_pools}"
            )
        n_ups = len(self.dec_conv_channels) + 1
        if self.latent_dim * self.up_factor ** n_ups != self.input_len:
            raise ValueError(
                "decoder upsampling must map latent_dim back to input_len"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        for key in ("conv_channels", "enc_dense", "dec_dense", "dec_conv_channels"):
            d[key] = tuple(d[key])
        return cls(**d)


@dataclass
class LatentCode:
    """Posterior parameters for one cycle, plus the sampled point if drawn."""

    mu: np.ndarray
    logvar: np.ndarray
    z: Optional[np.ndarray] = None
    noise_seed: Optional[int] = None


@dataclass
class ArchitectureSummary:
    encoder_conv_out: int
    encoder_dense_out: int
    encoder_concat: int
    mu_dim: int
    logvar_dim: int
    decoder_dense_out: int
    decoder_conv_out: int
    decoder_concat: int
    output_len: int


class VaeModel:
    """Encoder/decoder pair; build with `VaeModel.build(config, seed)`."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator, dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        k = config.kernel_size

        enc_conv: list[Layer] = []
        c_in = 1
        for c_out in config.conv_channels:
            enc_conv += [
                Conv1d(c_in, c_out, k, rng=rng, dtype=dtype),
                BatchNorm1d(c_out, config.bn_momentum, config.bn_eps, dtype=dtype),
                ReLU(),
                MaxPool1d(config.pool_width),
            ]
            c_in = c_out
        enc_conv.append(Conv1d(c_in, 1, 1, rng=rng, dtype=dtype))
        self.enc_conv = Sequential(enc_conv)

        enc_dense: list[Layer] = []
        widths = (config.input_len,) + config.enc_dense + (config.latent_dim,)
        for a, b in zip(widths[:-1], widths[1:]):
            enc_dense += [
                Dense(a, b, rng=rng, dtype=dtype),
                BatchNorm1d(b, config.bn_momentum, config.bn_eps, dtype=dtype),
                ReLU(),
            ]
        self.enc_dense = Sequential(enc_dense)

        self.mu_head = Dense(2 * config.latent_dim, config.latent_dim, rng=rng, dtype=dtype)
        self.logvar_head = Dense(2 * config.latent_dim, config.latent_dim, rng=rng, dtype=dtype)

        dec_dense: list[Layer] = []
        widths = (config.latent_dim,) + config.dec_dense + (config.input_len,)
        for a, b in zip(widths[:-1], widths[1:]):
            dec_dense += [
                Dense(a, b, rng=rng, dtype=dtype),
                BatchNorm1d(b, config.bn_momentum, config.bn_eps, dtype=dtype),
                ReLU(),
            ]
        self.dec_dense = Sequential(dec_dense)

        dec_conv: list[Layer] = []
        c_in = 1
        for c_out in config.dec_conv_channels + (1,):
            dec_conv += [
                Conv1d(c_in, c_out, k, rng=rng, dtype=dtype),
                BatchNorm1d(c_out, config.bn_momentum, config.bn_eps, dtype=dtype),
                ReLU(),
                UpsampleNearest1d(config.up_factor),
            ]
            c_in = c_out
        self.dec_conv = Sequential(dec_conv)

        self.out_head = Dense(2 * config.input_len, config.input_len, rng=rng, dtype=dtype)

        self.train_seed: Optional[int] = None
        self.train_config_dict: Optional[dict] = None

    @classmethod
    def build(cls, config: ModelConfig = ModelConfig(), seed: int = 0,
              dtype=np.float32) -> "VaeModel":
        return cls(config, np.random.default_rng(seed), dtype=dtype)

    # -- forward ------------------------------------------------------------

    def _as_batch(self, x, width: int, what: str) -> Tensor:
        if isinstance(x, Tensor):
            t = x
        else:
            arr = np.asarray(x, dtype=self.dtype)
            if arr.ndim == 1:
                arr = arr[None, :]
            t = Tensor(arr)
        if t.data.ndim != 2 or t.data.shape[1] != width:
            raise DimensionError(f"expected {what} of shape [n, {width}], got {t.data.shape}")
        return t

    @staticmethod
    def _branches(t: Tensor, conv: Sequential, dense: Sequential,
                  train: bool = False) -> tuple[Tensor, Tensor]:
        """The (flattened conv branch, dense branch) outputs of a [B, n] batch."""
        b, n = t.data.shape
        c = conv(ad.reshape(t, (b, 1, n)), train=train)
        return ad.reshape(c, (b, int(np.prod(c.data.shape[1:])))), dense(t, train=train)

    def encode(self, x, train: bool = False) -> tuple[Tensor, Tensor]:
        """Map cycles [B, 400] to posterior (mu, logvar), each [B, 25]; no tape in eval."""
        t = self._as_batch(x, self.config.input_len, "cycles")
        with ad.recording(train):
            h = ad.concat(self._branches(t, self.enc_conv, self.enc_dense, train), axis=1)
            return self.mu_head(h), self.logvar_head(h)

    def decode(self, z, train: bool = False) -> Tensor:
        """Map latent codes [B, 25] to reconstructed cycles [B, 400]; no tape in eval."""
        t = self._as_batch(z, self.config.latent_dim, "latent codes")
        with ad.recording(train):
            conv, densev = self._branches(t, self.dec_conv, self.dec_dense, train)
            return self.out_head(ad.concat([densev, conv], axis=1))

    # -- parameter access ----------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Parameter]]:
        return [item for chain in _CHAINS
                for item in getattr(self, chain).named_parameters(f"{chain}.")]

    def named_state(self) -> list[tuple[str, np.ndarray]]:
        return [item for chain in _CHAINS
                for item in getattr(self, chain).named_state(f"{chain}.")]

    def load_state_value(self, name: str, value: np.ndarray) -> None:
        chain, _, rest = name.partition(".")
        getattr(self, chain).load_state(rest, value)

    def layer_specs(self) -> dict[str, list[dict]]:
        """Ordered manifest of every block, including the two concat joints."""
        def dump(seq: Sequential) -> list[dict]:
            return [{"kind": s.kind, **s.params} for s in seq.specs()]

        return {
            "enc_conv": dump(self.enc_conv),
            "enc_dense": dump(self.enc_dense),
            "enc_join": [{"kind": "Concat", "inputs": ["enc_conv", "enc_dense"],
                          "axis": 1, "width": 2 * self.config.latent_dim}],
            "mu_head": [{"kind": "Dense", **self.mu_head.spec().params}],
            "logvar_head": [{"kind": "Dense", **self.logvar_head.spec().params}],
            "dec_dense": dump(self.dec_dense),
            "dec_conv": dump(self.dec_conv),
            "dec_join": [{"kind": "Concat", "inputs": ["dec_dense", "dec_conv"],
                          "axis": 1, "width": 2 * self.config.input_len}],
            "out_head": [{"kind": "Dense", **self.out_head.spec().params}],
        }

    def architecture_summary(self) -> ArchitectureSummary:
        """Run the branches and encode/decode on a dummy batch; report measured widths."""
        x = np.zeros((2, self.config.input_len), dtype=self.dtype)
        z = np.zeros((2, self.config.latent_dim), dtype=self.dtype)
        ec, ed = (t.shape[1] for t in self._branches(Tensor(x), self.enc_conv, self.enc_dense))
        dc, dd = (t.shape[1] for t in self._branches(Tensor(z), self.dec_conv, self.dec_dense))
        mu, lv = self.encode(x)
        return ArchitectureSummary(
            encoder_conv_out=ec, encoder_dense_out=ed, encoder_concat=ec + ed,
            mu_dim=mu.shape[1], logvar_dim=lv.shape[1],
            decoder_dense_out=dd, decoder_conv_out=dc, decoder_concat=dd + dc,
            output_len=self.decode(z).shape[1],
        )


# ---------------------------------------------------------------------------
# losses: plain-array helpers and graph builders


def kl_loss(mu: np.ndarray, logvar: np.ndarray) -> float:
    """KL(N(mu, diag exp(logvar)) || N(0, I)) summed over features.

    Closed form per feature: (mu^2 + e^lv - lv - 1) / 2. For batched input
    the result is the mean over rows.
    """
    mu = np.asarray(mu, dtype=np.float64)
    logvar = np.asarray(logvar, dtype=np.float64)
    if mu.shape != logvar.shape:
        raise DimensionError(f"mu {mu.shape} and logvar {logvar.shape} differ")
    per = 0.5 * np.sum(mu * mu + np.exp(logvar) - logvar - 1.0, axis=-1)
    return float(np.mean(per))


def recon_loss(x: np.ndarray, x_hat: np.ndarray) -> float:
    """Mean squared error averaged over every sample of every cycle."""
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x.shape != x_hat.shape:
        raise DimensionError(f"shape mismatch {x.shape} vs {x_hat.shape}")
    d = x - x_hat
    return float(np.mean(d * d))


def kl_node(mu: Tensor, logvar: Tensor) -> Tensor:
    """Graph version of kl_loss: batch mean of per-row summed KL."""
    b = mu.data.shape[0]
    per_element = ad.square(mu) + ad.exp(logvar) - logvar - 1.0
    return ad.reduce_sum(per_element) * (0.5 / b)


def recon_node(x: Tensor, x_hat: Tensor) -> Tensor:
    """Graph version of recon_loss."""
    return ad.reduce_mean(ad.square(x_hat - x))


def reparameterize(mu: np.ndarray, logvar: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """z = mu + exp(logvar / 2) * noise, elementwise."""
    mu = np.asarray(mu)
    logvar = np.asarray(logvar)
    noise = np.asarray(noise)
    if mu.shape != logvar.shape or mu.shape != noise.shape:
        raise DimensionError("mu, logvar and noise must share a shape")
    return mu + np.exp(0.5 * logvar) * noise


# ---------------------------------------------------------------------------
# single-cycle conveniences


def encode_cycle(model: VaeModel, cycle) -> LatentCode:
    """Eval-mode posterior for one cycle (CardiacCycle or length-400 array)."""
    arr = cycle.samples if isinstance(cycle, CardiacCycle) else np.asarray(cycle)
    mu, logvar = model.encode(arr.reshape(1, -1))
    return LatentCode(mu=mu.data[0].copy(), logvar=logvar.data[0].copy())


def sample_latent(code: LatentCode, seed: int) -> LatentCode:
    """Draw z from the posterior with a recorded seed."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(code.mu.shape)
    z = reparameterize(code.mu, code.logvar, noise).astype(code.mu.dtype)
    return LatentCode(mu=code.mu, logvar=code.logvar, z=z, noise_seed=seed)


def decode_cycle(model: VaeModel, z: np.ndarray) -> CardiacCycle:
    """Eval-mode reconstruction of one latent vector as a CardiacCycle."""
    out = model.decode(np.asarray(z).reshape(1, -1))
    return CardiacCycle(out.data[0])


def encode_batch(model: VaeModel, cycles, batch: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode (mu, logvar) matrices for a stack of cycles, chunked."""
    arr = as_cycle_array(cycles)
    mus, lvs = [], []
    for lo in range(0, arr.shape[0], batch):
        mu, lv = model.encode(arr[lo:lo + batch])
        mus.append(mu.data)
        lvs.append(lv.data)
    return np.concatenate(mus, axis=0), np.concatenate(lvs, axis=0)


def decode_batch(model: VaeModel, z: np.ndarray, batch: int = 256) -> np.ndarray:
    """Eval-mode reconstructions for a stack of latent codes, chunked."""
    z = np.asarray(z, dtype=model.dtype)
    outs = []
    for lo in range(0, z.shape[0], batch):
        outs.append(model.decode(z[lo:lo + batch]).data)
    return np.concatenate(outs, axis=0)
