"""Variational autoencoder over single cardiac cycles.

Encoder runs a convolutional branch (conv/batchnorm/relu/maxpool blocks that
halve the length four times, then a width-1 conv collapsing channels) next to
a dense branch, concatenates both 25-wide outputs into a 50-vector, and maps
that through two affine heads to the posterior mean and log-variance. The
decoder mirrors it: a dense branch straight to 400 samples and a conv branch
that upsamples the latent code back to length 400, concatenated into an
800-vector and projected to the output cycle.

The two loss terms have one definition each, kl_node and recon_node. They
build the loss that training optimizes, and on float64 constants they give
the eval numbers: the loss CSV's eval columns and the mean-cycle baseline.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import CYCLE_LEN, as_cycle_array
from .errors import DimensionError
from .layers import (
    BatchNorm1d,
    Conv1d,
    Dense,
    Layer,
    MaxPool1d,
    Parameter,
    ReLU,
    Sequential,
    UpsampleNearest1d,
)


# the model's layer chains in checkpoint order
_CHAINS = ("enc_conv", "enc_dense", "mu_head", "logvar_head", "dec_dense", "dec_conv", "out_head")


# width of every conv but the encoder's last, which collapses the channels with width 1
KERNEL_SIZE = 5


@dataclass(frozen=True)
class ModelConfig:
    """Layer sizes of the architecture; defaults reproduce the 400->25 stack.

    The rest is fixed: KERNEL_SIZE, MaxPool1d.width, UpsampleNearest1d.factor
    and BatchNorm1d's momentum and eps.
    """

    input_len: int = CYCLE_LEN
    latent_dim: int = 25
    conv_channels: tuple[int, ...] = (16, 32, 64, 128)
    enc_dense: tuple[int, ...] = (256, 64)
    dec_dense: tuple[int, ...] = (64, 128, 256)
    dec_conv_channels: tuple[int, ...] = (64, 32, 16)

    def __post_init__(self):
        # every size the layer constructors reject, so a layer table is valid before any is built
        for field in fields(self):
            value = getattr(self, field.name)
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                    raise ValueError(f"{field.name} must hold ints >= 1, got {value!r}")
        n_pools = len(self.conv_channels)
        if self.input_len != self.latent_dim * MaxPool1d.width ** n_pools:
            raise ValueError(
                f"input_len {self.input_len} must equal latent_dim {self.latent_dim} "
                f"* {MaxPool1d.width}^{n_pools}"
            )
        n_ups = len(self.dec_conv_channels) + 1
        if self.latent_dim * UpsampleNearest1d.factor ** n_ups != self.input_len:
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


def layer_table(config: ModelConfig) -> dict[str, list[dict]]:
    """Each chain's layers as {"kind": class name, **constructor arguments}, joints included.

    The one description of the architecture: VaeModel builds its chains from
    it, save_model writes it as a checkpoint's layer manifest, and load_model
    checks a file against it before it builds anything.
    """
    latent, n = config.latent_dim, config.input_len

    def conv(c_in: int, c_out: int, width: int = KERNEL_SIZE) -> dict:
        return {"kind": "Conv1d", "in_channels": c_in, "out_channels": c_out,
                "kernel_size": width}

    def dense(n_in: int, n_out: int) -> dict:
        return {"kind": "Dense", "in_features": n_in, "out_features": n_out}

    def norm_relu(width: int) -> list[dict]:
        return [{"kind": "BatchNorm1d", "num_features": width}, {"kind": "ReLU"}]

    def conv_chain(channels: tuple[int, ...], resample: str) -> list[dict]:
        return [spec for a, b in zip(channels, channels[1:])
                for spec in [conv(a, b), *norm_relu(b), {"kind": resample}]]

    def dense_chain(widths: tuple[int, ...]) -> list[dict]:
        return [spec for a, b in zip(widths, widths[1:]) for spec in [dense(a, b), *norm_relu(b)]]

    def join(inputs: list[str], width: int) -> list[dict]:
        return [{"kind": "Concat", "inputs": inputs, "width": width}]

    enc_channels = (1,) + config.conv_channels
    return {
        "enc_conv": conv_chain(enc_channels, "MaxPool1d") + [conv(enc_channels[-1], 1, 1)],
        "enc_dense": dense_chain((n,) + config.enc_dense + (latent,)),
        "enc_join": join(["enc_conv", "enc_dense"], 2 * latent),
        "mu_head": [dense(2 * latent, latent)],
        "logvar_head": [dense(2 * latent, latent)],
        "dec_dense": dense_chain((latent,) + config.dec_dense + (n,)),
        "dec_conv": conv_chain((1,) + config.dec_conv_channels + (1,), "UpsampleNearest1d"),
        "dec_join": join(["dec_dense", "dec_conv"], 2 * n),
        "out_head": [dense(2 * n, n)],
    }


_FLOATS = {  # parameters plus running statistics of one layer
    "Dense": lambda s: s["out_features"] * (s["in_features"] + 1),
    "Conv1d": lambda s: s["out_channels"] * (s["in_channels"] * s["kernel_size"] + 1),
    "BatchNorm1d": lambda s: 4 * s["num_features"],
}


def table_floats(table: dict[str, list[dict]]) -> int:
    """Number of floats in the tensors of a model built from `table`."""
    return sum(_FLOATS[s["kind"]](s) for chain in table.values() for s in chain
               if s["kind"] in _FLOATS)


_KINDS = {cls.__name__: cls for cls in (Dense, Conv1d, BatchNorm1d, ReLU, MaxPool1d,
                                        UpsampleNearest1d)}


def _layer(spec: dict, rng: np.random.Generator, dtype) -> Layer:
    """Construct the layer one table entry describes."""
    cls = _KINDS[spec["kind"]]
    args = {key: v for key, v in spec.items() if key != "kind"}
    if cls in (Dense, Conv1d):
        args["rng"] = rng
    if cls in (Dense, Conv1d, BatchNorm1d):
        args["dtype"] = dtype
    return cls(**args)


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
        table = layer_table(config)
        for chain in _CHAINS:  # checkpoint order is construction order: He draws follow it
            layers = [_layer(spec, rng, dtype) for spec in table[chain]]
            # a head is one bare Dense, so its tensors are named like mu_head.weight
            setattr(self, chain, layers[0] if chain.endswith("_head") else Sequential(layers))

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
            h = ad.concat(self._branches(t, self.enc_conv, self.enc_dense, train))
            return self.mu_head(h), self.logvar_head(h)

    def decode(self, z, train: bool = False) -> Tensor:
        """Map latent codes [B, 25] to reconstructed cycles [B, 400]; no tape in eval."""
        t = self._as_batch(z, self.config.latent_dim, "latent codes")
        with ad.recording(train):
            conv, densev = self._branches(t, self.dec_conv, self.dec_dense, train)
            return self.out_head(ad.concat([densev, conv]))

    # -- parameter access ----------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Parameter]]:
        return [item for chain in _CHAINS
                for item in getattr(self, chain).named_parameters(f"{chain}.")]

    def named_state(self) -> list[tuple[str, np.ndarray]]:
        return [item for chain in _CHAINS
                for item in getattr(self, chain).named_state(f"{chain}.")]

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
# losses


def kl_node(mu: Tensor, logvar: Tensor) -> Tensor:
    """KL(N(mu, diag exp(logvar)) || N(0, I)), summed over features, mean over rows.

    Closed form per feature: (mu^2 + e^lv - lv - 1) / 2. mu and logvar are
    [rows, features]: axis 0 counts the rows.
    """
    b = mu.data.shape[0]
    per_element = ad.square(mu) + ad.exp(logvar) - logvar - 1.0
    return ad.reduce_sum(per_element) * (0.5 / b)


def recon_node(x: Tensor, x_hat: Tensor) -> Tensor:
    """Mean squared error averaged over every sample of every cycle."""
    return ad.reduce_mean(ad.square(x_hat - x))


# rows per model call in encode_batch and decode_batch (see encode_batch); each is the
# fastest size measured for its direction on a 1-thread OpenBLAS
ENCODE_ROWS = 64
DECODE_ROWS = 128


def _in_chunks(forward, x: np.ndarray, rows: int) -> list[np.ndarray]:
    """forward's output arrays over x, run in chunks of exactly `rows` rows.

    A short last chunk is padded with copies of its last row, and their outputs
    are dropped: a copy of a finite row keeps the fused pass's finite check on
    the chunk's real rows.
    """
    if x.shape[0] == 0:
        raise DimensionError("nothing to run: the input has no rows")
    outs = []
    for lo in range(0, x.shape[0], rows):
        chunk = x[lo:lo + rows]
        real = chunk.shape[0]
        if real < rows:
            chunk = np.concatenate((chunk, np.repeat(chunk[-1:], rows - real, axis=0)))
        outs.append([y.data[:real] for y in forward(chunk)])
    return [np.concatenate(parts) for parts in zip(*outs)]


def encode_batch(model: VaeModel, cycles) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode (mu, logvar) matrices for a stack of cycles.

    Every model call sees exactly ENCODE_ROWS rows, so a row's outputs are the
    same bits however the rows are split into calls or ordered. That holds as
    long as the BLAS computes each row of a fixed-shape product the same way,
    which OpenBLAS does and no BLAS promises.
    """
    return tuple(_in_chunks(model.encode, as_cycle_array(cycles), ENCODE_ROWS))


def decode_batch(model: VaeModel, z) -> np.ndarray:
    """Eval-mode reconstructions for a stack of latent codes, in calls of DECODE_ROWS rows.

    Row-invariant as encode_batch is; a single 1-D code decodes as one row.
    """
    z = np.asarray(z, dtype=model.dtype)
    if z.ndim == 1:
        z = z[None, :]
    (out,) = _in_chunks(lambda c: (model.decode(c),), z, DECODE_ROWS)
    return out
