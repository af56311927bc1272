"""Shared test helpers: finite-difference gradient checking, tiny fixtures."""

from __future__ import annotations

import json

import numpy as np
import pytest

from ecgvae import autodiff as ad
from ecgvae.autodiff import Tensor
from ecgvae.model import ModelConfig, kl_node, recon_node
from ecgvae.training import DEFAULT_BETA_KL

# small architecture with the same block pattern; keeps gradient checks and training fast
COMPACT = ModelConfig(
    input_len=64, latent_dim=4, conv_channels=(4, 8, 8, 8),
    enc_dense=(32, 16), dec_dense=(16, 32), dec_conv_channels=(8, 8, 8),
)


def central_diff(build_loss, tensor, flat_index: int) -> float:
    """d loss / d tensor[flat_index] by central differences, h scaled to |x|."""
    flat = tensor.data.reshape(-1)
    old = float(flat[flat_index])
    h = 1e-5 * max(1.0, abs(old))
    flat[flat_index] = old + h
    lp = build_loss().item()
    flat[flat_index] = old - h
    lm = build_loss().item()
    flat[flat_index] = old
    return (lp - lm) / (2.0 * h)


def max_grad_rel_err(build_loss, tensors, n_per_tensor=None, rng=None) -> float:
    """Worst relative error between analytic and numeric gradients.

    Checks every coordinate unless n_per_tensor caps it (then a seeded choice).
    The relative error uses a 1e-6 floor so coordinates whose true gradient is
    zero (dead ReLU paths) compare FD noise against zero instead of dividing
    by it.
    """
    for t in tensors:
        t.grad = None
    loss = build_loss()
    loss.backward()
    worst = 0.0
    for t in tensors:
        assert t.grad is not None, "tensor missed by backward()"
        gflat = np.asarray(t.grad).reshape(-1)
        size = t.data.size
        if n_per_tensor is None or n_per_tensor >= size:
            picks = range(size)
        else:
            picks = rng.choice(size, size=n_per_tensor, replace=False)
        for k in picks:
            fd = central_diff(build_loss, t, int(k))
            an = float(gflat[int(k)])
            rel = abs(fd - an) / max(1e-6, abs(fd), abs(an))
            worst = max(worst, rel)
    return worst


def graph_nodes(out) -> list:
    """Every tensor recorded on the tape behind `out`, leaves and `out` included."""
    nodes, stack, seen = [], [out], set()
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        nodes.append(t)
        stack.extend(t._parents)
    return nodes


def training_loss(model):
    """The loss training.train builds, on 4 seeded random cycles with the model in train mode."""
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((4, model.config.input_len)).astype(np.float32))
    noise = Tensor(rng.standard_normal((4, model.config.latent_dim)).astype(np.float32))
    mu, lv = model.encode(x, train=True)
    z = mu + ad.exp(lv * 0.5) * noise
    return recon_node(x, model.decode(z, train=True)) + kl_node(mu, lv) * DEFAULT_BETA_KL


def old_format_manifest(blob: bytes) -> bytes:
    """A checkpoint manifest as written while kernel width, pool width, upsample factor,
    batch-norm momentum/eps and the eval hold-out were settable: config keys and layer fields
    (the Concat entries' axis included)."""
    manifest = json.loads(blob)
    manifest["model_config"].update(kernel_size=5, pool_width=2, up_factor=2,
                                    bn_momentum=0.1, bn_eps=1e-5)
    fields = {"Conv1d": {"stride": 1}, "BatchNorm1d": {"momentum": 0.1, "eps": 1e-5},
              "MaxPool1d": {"width": 2}, "UpsampleNearest1d": {"factor": 2},
              "Concat": {"axis": 1}}
    for chain in manifest["layers"].values():
        for spec in chain:
            spec.update(fields.get(spec["kind"], {}))
    if manifest["train_config"] is not None:
        manifest["train_config"]["eval_fraction"] = 0.2
    return json.dumps(manifest, separators=(",", ":"), sort_keys=True).encode("utf-8")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
