"""On-disk formats: cycle datasets, model checkpoints, records, CSVs, SVG plots.

Binary layouts share one envelope: 4 magic bytes, a little-endian body, and a
trailing CRC32 of the body. Readers check magic, then version, then that the
declared sizes fit the file, then the checksum, in that order, raising the
matching FormatError subclass at the first failure.

Plots are written as hand-rolled SVG with fixed decimal formatting, so the
same data always produces byte-identical files (nothing in them depends on
wall clock, locale, or library versions).
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from pathlib import Path
from typing import Optional, Sequence
from xml.sax.saxutils import escape

import numpy as np

from .data import EcgRecord, check_sampling_rate
from .errors import (
    BadMagicError,
    DimensionError,
    FormatError,
    IntegrityError,
    NumericsError,
    TruncatedFileError,
    VersionError,
)
from .model import ModelConfig, VaeModel, layer_table, table_floats
from .training import EpochStats

DATASET_MAGIC = b"ECGC"
MODEL_MAGIC = b"ECGV"
RECORD_MAGIC = b"ECGR"
FORMAT_VERSION = 1
MAX_TENSOR_RANK = 32  # numpy 1.x's array rank limit; checkpoints hold rank <= 3


# ---------------------------------------------------------------------------
# envelope helpers


def _wrap(magic: bytes, body: bytes) -> bytes:
    return magic + body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def _unwrap(buf: bytes, magic: bytes, kind: str) -> bytes:
    if len(buf) < 4:
        raise TruncatedFileError(f"{kind}: file shorter than its magic")
    if buf[:4] != magic:
        raise BadMagicError(
            f"{kind}: bad magic {buf[:4]!r}, expected {magic!r}"
        )
    if len(buf) < 8:
        raise TruncatedFileError(f"{kind}: missing checksum")
    body = buf[4:-4]
    (crc,) = struct.unpack("<I", buf[-4:])
    if (zlib.crc32(body) & 0xFFFFFFFF) != crc:
        raise IntegrityError(f"{kind}: CRC32 mismatch, file is corrupt")
    return body


class _Reader:
    """Sequential struct reader that turns overruns into TruncatedFileError."""

    def __init__(self, body: bytes, kind: str):
        self.body = body
        self.pos = 0
        self.kind = kind

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.body):
            raise TruncatedFileError(
                f"{self.kind}: body ends at byte {len(self.body)}, "
                f"needed {self.pos + n}"
            )
        out = self.body[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int, what: str) -> str:
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{self.kind}: {what} is not UTF-8: {e}") from e

    def shape(self) -> tuple[int, ...]:
        """A uint8 rank followed by that many uint32 sizes."""
        (ndim,) = self.unpack("<B")
        if ndim > MAX_TENSOR_RANK:
            raise FormatError(f"{self.kind}: tensor rank {ndim} exceeds {MAX_TENSOR_RANK}")
        return self.unpack(f"<{ndim}I")

    def floats(self, shape: tuple[int, ...]) -> np.ndarray:
        """A little-endian float32 array of `shape`, copied out of the body."""
        raw = self.take(math.prod(shape) * 4)  # Python ints: no overflow on hostile sizes
        try:
            return np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
        except ValueError as e:  # a zero-size shape whose other sizes numpy cannot hold
            raise FormatError(f"{self.kind}: bad array shape {shape}: {e}") from e

    def done(self) -> None:
        if self.pos != len(self.body):
            raise FormatError(
                f"{self.kind}: {len(self.body) - self.pos} trailing bytes"
            )


def _check_version(version: int, kind: str) -> None:
    if version != FORMAT_VERSION:
        raise VersionError(
            f"{kind}: format version {version} not supported (expected {FORMAT_VERSION})"
        )


def _write(path, data: bytes) -> None:
    """Write `data` to a sibling temp file, then rename it over `path`.

    A reader, or a run that dies mid-write, sees the old file or the new one,
    never a part. A symlink is followed. A path that exists and is not a
    regular file (/dev/null, a pipe) is written in place, since renaming over
    it would replace it.
    """
    path = Path(path)
    if path.is_symlink():
        path = path.resolve()  # replace the link's target, not the link
    if path.exists() and not path.is_file():
        path.write_bytes(data)
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# cycle dataset (.ecgc)


def save_dataset(path, cycles: np.ndarray, sampling_rate_hz: float = 500.0,
                 ids: Optional[Sequence[tuple[str, int]]] = None) -> None:
    """Write a [n, length] float32 cycle matrix, optionally with provenance ids."""
    cycles = np.ascontiguousarray(np.asarray(cycles, dtype=np.float32))
    if cycles.ndim != 2:
        raise DimensionError(f"cycles must be rank 2, got rank {cycles.ndim}")
    if cycles.shape[1] == 0:
        raise DimensionError("cycles have length 0")
    with np.errstate(over="ignore"):  # the rate as the file stores it: too large is inf
        fs = check_sampling_rate(np.float32(sampling_rate_hz))
    if ids is not None and len(ids) != cycles.shape[0]:
        raise DimensionError(
            f"{len(ids)} ids for {cycles.shape[0]} cycles"
        )
    n, length = cycles.shape
    flags = 1 if ids is not None else 0
    body = struct.pack("<HIQfB", FORMAT_VERSION, length, n, fs, flags)
    body += cycles.astype("<f4").tobytes()
    if ids is not None:
        blob = json.dumps([[rid, int(lid)] for rid, lid in ids],
                          separators=(",", ":")).encode("utf-8")
        body += struct.pack("<Q", len(blob)) + blob
    _write(path, _wrap(DATASET_MAGIC, body))


def load_dataset(path) -> tuple[np.ndarray, float, Optional[list[tuple[str, int]]]]:
    """Read back (cycles, sampling_rate_hz, ids-or-None)."""
    buf = Path(path).read_bytes()
    r = _Reader(_unwrap(buf, DATASET_MAGIC, "dataset"), "dataset")
    version, length, n, fs, flags = r.unpack("<HIQfB")
    _check_version(version, "dataset")
    if length == 0:
        raise FormatError("dataset: cycle length is 0")
    try:
        fs = check_sampling_rate(fs)
    except ValueError as e:
        raise IntegrityError(f"dataset: {e}") from e
    cycles = r.floats((n, length))
    ids = None
    if flags & 1:
        (blob_len,) = r.unpack("<Q")
        blob = r.take(blob_len)
        try:
            # JSON that parses but is not a list of (id, lead) pairs fails here too
            ids = [(str(rid), int(lid)) for rid, lid in json.loads(blob)]
        except (TypeError, ValueError) as e:  # ValueError covers JSON and UTF-8 errors
            raise FormatError(f"dataset: bad id footer: {e}") from e
        if len(ids) != n:
            raise IntegrityError(
                f"dataset: footer has {len(ids)} ids for {n} cycles"
            )
    r.done()
    return cycles, fs, ids


# ---------------------------------------------------------------------------
# raw record (.ecgr)


def save_record(path, record: EcgRecord) -> None:
    rid = record.record_id.encode("utf-8")
    body = struct.pack("<HHQfH", FORMAT_VERSION, record.n_leads, record.n_samples,
                       record.sampling_rate_hz, len(rid))
    body += rid
    body += record.leads.astype("<f4").tobytes()
    _write(path, _wrap(RECORD_MAGIC, body))


def load_record(path) -> EcgRecord:
    buf = Path(path).read_bytes()
    r = _Reader(_unwrap(buf, RECORD_MAGIC, "record"), "record")
    version, n_leads, n_samples, fs, id_len = r.unpack("<HHQfH")
    _check_version(version, "record")
    rid = r.text(id_len, "record id")
    leads = r.floats((n_leads, n_samples))
    r.done()
    try:
        return EcgRecord(leads, float(fs), rid)
    except (ValueError, NumericsError) as e:  # leads or rate the record type rejects
        raise IntegrityError(f"record: {e}") from e


# ---------------------------------------------------------------------------
# model checkpoint (.ecgv)


def _tensor_block(name: str, arr: np.ndarray) -> bytes:
    nm = name.encode("utf-8")
    arr = np.ascontiguousarray(arr, dtype="<f4")
    head = struct.pack("<H", len(nm)) + nm + struct.pack("<B", arr.ndim)
    head += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head + arr.tobytes()


def save_model(path, model: VaeModel) -> None:
    """Checkpoint = JSON manifest (config + layer table) + named f32 tensors."""
    manifest = {
        "model_config": model.config.to_dict(),
        "layers": layer_table(model.config),
        "train_config": model.train_config_dict,
        "train_seed": model.train_seed,
        "dtype": str(model.dtype),
    }
    blob = json.dumps(manifest, separators=(",", ":"), sort_keys=True).encode("utf-8")
    tensors = [(name, p.data) for name, p in model.named_parameters()]
    tensors += model.named_state()
    body = struct.pack("<H", FORMAT_VERSION)
    body += struct.pack("<I", len(blob)) + blob
    body += struct.pack("<I", len(tensors))
    for name, arr in tensors:
        body += _tensor_block(name, arr)
    _write(path, _wrap(MODEL_MAGIC, body))


def load_model(path) -> VaeModel:
    """Check the manifest against its config's layer table and the file's float
    count, then build the model and copy the tensors into it."""
    buf = Path(path).read_bytes()
    r = _Reader(_unwrap(buf, MODEL_MAGIC, "model"), "model")
    (version,) = r.unpack("<H")
    _check_version(version, "model")
    (blob_len,) = r.unpack("<I")
    try:
        manifest = json.loads(r.take(blob_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"model: bad manifest JSON: {e}") from e
    (n_tensors,) = r.unpack("<I")
    loaded: dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        (name_len,) = r.unpack("<H")
        name = r.text(name_len, "tensor name")
        if name in loaded:
            raise IntegrityError(f"model: tensor '{name}' appears twice")
        loaded[name] = r.floats(r.shape())
    r.done()

    try:
        config = ModelConfig.from_dict(manifest["model_config"])
        table = layer_table(config)
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"model: bad model_config in manifest: {e}") from e
    if manifest.get("layers") != table:
        raise IntegrityError("model: manifest layer table does not match its model_config")
    n_floats = sum(arr.size for arr in loaded.values())
    if n_floats != table_floats(table):  # checked before the model allocates its tensors
        raise IntegrityError(f"model: file holds {n_floats} floats, its layer table "
                             f"{table_floats(table)}")
    model = VaeModel.build(config, seed=0)
    for name, target in [(n, p.data) for n, p in model.named_parameters()] + model.named_state():
        arr = loaded.pop(name, None)
        if arr is None:
            raise IntegrityError(f"model: tensor '{name}' is missing")
        if arr.shape != target.shape:
            raise IntegrityError(f"model: tensor '{name}' has shape {arr.shape}, "
                                 f"expected {target.shape}")
        target[...] = arr
    if loaded:
        raise IntegrityError(f"model: unexpected tensors {sorted(loaded)[:3]}")
    model.train_seed = manifest.get("train_seed")
    model.train_config_dict = manifest.get("train_config")
    return model


# ---------------------------------------------------------------------------
# CSV writers (plain text, one canonical float format)


def _fmt(v: float) -> str:
    return repr(float(v))


def write_loss_history(path, history: Sequence[EpochStats]) -> None:
    lines = ["epoch,train_recon,train_kl,eval_recon,eval_kl"]
    for h in history:
        lines.append(f"{h.epoch},{_fmt(h.train_recon)},{_fmt(h.train_kl)},"
                     f"{_fmt(h.eval_recon)},{_fmt(h.eval_kl)}")
    _write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_mmd_report(path, reports) -> None:
    rows = reports if isinstance(reports, (list, tuple)) else [reports]
    lines = ["label_a,label_b,n_a,n_b,sigma,mmd2_biased,mmd2_unbiased,seed"]
    for m in rows:
        lines.append(f"{m.label_a},{m.label_b},{m.n_a},{m.n_b},{_fmt(m.sigma)},"
                     f"{_fmt(m.mmd2_biased)},{_fmt(m.mmd2_unbiased)},{m.seed}")
    _write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_features_csv(path, mu: np.ndarray) -> None:
    mu = np.asarray(mu)
    if mu.ndim != 2:
        raise DimensionError(f"feature matrix must be rank 2, got rank {mu.ndim}")
    header = ",".join(f"f{i:02d}" for i in range(mu.shape[1]))
    lines = [header]
    for row in mu:
        lines.append(",".join(_fmt(v) for v in row))
    _write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_r_truth_csv(path, entries: Sequence[tuple[str, int]]) -> None:
    """entries: (record_id, r_index) pairs, one row each."""
    lines = ["record_id,r_index"]
    for rid, idx in entries:
        lines.append(f"{rid},{int(idx)}")
    _write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_r_truth_csv(path) -> dict[str, np.ndarray]:
    text = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not text or text[0] != "record_id,r_index":
        raise FormatError("r-truth CSV: missing or wrong header")
    out: dict[str, list[int]] = {}
    for ln, line in enumerate(text[1:], 2):
        rid, _, idx = line.partition(",")
        try:
            out.setdefault(rid, []).append(int(idx))
        except ValueError as e:  # no comma leaves idx empty
            raise FormatError(f"r-truth CSV: line {ln}: expected record_id,r_index, "
                              f"got {line!r}") from e
    return {k: np.asarray(v, dtype=np.int64) for k, v in out.items()}


# ---------------------------------------------------------------------------
# SVG plotting


_SVG_W = 1000
_MARGIN_L = 90
_MARGIN_R = 25
_MARGIN_T = 30
_MARGIN_B = 50
_BAND_H = 64
_COLORS = ("#1f6fb2", "#b23a1f", "#2a8a4a", "#7a4ab2", "#b2861f")


def _f(v: float) -> str:
    return f"{v:.2f}"


def emit_plot(traces, labels: Optional[Sequence[str]] = None, path=None,
              title: str = "") -> str:
    """Render stacked traces as SVG; returns the markup, writes it if path given.

    Each trace gets its own horizontal band (fixed vertical offsets), all bands
    share one value scale, and the x axis is labeled in samples. Output bytes
    depend only on the inputs.
    """
    rows = [np.asarray(t, dtype=np.float64).reshape(-1) for t in traces]
    if not rows:
        raise DimensionError("nothing to plot")
    length = rows[0].shape[0]
    if any(r.shape[0] != length for r in rows):
        raise DimensionError("all traces must have the same length")
    if labels is not None and len(labels) != len(rows):
        raise DimensionError(f"{len(labels)} labels for {len(rows)} traces")

    gmin = min(float(r.min()) for r in rows)
    gmax = max(float(r.max()) for r in rows)
    spread = gmax - gmin
    if spread <= 0:
        spread = 1.0
    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    height = _MARGIN_T + _BAND_H * len(rows) + _MARGIN_B
    xs = _MARGIN_L + np.arange(length) * (plot_w / max(1, length - 1))

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{height}" '
        f'viewBox="0 0 {_SVG_W} {height}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{height}" fill="#ffffff"/>',
    ]
    if title:
        out.append(f'<text x="{_MARGIN_L}" y="20" font-family="monospace" '
                   f'font-size="13" fill="#222222">{escape(title)}</text>')

    for i, r in enumerate(rows):
        mid = _MARGIN_T + _BAND_H * i + _BAND_H / 2.0
        scale = (_BAND_H * 0.9) / spread
        ys = mid + (0.5 * (gmin + gmax) - r) * scale
        pts = " ".join(f"{_f(x)},{_f(y)}" for x, y in zip(xs, ys))
        color = _COLORS[i % len(_COLORS)]
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.0"/>')
        if labels is not None:
            out.append(f'<text x="4" y="{_f(mid + 4)}" font-family="monospace" '
                       f'font-size="11" fill="#222222">{escape(str(labels[i]))}</text>')

    axis_y = _MARGIN_T + _BAND_H * len(rows) + 8
    out.append(f'<line x1="{_MARGIN_L}" y1="{axis_y}" x2="{_SVG_W - _MARGIN_R}" '
               f'y2="{axis_y}" stroke="#444444" stroke-width="1.0"/>')
    step = max(1, (length - 1) // 8)
    ticks = list(range(0, length, step))
    if ticks[-1] != length - 1:
        ticks.append(length - 1)
    for t in ticks:
        x = _f(float(xs[t]))
        out.append(f'<line x1="{x}" y1="{axis_y}" x2="{x}" y2="{axis_y + 5}" '
                   f'stroke="#444444" stroke-width="1.0"/>')
        out.append(f'<text x="{x}" y="{axis_y + 18}" font-family="monospace" '
                   f'font-size="10" fill="#444444" text-anchor="middle">{t}</text>')
    out.append(f'<text x="{_SVG_W - _MARGIN_R}" y="{axis_y + 34}" font-family="monospace" '
               f'font-size="10" fill="#444444" text-anchor="end">samples</text>')
    # vertical scale bar: full band height corresponds to `spread` millivolts
    bar_top = _MARGIN_T + _BAND_H * 0.05
    out.append(f'<line x1="{_MARGIN_L - 10}" y1="{_f(bar_top)}" x2="{_MARGIN_L - 10}" '
               f'y2="{_f(bar_top + _BAND_H * 0.9)}" stroke="#444444" stroke-width="1.0"/>')
    out.append(f'<text x="{_MARGIN_L - 14}" y="{_f(_MARGIN_T + _BAND_H / 2)}" '
               f'font-family="monospace" font-size="10" fill="#444444" '
               f'text-anchor="end">{spread:.3g} mV</text>')
    out.append("</svg>")
    markup = "\n".join(out) + "\n"
    if path is not None:
        _write(path, markup.encode("utf-8"))
    return markup
