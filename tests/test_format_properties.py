"""Property: a damaged .ecgc, .ecgr or .ecgv file loads or raises FormatError.

Damage is a truncation of the file, a truncation of the body re-sealed with a
valid CRC32, byte overwrites of the body re-sealed the same way, or digit
swaps re-sealed the same way. The CRC makes plain corruption an
IntegrityError, so the re-sealed cases are the ones that reach the decoders;
digit swaps keep a checkpoint's JSON manifest parseable, so they reach the
architecture it describes. The files are tiny so that a drawn offset often
lands in a header, a manifest or a footer. Examples are derandomized, so the
suite is deterministic.
"""

import functools
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ecgvae.data import EcgRecord
from ecgvae.errors import FormatError
from ecgvae.model import ModelConfig, VaeModel
from ecgvae.persistence import (
    load_dataset,
    load_model,
    load_record,
    save_dataset,
    save_model,
    save_record,
)

TINY = ModelConfig(input_len=4, latent_dim=1, conv_channels=(2, 2),
                   enc_dense=(3,), dec_dense=(3,), dec_conv_channels=(2,))

FORMATS = {
    "dataset": (lambda p: save_dataset(p, np.arange(12, dtype=np.float32).reshape(3, 4),
                                       ids=[("rec_a", 0), ("rec_b", 1), ("rec_b", 0)]),
                load_dataset),
    "record": (lambda p: save_record(p, EcgRecord(
        np.arange(10, dtype=np.float32).reshape(2, 5), 360.0, "rec_a")), load_record),
    "model": (lambda p: save_model(p, VaeModel.build(TINY, seed=0)), load_model),
}

DIGITS = b"0123456789"


@functools.cache
def valid_file(kind: str) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / kind
        FORMATS[kind][0](path)
        return path.read_bytes()


def damage(raw: bytes, data) -> bytes:
    magic, body = raw[:4], bytearray(raw[4:-4])
    spots = [i for i, b in enumerate(body) if b in DIGITS]
    mode = data.draw(st.sampled_from(["cut file", "cut body", "overwrite"]
                                     + (["digits"] if spots else [])))
    if mode == "cut file":
        return raw[:data.draw(st.integers(0, len(raw) - 1))]
    if mode == "cut body":
        body = body[:data.draw(st.integers(0, len(body) - 1))]
    elif mode == "overwrite":
        byte = st.sampled_from([0x00, 0x01, 0x7F, 0x80, 0xFF]) | st.integers(0, 255)
        for at, value in data.draw(st.lists(st.tuples(st.integers(0, len(body) - 1), byte),
                                            min_size=1, max_size=3)):
            body[at] = value
    else:
        for at, value in data.draw(st.lists(st.tuples(st.sampled_from(spots),
                                                      st.sampled_from(DIGITS)),
                                            min_size=1, max_size=2)):
            body[at] = value
    return magic + bytes(body) + struct.pack("<I", zlib.crc32(body))


@pytest.mark.parametrize("kind", sorted(FORMATS))
@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_file_loads_or_raises_format_error(tmp_path, kind, data):
    path = tmp_path / kind
    path.write_bytes(damage(valid_file(kind), data))
    try:
        FORMATS[kind][1](path)
    except FormatError:
        pass
