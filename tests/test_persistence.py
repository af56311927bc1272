"""File format roundtrips, corruption handling, CSV and SVG determinism."""

import csv
import json
import os
import re
import stat
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from conftest import COMPACT, old_format_manifest
from ecgvae import persistence
from ecgvae.data import EcgRecord
from ecgvae.errors import (
    BadMagicError,
    DimensionError,
    FormatError,
    IntegrityError,
    TruncatedFileError,
    VersionError,
)
from ecgvae.metrics import MmdReport
from ecgvae.model import ModelConfig, VaeModel, layer_table
from ecgvae.persistence import (
    emit_plot,
    load_dataset,
    load_model,
    load_record,
    read_r_truth_csv,
    save_dataset,
    save_model,
    save_record,
    write_features_csv,
    write_loss_history,
    write_mmd_report,
    write_r_truth_csv,
)
from ecgvae.training import EpochStats


def corrupt_byte(path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def rewrite_body(path, edit) -> None:
    """Apply edit(bytearray) to the body and re-seal it with a valid CRC32."""
    raw = path.read_bytes()
    body = bytearray(raw[4:-4])
    edit(body)
    path.write_bytes(raw[:4] + bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))


def rewrite_manifest(path, edit) -> None:
    """Replace a checkpoint's manifest by edit(manifest bytes), re-sealed with a valid CRC32."""
    def edit_body(body):
        (blob_len,) = struct.unpack_from("<I", body, 2)
        blob = edit(bytes(body[6:6 + blob_len]))
        body[2:6 + blob_len] = struct.pack("<I", len(blob)) + blob

    rewrite_body(path, edit_body)


def delete_one_comma(blob: bytes) -> bytes:
    assert b'"enc_dense":[256,64]' in blob
    return blob.replace(b'"enc_dense":[256,64]', b'"enc_dense":[25664]')


def widen_config_and_table(blob: bytes) -> bytes:
    """A 20000-wide first enc_dense layer in both the config and the layer table."""
    manifest = json.loads(blob)
    manifest["model_config"]["enc_dense"] = [20000, 64]
    manifest["layers"] = layer_table(ModelConfig.from_dict(manifest["model_config"]))
    return json.dumps(manifest, separators=(",", ":"), sort_keys=True).encode("utf-8")


BAD_RATES = [float("nan"), 0.0, -1.0, float("inf")]


class TestDatasetFormat:
    def test_roundtrip_with_ids(self, tmp_path, rng):
        cycles = rng.standard_normal((7, 400)).astype(np.float32)
        ids = [(f"rec_{i:04d}#0", i % 3) for i in range(7)]
        p = tmp_path / "d.ecgc"
        save_dataset(p, cycles, sampling_rate_hz=250.0, ids=ids)
        got, fs, got_ids = load_dataset(p)
        np.testing.assert_array_equal(got, cycles)
        assert fs == 250.0
        assert got_ids == ids

    def test_roundtrip_without_ids(self, tmp_path, rng):
        cycles = rng.standard_normal((3, 64)).astype(np.float32)
        p = tmp_path / "d.ecgc"
        save_dataset(p, cycles)
        got, fs, got_ids = load_dataset(p)
        np.testing.assert_array_equal(got, cycles)
        assert got_ids is None

    def test_save_is_byte_identical(self, tmp_path, rng):
        cycles = rng.standard_normal((5, 400)).astype(np.float32)
        a, b = tmp_path / "a.ecgc", tmp_path / "b.ecgc"
        save_dataset(a, cycles)
        save_dataset(b, cycles)
        assert a.read_bytes() == b.read_bytes()

    def test_corrupt_payload_byte(self, tmp_path, rng):
        p = tmp_path / "d.ecgc"
        save_dataset(p, rng.standard_normal((4, 64)).astype(np.float32))
        corrupt_byte(p, 40)
        with pytest.raises(IntegrityError):
            load_dataset(p)

    def test_wrong_magic(self, tmp_path, rng):
        p = tmp_path / "d.ecgc"
        save_dataset(p, rng.standard_normal((2, 8)).astype(np.float32))
        data = bytearray(p.read_bytes())
        data[:4] = b"NOPE"
        p.write_bytes(bytes(data))
        with pytest.raises(BadMagicError):
            load_dataset(p)

    def test_truncation(self, tmp_path, rng):
        p = tmp_path / "d.ecgc"
        save_dataset(p, rng.standard_normal((2, 8)).astype(np.float32))
        p.write_bytes(p.read_bytes()[:3])
        with pytest.raises(TruncatedFileError):
            load_dataset(p)

    def test_unsupported_version(self, tmp_path, rng):
        import struct
        import zlib
        p = tmp_path / "d.ecgc"
        body = struct.pack("<HIQfB", 99, 4, 1, 500.0, 0) + b"\x00" * 16
        p.write_bytes(b"ECGC" + body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(VersionError):
            load_dataset(p)

    def test_trailing_garbage_with_valid_crc(self, tmp_path, rng):
        import struct
        import zlib
        p = tmp_path / "d.ecgc"
        save_dataset(p, rng.standard_normal((2, 8)).astype(np.float32))
        raw = p.read_bytes()
        body = raw[4:-4] + b"\x00\x00"
        p.write_bytes(b"ECGC" + body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(FormatError):
            load_dataset(p)

    @pytest.mark.parametrize("footer", [b"5", b"[[1]]", b'[["a", "x"]]', b"\xff"])
    def test_malformed_id_footer_with_valid_crc(self, tmp_path, footer):
        p = tmp_path / "d.ecgc"
        save_dataset(p, np.zeros((1, 8), dtype=np.float32), ids=[("a", 0)])
        end = struct.calcsize("<HIQfB") + 8 * 4

        def edit(body):
            body[end:] = struct.pack("<Q", len(footer)) + footer

        rewrite_body(p, edit)
        with pytest.raises(FormatError, match="bad id footer"):
            load_dataset(p)

    @pytest.mark.parametrize("n", [3, 2 ** 63])
    def test_zero_cycle_length_with_valid_crc(self, tmp_path, n):
        p = tmp_path / "d.ecgc"
        body = struct.pack("<HIQfB", 1, 0, n, 500.0, 0)
        p.write_bytes(b"ECGC" + body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(FormatError, match="cycle length is 0"):
            load_dataset(p)

    @pytest.mark.parametrize("rate", BAD_RATES + [1e-50, 1e39])  # float32 0 and inf
    def test_save_refuses_bad_sampling_rate(self, tmp_path, rate):
        p = tmp_path / "d.ecgc"
        with pytest.raises(ValueError, match="sampling rate"):
            save_dataset(p, np.zeros((2, 8), dtype=np.float32), sampling_rate_hz=rate)
        assert not p.exists()

    @pytest.mark.parametrize("rate", BAD_RATES)
    def test_bad_sampling_rate_with_valid_crc(self, tmp_path, rate):
        p = tmp_path / "d.ecgc"
        save_dataset(p, np.zeros((2, 8), dtype=np.float32))
        at = struct.calcsize("<HIQ")
        rewrite_body(p, lambda body: body.__setitem__(slice(at, at + 4), struct.pack("<f", rate)))
        with pytest.raises(IntegrityError, match="sampling rate"):
            load_dataset(p)

    def test_rank_validation(self, tmp_path):
        with pytest.raises(DimensionError):
            save_dataset(tmp_path / "x.ecgc", np.zeros(10, dtype=np.float32))
        with pytest.raises(DimensionError):
            save_dataset(tmp_path / "x.ecgc", np.zeros((3, 0), dtype=np.float32))
        with pytest.raises(DimensionError):
            save_dataset(tmp_path / "x.ecgc", np.zeros((2, 4), dtype=np.float32),
                         ids=[("a", 0)])


class TestRecordFormat:
    def test_roundtrip(self, tmp_path, rng):
        rec = EcgRecord(rng.standard_normal((3, 1000)).astype(np.float32),
                        360.0, "rec_0042")
        p = tmp_path / "r.ecgr"
        save_record(p, rec)
        got = load_record(p)
        np.testing.assert_array_equal(got.leads, rec.leads)
        assert got.sampling_rate_hz == 360.0
        assert got.record_id == "rec_0042"

    @pytest.mark.parametrize("rate", [1e-50, 1e39])  # float32 0 and inf
    def test_save_refuses_rate_float32_cannot_hold(self, tmp_path, rate):
        rec = EcgRecord(np.zeros((1, 50), dtype=np.float32), rate, "rec_0001")
        with pytest.raises(ValueError, match="sampling rate"):
            save_record(tmp_path / "r.ecgr", rec)
        assert list(tmp_path.iterdir()) == []  # neither the file nor a temp file

    def test_corruption_detected(self, tmp_path, rng):
        p = tmp_path / "r.ecgr"
        save_record(p, EcgRecord(rng.standard_normal((1, 500)).astype(np.float32)))
        corrupt_byte(p, 100)
        with pytest.raises(IntegrityError):
            load_record(p)


    def test_non_utf8_id_with_valid_crc(self, tmp_path, rng):
        p = tmp_path / "r.ecgr"
        save_record(p, EcgRecord(rng.standard_normal((1, 50)).astype(np.float32),
                                 500.0, "rec_0001"))
        head = struct.calcsize("<HHQfH")
        rewrite_body(p, lambda body: body.__setitem__(head, 0xFF))
        with pytest.raises(FormatError, match="record id is not UTF-8"):
            load_record(p)


    def test_zero_size_shape_numpy_cannot_hold_with_valid_crc(self, tmp_path):
        # 0 leads x 2^63 samples: zero bytes to read, but no array of that shape exists
        p = tmp_path / "r.ecgr"
        body = struct.pack("<HHQfH", 1, 0, 2 ** 63, 500.0, 1) + b"a"
        p.write_bytes(b"ECGR" + body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(FormatError, match="bad array shape"):
            load_record(p)

    def test_infinite_sampling_rate_with_valid_crc(self, tmp_path):
        p = tmp_path / "r.ecgr"
        save_record(p, EcgRecord(np.ones((1, 50), dtype=np.float32), 500.0, "rec_0001"))
        at = struct.calcsize("<HHQ")
        rewrite_body(p, lambda body: body.__setitem__(slice(at, at + 4),
                                                      struct.pack("<f", float("inf"))))
        with pytest.raises(IntegrityError, match="sampling rate"):
            load_record(p)

    @pytest.mark.parametrize("at,value", [
        (struct.calcsize("<HHQ"), struct.pack("<f", float("nan"))),   # sampling rate
        (struct.calcsize("<HHQ"), struct.pack("<f", -250.0)),
        (struct.calcsize("<HHQfH") + 8, struct.pack("<f", float("inf"))),  # one sample
    ])
    def test_values_the_record_type_rejects_with_valid_crc(self, tmp_path, at, value):
        p = tmp_path / "r.ecgr"
        save_record(p, EcgRecord(np.ones((1, 50), dtype=np.float32), 500.0, "rec_0001"))
        rewrite_body(p, lambda body: body.__setitem__(slice(at, at + 4), value))
        with pytest.raises(IntegrityError):
            load_record(p)


class TestModelCheckpoint:
    @pytest.mark.parametrize("edit", [delete_one_comma, widen_config_and_table])
    def test_hostile_widths_rejected_before_the_model_is_built(self, tmp_path, edit):
        # building either architecture takes over 100 MB; the file is 2.7 MB
        p = tmp_path / "m.ecgv"
        save_model(p, VaeModel.build(seed=3))
        rewrite_manifest(p, edit)
        tracemalloc.start()
        try:
            with pytest.raises(IntegrityError):
                load_model(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6

    def test_roundtrip_parameters_and_outputs(self, tmp_path, rng):
        model = VaeModel.build(COMPACT, seed=5)
        model.train_seed = 5
        model.train_config_dict = {"seed": 5, "epochs": 1}
        p = tmp_path / "m.ecgv"
        save_model(p, model)
        loaded = load_model(p)
        for (na, pa), (nb, pb) in zip(model.named_parameters(),
                                      loaded.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)
        for (na, sa), (nb, sb) in zip(model.named_state(), loaded.named_state()):
            assert na == nb
            np.testing.assert_array_equal(sa, sb)
        assert loaded.train_seed == 5
        assert loaded.train_config_dict == {"seed": 5, "epochs": 1}
        x = rng.standard_normal((3, 64)).astype(np.float32)
        np.testing.assert_array_equal(model.encode(x)[0].data,
                                      loaded.encode(x)[0].data)
        z = rng.standard_normal((3, 4)).astype(np.float32)
        np.testing.assert_array_equal(model.decode(z).data,
                                      loaded.decode(z).data)

    def test_save_is_byte_identical(self, tmp_path):
        model = VaeModel.build(COMPACT, seed=1)
        a, b = tmp_path / "a.ecgv", tmp_path / "b.ecgv"
        save_model(a, model)
        save_model(b, model)
        assert a.read_bytes() == b.read_bytes()

    def test_save_refuses_a_model_that_is_not_float32(self, tmp_path):
        p = tmp_path / "m.ecgv"
        with pytest.raises(ValueError, match="the model is float64"):
            save_model(p, VaeModel.build(COMPACT, seed=1, dtype=np.float64))
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_tensor_byte(self, tmp_path):
        model = VaeModel.build(COMPACT, seed=1)
        p = tmp_path / "m.ecgv"
        save_model(p, model)
        corrupt_byte(p, p.stat().st_size - 10)
        with pytest.raises(IntegrityError):
            load_model(p)

    @staticmethod
    def first_tensor_offset(body: bytes) -> int:
        (blob_len,) = struct.unpack_from("<I", body, 2)
        return 2 + 4 + blob_len + 4  # version, manifest, tensor count

    def test_non_utf8_tensor_name_with_valid_crc(self, tmp_path):
        p = tmp_path / "m.ecgv"
        save_model(p, VaeModel.build(COMPACT, seed=1))
        rewrite_body(p, lambda body: body.__setitem__(self.first_tensor_offset(body) + 2, 0xFF))
        with pytest.raises(FormatError, match="tensor name is not UTF-8"):
            load_model(p)

    @pytest.mark.parametrize("rank", [33, 65, 255])
    def test_tensor_rank_out_of_bounds_with_valid_crc(self, tmp_path, rank):
        p = tmp_path / "m.ecgv"
        save_model(p, VaeModel.build(COMPACT, seed=1))

        def edit(body):
            at = self.first_tensor_offset(body)
            (name_len,) = struct.unpack_from("<H", body, at)
            body[at + 2 + name_len] = rank

        rewrite_body(p, edit)
        with pytest.raises(FormatError, match="tensor rank"):
            load_model(p)

    def test_zero_size_tensor_shape_numpy_cannot_hold_with_valid_crc(self, tmp_path):
        p = tmp_path / "m.ecgv"
        save_model(p, VaeModel.build(COMPACT, seed=1))

        def edit(body):
            at = self.first_tensor_offset(body)
            (name_len,) = struct.unpack_from("<H", body, at)
            rank = body[at + 2 + name_len]
            shape = struct.unpack_from(f"<{rank}I", body, at + 3 + name_len)
            end = at + 3 + name_len + 4 * rank + 4 * int(np.prod(shape))
            body[at + 2 + name_len:end] = struct.pack("<B4I", 4, 0, *[2 ** 32 - 1] * 3)

        rewrite_body(p, edit)
        with pytest.raises(FormatError, match="bad array shape"):
            load_model(p)

    @pytest.mark.parametrize("old,new", [
        (b'"conv_channels":[4,', b'"conv_channels":[0,'),
        (b'"dec_dense":[16,', b'"dec_dense":[ 0,'),
    ])
    def test_config_the_layers_reject_with_valid_crc(self, tmp_path, old, new):
        # sizes the layer constructors reject, refused by ModelConfig before any layer is built
        p = tmp_path / "m.ecgv"
        save_model(p, VaeModel.build(COMPACT, seed=1))

        def edit(body):
            at = bytes(body).index(old)
            body[at:at + len(old)] = new

        rewrite_body(p, edit)
        with pytest.raises(FormatError, match="bad model_config"):
            load_model(p)

    def test_old_format_refused_before_any_tensor_is_read(self, tmp_path, monkeypatch):
        p = tmp_path / "m.ecgv"
        model = VaeModel.build(COMPACT, seed=1)
        model.train_config_dict = {"seed": 1, "epochs": 1}
        save_model(p, model)
        rewrite_manifest(p, old_format_manifest)
        assert b'"bn_momentum":0.1' in p.read_bytes()

        def unreachable(*args, **kwargs):
            raise AssertionError("a tensor was allocated")

        monkeypatch.setattr(persistence._Reader, "floats", unreachable)
        monkeypatch.setattr(persistence.VaeModel, "build", unreachable)
        with pytest.raises(FormatError, match="bad model_config.*'(bn_eps|bn_momentum|kernel_size"
                                              "|pool_width|up_factor)'"):
            load_model(p)

    def test_concat_axis_of_the_old_layer_table_refused_before_any_tensor_is_read(
            self, tmp_path, monkeypatch):
        p = tmp_path / "m.ecgv"
        save_model(p, VaeModel.build(COMPACT, seed=1))

        def with_concat_axis(blob: bytes) -> bytes:
            manifest = json.loads(blob)
            for chain in ("enc_join", "dec_join"):
                manifest["layers"][chain][0]["axis"] = 1
            return json.dumps(manifest, separators=(",", ":"), sort_keys=True).encode("utf-8")

        rewrite_manifest(p, with_concat_axis)
        assert p.read_bytes().count(b'"axis":1') == 2

        def unreachable(*args, **kwargs):
            raise AssertionError("a tensor was read")

        monkeypatch.setattr(persistence._Reader, "floats", unreachable)
        with pytest.raises(IntegrityError, match="layer table does not match"):
            load_model(p)

    def test_repeated_tensor_name_with_valid_crc(self, tmp_path):
        # a second block under the first tensor's name, filled with 7.0, must not
        # silently replace the first
        p = tmp_path / "m.ecgv"
        save_model(p, VaeModel.build(COMPACT, seed=1))

        def edit(body):
            at = self.first_tensor_offset(body)
            (name_len,) = struct.unpack_from("<H", body, at)
            rank = body[at + 2 + name_len]
            shape = struct.unpack_from(f"<{rank}I", body, at + 3 + name_len)
            body += body[at:at + 3 + name_len + 4 * rank]
            body += np.full(shape, 7.0, dtype="<f4").tobytes()
            (count,) = struct.unpack_from("<I", body, at - 4)
            struct.pack_into("<I", body, at - 4, count + 1)

        rewrite_body(p, edit)
        with pytest.raises(IntegrityError, match="enc_conv.00.weight' appears twice"):
            load_model(p)

    def test_wrong_magic(self, tmp_path, rng):
        p = tmp_path / "m.ecgv"
        save_dataset(p, rng.standard_normal((2, 8)).astype(np.float32))
        with pytest.raises(BadMagicError):
            load_model(p)


class TestCsvWriters:
    def test_loss_history(self, tmp_path):
        hist = [EpochStats(0, 1.5, 2.0, 1.25, 2.25),
                EpochStats(1, 1.0, 2.1, 1.125, 2.5)]
        p = tmp_path / "loss.csv"
        write_loss_history(p, hist)
        lines = p.read_text().splitlines()
        assert lines[0] == "epoch,train_recon,train_kl,eval_recon,eval_kl"
        assert lines[1] == "0,1.5,2.0,1.25,2.25"
        assert len(lines) == 3

    def test_mmd_report(self, tmp_path):
        rep = MmdReport("real", "gen", 10, 20, 1.5, 0.25, 0.125, 7)
        p = tmp_path / "mmd.csv"
        write_mmd_report(p, rep)
        lines = p.read_text().splitlines()
        assert lines[0] == "label_a,label_b,n_a,n_b,sigma,mmd2_biased,mmd2_unbiased,seed"
        assert lines[1] == "real,gen,10,20,1.5,0.25,0.125,7"

    @pytest.mark.parametrize("label_a,label_b", [
        ("a,b", "gen"), ('say "hi"', "x,y"), ("two\nlines", 'q"'), ("cr\r", ","),
    ])
    def test_mmd_report_quotes_labels_csv_would_split(self, tmp_path, label_a, label_b):
        p = tmp_path / "mmd.csv"
        write_mmd_report(p, MmdReport(label_a, label_b, 10, 20, 1.5, 0.25, 0.125, 7))
        with open(p, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 2 and all(len(row) == 8 for row in rows)
        assert rows[1] == [label_a, label_b, "10", "20", "1.5", "0.25", "0.125", "7"]

    def test_features_csv_column_count(self, tmp_path, rng):
        mu = rng.standard_normal((4, 25))
        p = tmp_path / "f.csv"
        write_features_csv(p, mu)
        lines = p.read_text().splitlines()
        assert lines[0].split(",")[0] == "f00"
        assert lines[0].split(",")[-1] == "f24"
        assert all(len(ln.split(",")) == 25 for ln in lines)
        assert len(lines) == 5
        # full float precision survives the text roundtrip
        back = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        np.testing.assert_array_equal(back, mu)

    def test_r_truth_roundtrip(self, tmp_path):
        entries = [("rec_0000", 250), ("rec_0000", 750), ("rec_0001", 300)]
        p = tmp_path / "truth.csv"
        write_r_truth_csv(p, entries)
        got = read_r_truth_csv(p)
        assert set(got) == {"rec_0000", "rec_0001"}
        np.testing.assert_array_equal(got["rec_0000"], [250, 750])
        np.testing.assert_array_equal(got["rec_0001"], [300])

    def test_r_truth_bad_header(self, tmp_path):
        p = tmp_path / "truth.csv"
        p.write_text("wrong,header\nrec,1\n")
        with pytest.raises(FormatError):
            read_r_truth_csv(p)


    @pytest.mark.parametrize("row", ["rec_0000,abc", "rec_0000"])
    def test_r_truth_bad_row(self, tmp_path, row):
        p = tmp_path / "truth.csv"
        p.write_text(f"record_id,r_index\nrec_0000,250\n{row}\n")
        with pytest.raises(FormatError, match="line 3"):
            read_r_truth_csv(p)


WRITERS = {
    "save_dataset": lambda p: save_dataset(p, np.zeros((2, 8), dtype=np.float32)),
    "save_record": lambda p: save_record(p, EcgRecord(np.zeros((1, 8), dtype=np.float32))),
    "save_model": lambda p: save_model(p, VaeModel.build(COMPACT, seed=1)),
    "write_loss_history": lambda p: write_loss_history(p, [EpochStats(0, 1.0, 2.0, 1.0, 2.0)]),
    "write_mmd_report": lambda p: write_mmd_report(p, MmdReport("a", "b", 1, 1, 1.0, 0, 0, 0)),
    "write_features_csv": lambda p: write_features_csv(p, np.zeros((1, 3))),
    "write_r_truth_csv": lambda p: write_r_truth_csv(p, [("rec_0000", 250)]),
    "emit_plot": lambda p: emit_plot(np.zeros((1, 5)), path=p),
}


class TestAtomicWrites:
    def test_failed_replace_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        p = tmp_path / "m.ecgv"
        save_model(p, VaeModel.build(COMPACT, seed=1))
        old = p.read_bytes()

        def fail(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="no space"):
            save_model(p, VaeModel.build(COMPACT, seed=2))
        assert p.read_bytes() == old
        assert [f.name for f in tmp_path.iterdir()] == ["m.ecgv"]

    @pytest.mark.parametrize("writer", list(WRITERS))
    def test_every_writer_renames_a_finished_temp_file(self, tmp_path, monkeypatch, writer):
        renamed = []
        real_replace = os.replace

        def spy(src, dst):
            renamed.append((os.path.dirname(src), os.path.getsize(src), dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        p = tmp_path / "out"
        WRITERS[writer](p)
        assert renamed == [(str(tmp_path), p.stat().st_size, p)]
        assert [f.name for f in tmp_path.iterdir()] == ["out"]

    def test_symlink_is_followed(self, tmp_path):
        target = tmp_path / "truth.csv"
        target.write_text("old\n")
        (tmp_path / "link.csv").symlink_to(target)
        write_r_truth_csv(tmp_path / "link.csv", [("rec_0000", 250)])
        assert (tmp_path / "link.csv").is_symlink()
        assert target.read_text() == "record_id,r_index\nrec_0000,250\n"

    def test_special_file_is_written_in_place(self, tmp_path):
        # renaming over a FIFO (or /dev/null) would replace it with a regular file
        fifo = tmp_path / "truth.csv"
        os.mkfifo(fifo)
        fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write_r_truth_csv(fifo, [("rec_0000", 250)])
            assert os.read(fd, 1024) == b"record_id,r_index\nrec_0000,250\n"
        finally:
            os.close(fd)
        assert stat.S_ISFIFO(fifo.stat().st_mode)


class TestSvgPlot:
    def test_markup_is_deterministic(self, rng):
        traces = rng.standard_normal((3, 50))
        assert emit_plot(traces, ["a", "b", "c"]) == emit_plot(traces, ["a", "b", "c"])

    def test_polyline_per_trace_and_labels(self, rng):
        markup = emit_plot(rng.standard_normal((4, 30)),
                           labels=[f"t{i}" for i in range(4)], title="demo")
        assert markup.count("<polyline") == 4
        assert ">demo<" in markup
        assert ">t3<" in markup

    @pytest.mark.parametrize("traces", [
        # y lands a hair off each .xx5 rounding edge: anchors 0 and 1 fix the scale
        [[0.0, 1.0] + [0.5 - (k + 0.005 - 62.0) / 57.6 for k in range(40, 80)]],
        [[0.005, -0.005, -0.001, 1e6, 0.0, 2.675], [1.005, -1e6, 0.015, -0.025, 3.0, 0.0]],
    ])
    def test_points_follow_the_per_point_format(self, traces):
        from ecgvae import persistence as P
        markup = emit_plot(traces)
        rows = [np.asarray(t, dtype=np.float64) for t in traces]
        gmin, gmax = min(r.min() for r in rows), max(r.max() for r in rows)
        n = rows[0].size
        xs = P._MARGIN_L + np.arange(n) * ((P._SVG_W - P._MARGIN_L - P._MARGIN_R) / (n - 1))
        for i, r in enumerate(rows):
            mid = P._MARGIN_T + P._BAND_H * i + P._BAND_H / 2.0
            ys = mid + (0.5 * (gmin + gmax) - r) * ((P._BAND_H * 0.9) / (gmax - gmin))
            pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))  # numpy scalars
            assert f'<polyline points="{pts}" ' in markup

    @staticmethod
    def f_string_polylines(traces) -> list[str]:
        """Each trace's points as a per-point f-string formatter writes them."""
        P = persistence
        rows = [np.asarray(t, dtype=np.float64).reshape(-1) for t in traces]
        gmin, gmax = min(float(r.min()) for r in rows), max(float(r.max()) for r in rows)
        spread = gmax - gmin if gmax > gmin else 1.0
        n = rows[0].size
        step = (P._SVG_W - P._MARGIN_L - P._MARGIN_R) / max(1, n - 1)
        xs = [f"{x:.2f}" for x in (P._MARGIN_L + np.arange(n) * step).tolist()]
        out = []
        for i, r in enumerate(rows):
            mid = P._MARGIN_T + P._BAND_H * i + P._BAND_H / 2.0
            ys = mid + (0.5 * (gmin + gmax) - r) * ((P._BAND_H * 0.9) / spread)
            out.append(" ".join(f"{x},{y:.2f}" for x, y in zip(xs, ys.tolist())))
        return out

    @pytest.mark.parametrize("traces", [
        [[0.0, 1.0] + [0.5 - (k + 0.005 - 62.0) / 57.6 for k in range(40, 80)]],
        [[-0.0, 1e-9, -1e-9, 1e-3, 2.675, 1e6, -1e6, 0.005], [0.0] * 8],
        [[1e-9, -1e-9, 0.0, -0.0, 5e-10, -2.5e-9], [-0.0] * 6],
        [[-0.0] * 7],
        np.random.default_rng(8).standard_normal((10, 400)) * np.logspace(-9, 6, 10)[:, None],
    ])
    def test_points_bytes_equal_the_f_string_formatter(self, traces):
        markup = emit_plot(traces)
        assert re.findall(r'<polyline points="([^"]*)"', markup) == self.f_string_polylines(traces)

    @pytest.mark.parametrize("length", [1, 2, 400])
    def test_cached_x_template_gives_the_uncached_bytes(self, length):
        traces = np.random.default_rng(length).standard_normal((3, length))
        persistence._x_template.cache_clear()
        first = emit_plot(traces, ["a", "b", "c"], title="t")  # builds the template
        assert persistence._x_template.cache_info().misses == 1
        again = emit_plot(traces, ["a", "b", "c"], title="t")  # reads it from the cache
        assert persistence._x_template.cache_info().hits == 1
        assert again == first
        polylines = re.findall(r'<polyline points="([^"]*)"', again)
        assert polylines == self.f_string_polylines(traces)

    def test_percent_format_equals_the_f_string_format(self):
        # the points template fills "%.2f" slots; it must format as f"{y:.2f}" does
        edges = [k / 100 + 0.005 for k in range(-300, 300)] + [62.125, 123456.785, 2.675]
        ys = edges + [-0.0, 0.0, 1e-9, -1e-9, 1e-3, -4e-3, 1e6, -1e6, 999999.995, np.inf]
        assert "%.2f " * len(ys) % tuple(ys) == "".join(f"{y:.2f} " for y in ys)

    def test_label_escaping(self):
        markup = emit_plot(np.zeros((1, 5)), labels=["a<b&c"])
        assert "a&lt;b&amp;c" in markup

    def test_writes_file(self, tmp_path):
        p = tmp_path / "plot.svg"
        markup = emit_plot(np.zeros((2, 10)), path=p)
        assert p.read_text(encoding="utf-8") == markup

    def test_validation(self):
        with pytest.raises(DimensionError):
            emit_plot([])
        with pytest.raises(DimensionError):
            emit_plot([np.zeros(5), np.zeros(6)])
        with pytest.raises(DimensionError):
            emit_plot(np.zeros((2, 5)), labels=["only one"])
