"""CLI exit codes, artifact writing, config precedence, error categories."""

import csv
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest

from conftest import old_format_manifest
import ecgvae.cli
import ecgvae.synth
from ecgvae.cli import _build_parser, _config_keys, _parse, _subparsers, main
from ecgvae.data import EcgRecord
from ecgvae.persistence import load_dataset, save_dataset, save_record


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> preprocess -> train once; many tests read these artifacts."""
    root = tmp_path_factory.mktemp("cli")
    records = root / "records"
    dataset = root / "cycles.ecgc"
    model = root / "model.ecgv"
    assert main(["synth", "--records", "2", "--seed", "7",
                 "--out", str(records)]) == 0
    assert main(["preprocess", "--in", str(records), "--out", str(dataset)]) == 0
    assert main(["train", "--data", str(dataset), "--out", str(model),
                 "--seed", "3", "--epochs", "1", "--batch-size", "8",
                 "--quiet"]) == 0
    return root, records, dataset, model


class TestSynth:
    def test_writes_records_and_truth(self, pipeline):
        _, records, _, _ = pipeline
        files = sorted(records.glob("*.ecgr"))
        assert [f.stem for f in files] == ["rec_0000", "rec_0001"]
        assert (records / "r_peaks_truth.csv").exists()

    def test_seed_required(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err.startswith("error: usage:")

    def test_bad_record_count(self, tmp_path):
        assert main(["synth", "--records", "0", "--seed", "1",
                     "--out", str(tmp_path / "r")]) == 1

    def test_noise_range_must_be_paired(self, tmp_path):
        assert main(["synth", "--records", "1", "--seed", "1",
                     "--out", str(tmp_path / "r"), "--noise-lo", "0.01"]) == 1


class TestPreprocess:
    def test_dataset_has_cycles_and_ids(self, pipeline):
        _, _, dataset, _ = pipeline
        cycles, fs, ids = load_dataset(dataset)
        assert cycles.shape[1] == 400
        assert cycles.shape[0] == len(ids) > 0
        assert fs == 500.0

    def test_missing_directory(self, tmp_path, capsys):
        assert main(["preprocess", "--in", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "d.ecgc")]) == 2
        assert capsys.readouterr().err.startswith("error: data:")

    def test_directory_without_records(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["preprocess", "--in", str(empty),
                     "--out", str(tmp_path / "d.ecgc")]) == 2

    def test_mixed_sampling_rates(self, tmp_path, capsys):
        records = tmp_path / "records"
        records.mkdir()
        strip = np.zeros((1, 5000), dtype=np.float32)
        save_record(records / "a.ecgr", EcgRecord(strip, 500.0, "a"))
        save_record(records / "b.ecgr", EcgRecord(strip, 250.0, "b"))
        out = tmp_path / "d.ecgc"
        assert main(["preprocess", "--in", str(records), "--out", str(out)]) == 2
        assert "b.ecgr is sampled at 250 Hz" in capsys.readouterr().err
        assert not out.exists()

    def test_records_shorter_than_one_segment(self, tmp_path, capsys):
        records, out = tmp_path / "records", tmp_path / "d.ecgc"
        assert main(["synth", "--records", "1", "--duration", "2", "--seed", "1",
                     "--out", str(records)]) == 0
        capsys.readouterr()
        assert main(["preprocess", "--in", str(records), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "every record is shorter than one 9 s segment (longest 2 s)" in err
        assert not out.exists()


class TestTrain:
    def test_writes_model_and_history(self, pipeline):
        root, _, _, model = pipeline
        assert model.exists()
        history = model.parent / f"{model.name}.loss.csv"
        lines = history.read_text().splitlines()
        assert lines[0].startswith("epoch,")
        assert len(lines) == 2  # header + 1 epoch

    def test_corrupt_dataset_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ecgc"
        bad.write_bytes(b"ECGC" + b"\x00" * 3)
        assert main(["train", "--data", str(bad), "--out",
                     str(tmp_path / "m.ecgv"), "--seed", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: data:")

    def test_divergent_data_is_exit_3(self, tmp_path, capsys):
        # astronomically scaled cycles overflow float32 in the first forward
        huge = tmp_path / "huge.ecgc"
        save_dataset(huge, np.full((8, 400), 1e25, dtype=np.float32))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--data", str(huge), "--out",
                         str(tmp_path / "m.ecgv"), "--seed", "1", "--epochs", "1",
                         "--batch-size", "4", "--quiet"])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: numeric:")
        # the overflow is reported once, as the error above, not as numpy warnings
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_bad_epochs_value(self, pipeline, tmp_path):
        _, _, dataset, _ = pipeline
        assert main(["train", "--data", str(dataset), "--out",
                     str(tmp_path / "m.ecgv"), "--seed", "1",
                     "--epochs", "0"]) == 1


class TestGenerate:
    def test_count_and_determinism(self, pipeline, tmp_path):
        _, _, _, model = pipeline
        out_a = tmp_path / "a.ecgc"
        out_b = tmp_path / "b.ecgc"
        assert main(["generate", "--model", str(model), "--count", "12",
                     "--seed", "5", "--out", str(out_a)]) == 0
        assert main(["generate", "--model", str(model), "--count", "12",
                     "--seed", "5", "--out", str(out_b)]) == 0
        cycles, _, _ = load_dataset(out_a)
        assert cycles.shape == (12, 400)
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_out_of_memory_is_one_line_exit_1(self, pipeline, tmp_path, capsys, monkeypatch):
        def no_room(model, n, seed):
            raise MemoryError(f"Unable to allocate 18.2 TiB for an array with shape ({n}, 25)")

        monkeypatch.setattr(ecgvae.cli, "sample_synthetic", no_room)
        out = tmp_path / "g.ecgc"
        assert main(["generate", "--model", str(pipeline[3]), "--count", "100000000000",
                     "--seed", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: memory: Unable to allocate") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_model_file(self, tmp_path):
        assert main(["generate", "--model", str(tmp_path / "none.ecgv"),
                     "--seed", "1", "--out", str(tmp_path / "g.ecgc")]) == 2

    def test_checkpoint_with_non_utf8_tensor_name_is_exit_2(self, pipeline, tmp_path):
        # a CRC-valid body whose first tensor name is not UTF-8
        raw = pipeline[3].read_bytes()
        body = bytearray(raw[4:-4])
        (blob_len,) = struct.unpack_from("<I", body, 2)
        body[2 + 4 + blob_len + 4 + 2] = 0xFF
        bad = tmp_path / "bad.ecgv"
        bad.write_bytes(raw[:4] + bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))
        assert main(["generate", "--model", str(bad), "--seed", "1",
                     "--out", str(tmp_path / "g.ecgc")]) == 2

    def test_checkpoint_with_repeated_tensor_name_is_exit_2(self, pipeline, tmp_path, capsys):
        # a CRC-valid body that lists its first tensor twice
        raw = pipeline[3].read_bytes()
        body = bytearray(raw[4:-4])
        (blob_len,) = struct.unpack_from("<I", body, 2)
        at = 2 + 4 + blob_len + 4
        (name_len,) = struct.unpack_from("<H", body, at)
        rank = body[at + 2 + name_len]
        shape = struct.unpack_from(f"<{rank}I", body, at + 3 + name_len)
        end = at + 3 + name_len + 4 * rank + 4 * int(np.prod(shape))
        body += body[at:end]
        struct.pack_into("<I", body, at - 4, struct.unpack_from("<I", body, at - 4)[0] + 1)
        bad = tmp_path / "bad.ecgv"
        bad.write_bytes(raw[:4] + bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))
        assert main(["generate", "--model", str(bad), "--seed", "1",
                     "--out", str(tmp_path / "g.ecgc")]) == 2
        assert "appears twice" in capsys.readouterr().err

    def test_checkpoint_of_the_old_format_is_exit_2(self, pipeline, tmp_path, capsys):
        # its manifest still carries kernel_size, pool_width, up_factor, bn_momentum and bn_eps
        raw = pipeline[3].read_bytes()
        body = bytearray(raw[4:-4])
        (blob_len,) = struct.unpack_from("<I", body, 2)
        blob = old_format_manifest(bytes(body[6:6 + blob_len]))
        body[2:6 + blob_len] = struct.pack("<I", len(blob)) + blob
        bad = tmp_path / "bad.ecgv"
        bad.write_bytes(raw[:4] + bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))
        assert main(["generate", "--model", str(bad), "--seed", "1",
                     "--out", str(tmp_path / "g.ecgc")]) == 2
        assert "bad model_config" in capsys.readouterr().err
        assert not (tmp_path / "g.ecgc").exists()

    def test_checkpoint_with_a_concat_axis_is_exit_2(self, pipeline, tmp_path, capsys):
        # the layer table of a checkpoint written while Concat entries carried "axis": 1
        raw = pipeline[3].read_bytes()
        body = bytearray(raw[4:-4])
        (blob_len,) = struct.unpack_from("<I", body, 2)
        manifest = json.loads(bytes(body[6:6 + blob_len]))
        for chain in ("enc_join", "dec_join"):
            manifest["layers"][chain][0]["axis"] = 1
        blob = json.dumps(manifest, separators=(",", ":"), sort_keys=True).encode("utf-8")
        body[2:6 + blob_len] = struct.pack("<I", len(blob)) + blob
        bad = tmp_path / "bad.ecgv"
        bad.write_bytes(raw[:4] + bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))
        assert main(["generate", "--model", str(bad), "--seed", "1",
                     "--out", str(tmp_path / "g.ecgc")]) == 2
        assert "layer table does not match" in capsys.readouterr().err
        assert not (tmp_path / "g.ecgc").exists()


class TestEncode:
    def test_feature_csv_shape(self, pipeline, tmp_path):
        _, _, dataset, model = pipeline
        out = tmp_path / "features.csv"
        assert main(["encode", "--model", str(model), "--data", str(dataset),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(f"f{i:02d}" for i in range(25))
        cycles, _, _ = load_dataset(dataset)
        assert len(lines) == cycles.shape[0] + 1


class TestTraverse:
    def test_single_feature(self, pipeline, tmp_path):
        _, _, _, model = pipeline
        out = tmp_path / "trav"
        assert main(["traverse", "--model", str(model), "--feature", "3",
                     "--steps", "4", "--seed", "0", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("*.svg")) == \
            ["traversal_feature_03.svg"]

    def test_all_features(self, pipeline, tmp_path):
        _, _, _, model = pipeline
        out = tmp_path / "trav_all"
        assert main(["traverse", "--model", str(model), "--all",
                     "--steps", "3", "--seed", "0", "--out", str(out)]) == 0
        assert len(list(out.glob("*.svg"))) == 25

    def test_feature_out_of_range(self, pipeline, tmp_path, capsys):
        _, _, _, model = pipeline
        assert main(["traverse", "--model", str(model), "--feature", "25",
                     "--seed", "0", "--out", str(tmp_path / "t")]) == 1
        assert "feature" in capsys.readouterr().err

    def test_feature_and_all_are_exclusive(self, pipeline, tmp_path):
        _, _, _, model = pipeline
        assert main(["traverse", "--model", str(model), "--feature", "1",
                     "--all", "--seed", "0", "--out", str(tmp_path / "t")]) == 1

    def test_steps_above_cap_refused_before_any_work(self, pipeline, tmp_path, capsys,
                                                      monkeypatch):
        _, _, _, model = pipeline

        def unreachable(*args, **kwargs):
            raise AssertionError("reached past the --steps check")

        monkeypatch.setattr(ecgvae.cli.persistence, "load_model", unreachable)
        monkeypatch.setattr(ecgvae.cli.np, "linspace", unreachable)
        out = tmp_path / "t"
        steps = ecgvae.cli.MAX_TRAVERSE_STEPS + 1
        assert main(["traverse", "--model", str(model), "--all", "--steps", str(steps),
                     "--seed", "0", "--out", str(out)]) == 1
        assert f"--steps must be in [1, {steps - 1}], got {steps}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_range(self, pipeline, tmp_path):
        _, _, _, model = pipeline
        assert main(["traverse", "--model", str(model), "--feature", "0",
                     "--min", "2", "--max", "-2", "--seed", "0",
                     "--out", str(tmp_path / "t")]) == 1

    def test_seed_does_not_change_the_plots(self, pipeline, tmp_path):
        _, _, _, model = pipeline
        svgs = []
        for seed in ("0", "7"):
            out = tmp_path / f"seed_{seed}"
            assert main(["traverse", "--model", str(model), "--feature", "2",
                         "--steps", "3", "--seed", seed, "--out", str(out)]) == 0
            svgs.append((out / "traversal_feature_02.svg").read_bytes())
        assert svgs[0] == svgs[1]


def assert_one_line_usage_error(argv, capsys):
    """main(argv) exits 1 with one 'error: usage:' line and no RuntimeWarning."""
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: usage:") and err.count("\n") == 1, err


class TestNonFiniteFlags:
    @pytest.mark.parametrize("flags", [
        ["--duration", "inf"],
        ["--duration", "nan"],
        ["--noise-lo", "nan", "--noise-hi", "nan"],
        ["--noise-lo", "0", "--noise-hi", "inf"],
        ["--noise-lo", "0", "--noise-hi", "1e300"],  # finite, but past float32
    ])
    def test_synth(self, tmp_path, capsys, flags):
        out = tmp_path / "r"
        assert_one_line_usage_error(["synth", "--records", "1", "--seed", "1",
                                     "--out", str(out)] + flags, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--lr", "nan"], ["--lr", "inf"],
                                       ["--beta", "nan"], ["--beta", "inf"]])
    def test_train(self, pipeline, tmp_path, capsys, flags):
        _, _, dataset, _ = pipeline
        out = tmp_path / "m.ecgv"
        assert_one_line_usage_error(["train", "--data", str(dataset), "--out", str(out),
                                     "--seed", "1", "--epochs", "1", "--quiet"] + flags,
                                    capsys)
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--min", "nan"], ["--max", "1e300"]])
    def test_traverse(self, pipeline, tmp_path, capsys, flags):
        _, _, _, model = pipeline
        assert_one_line_usage_error(["traverse", "--model", str(model), "--feature", "0",
                                     "--steps", "3", "--seed", "0",
                                     "--out", str(tmp_path / "t")] + flags, capsys)


class TestMmd:
    def test_self_comparison_is_zero(self, pipeline, tmp_path, capsys):
        _, _, dataset, _ = pipeline
        out = tmp_path / "report.csv"
        assert main(["mmd", "--a", str(dataset), "--b", str(dataset),
                     "--seed", "0", "--out", str(out)]) == 0
        line = out.read_text().splitlines()[1]
        assert float(line.split(",")[5]) == 0.0

    def test_explicit_sigma(self, pipeline, tmp_path):
        _, _, dataset, _ = pipeline
        out = tmp_path / "report.csv"
        assert main(["mmd", "--a", str(dataset), "--b", str(dataset),
                     "--sigma", "2.0", "--seed", "0", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].split(",")[4] == "2.0"

    def test_file_name_with_a_comma_stays_one_field(self, pipeline, tmp_path):
        _, _, dataset, _ = pipeline
        named = tmp_path / "a,b.ecgc"
        named.write_bytes(dataset.read_bytes())
        out = tmp_path / "report.csv"
        assert main(["mmd", "--a", str(named), "--b", str(dataset),
                     "--seed", "0", "--out", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        assert [len(row) for row in rows] == [8, 8]
        assert rows[1][:2] == ["a,b", dataset.stem]

    def test_bad_sigma_string(self, pipeline, tmp_path):
        _, _, dataset, _ = pipeline
        assert main(["mmd", "--a", str(dataset), "--b", str(dataset),
                     "--sigma", "huge", "--seed", "0",
                     "--out", str(tmp_path / "r.csv")]) == 1


    @pytest.mark.parametrize("sigma", ["nan", "inf", "1e200", "1e-320", "0"])
    def test_unusable_sigma_is_rejected_before_loading(self, tmp_path, capsys, sigma):
        # the datasets do not exist: a usage error must come before any load
        out = tmp_path / "r.csv"
        assert main(["mmd", "--a", str(tmp_path / "a.ecgc"), "--b", str(tmp_path / "b.ecgc"),
                     "--sigma", sigma, "--seed", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: usage: --sigma")
        assert not out.exists()

    def test_mixed_sampling_rates_is_exit_2(self, tmp_path, capsys):
        cycles = np.random.default_rng(0).standard_normal((5, 400)).astype(np.float32)
        save_dataset(tmp_path / "a.ecgc", cycles, sampling_rate_hz=500.0)
        save_dataset(tmp_path / "b.ecgc", cycles, sampling_rate_hz=250.0)
        out = tmp_path / "r.csv"
        assert main(["mmd", "--a", str(tmp_path / "a.ecgc"), "--b", str(tmp_path / "b.ecgc"),
                     "--seed", "0", "--out", str(out)]) == 2
        assert "a.ecgc is sampled at 500 Hz, b.ecgc at 250 Hz" in capsys.readouterr().err
        assert not out.exists()


def write_sealed(path, magic: bytes, body: bytes):
    path.write_bytes(magic + body + struct.pack("<I", zlib.crc32(body)))
    return path


class TestHostileSizes:
    """CRC-valid files whose declared sizes no array can have, or no cycle should."""

    def test_dataset_of_zero_length_cycles_is_exit_2(self, tmp_path, capsys):
        for n in (3, 2 ** 63):
            bad = write_sealed(tmp_path / f"zero_{n}.ecgc", b"ECGC",
                               struct.pack("<HIQfB", 1, 0, n, 500.0, 0))
            assert main(["plot", "--data", str(bad), "--indices", "0",
                         "--out", str(tmp_path / "p.svg")]) == 2
            assert main(["mmd", "--a", str(bad), "--b", str(bad), "--seed", "0",
                         "--out", str(tmp_path / "r.csv")]) == 2
            assert "cycle length is 0" in capsys.readouterr().err
        assert not (tmp_path / "p.svg").exists() and not (tmp_path / "r.csv").exists()

    def test_record_of_zero_leads_and_2_pow_63_samples_is_exit_2(self, tmp_path, capsys):
        records = tmp_path / "records"
        records.mkdir()
        write_sealed(records / "a.ecgr", b"ECGR",
                     struct.pack("<HHQfH", 1, 0, 2 ** 63, 500.0, 1) + b"a")
        assert main(["preprocess", "--in", str(records),
                     "--out", str(tmp_path / "d.ecgc")]) == 2
        assert "bad array shape" in capsys.readouterr().err

    def test_half_width_of_10_pow_12_is_exit_2_without_allocating(self, pipeline, tmp_path,
                                                                   capsys):
        _, records, _, _ = pipeline
        import ecgvae.preprocess  # noqa: F401  (loaded outside the trace: scipy is ~44 MB)
        tracemalloc.start()
        try:
            code = main(["preprocess", "--in", str(records), "--half-width", str(10 ** 12),
                         "--out", str(tmp_path / "d.ecgc")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "produced zero cycles" in err
        assert not (tmp_path / "d.ecgc").exists()
        # no window fits, so no gather index is built: 2e12 offsets would be 16 TB
        assert peak < 5e6, f"preprocess peak {peak / 1e6:.1f} MB"

    def test_duration_past_the_sample_cap_is_refused_without_allocating(
            self, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("reached _beat_positions")

        # 1e8 s at 500 Hz is 5e10 samples; beat placement would list ~1e8 beats
        monkeypatch.setattr(ecgvae.synth, "_beat_positions", unreachable)
        out = tmp_path / "r"
        argv = ["synth", "--records", "1", "--duration", "1e8", "--seed", "1",
                "--out", str(out)]
        tracemalloc.start()
        try:
            assert_one_line_usage_error(argv, capsys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not out.exists()
        assert peak < 5e6, f"synth peak {peak / 1e6:.1f} MB"

    def test_checkpoint_tensor_of_zero_size_and_huge_shape_is_exit_2(self, pipeline, tmp_path,
                                                                     capsys):
        raw = pipeline[3].read_bytes()
        body = bytearray(raw[4:-4])
        (blob_len,) = struct.unpack_from("<I", body, 2)
        at = 2 + 4 + blob_len + 4
        (name_len,) = struct.unpack_from("<H", body, at)
        rank = body[at + 2 + name_len]
        shape = struct.unpack_from(f"<{rank}I", body, at + 3 + name_len)
        end = at + 3 + name_len + 4 * rank + 4 * int(np.prod(shape))
        body[at + 2 + name_len:end] = struct.pack("<B4I", 4, 0, *[2 ** 32 - 1] * 3)
        bad = write_sealed(tmp_path / "bad.ecgv", b"ECGV", bytes(body))
        assert main(["generate", "--model", str(bad), "--seed", "1",
                     "--out", str(tmp_path / "g.ecgc")]) == 2
        assert "bad array shape" in capsys.readouterr().err

    def test_checkpoint_with_widened_manifest_is_exit_2(self, pipeline, tmp_path, capsys):
        # one comma deleted: a 25664-wide dense layer the tensors do not back
        raw = pipeline[3].read_bytes()
        body = bytearray(raw[4:-4])
        (blob_len,) = struct.unpack_from("<I", body, 2)
        blob = bytes(body[6:6 + blob_len]).replace(b'"enc_dense":[256,64]', b'"enc_dense":[25664]')
        body[2:6 + blob_len] = struct.pack("<I", len(blob)) + blob
        bad = write_sealed(tmp_path / "bad.ecgv", b"ECGV", bytes(body))
        assert main(["generate", "--model", str(bad), "--seed", "1",
                     "--out", str(tmp_path / "g.ecgc")]) == 2
        assert "layer table does not match" in capsys.readouterr().err
        assert not (tmp_path / "g.ecgc").exists()


class TestPlot:
    def test_renders_selected_cycles(self, pipeline, tmp_path):
        _, _, dataset, _ = pipeline
        out = tmp_path / "cycles.svg"
        assert main(["plot", "--data", str(dataset), "--indices", "0", "1",
                     "--out", str(out)]) == 0
        assert out.read_text().count("<polyline") == 2

    def test_index_out_of_range(self, pipeline, tmp_path):
        _, _, dataset, _ = pipeline
        assert main(["plot", "--data", str(dataset), "--indices", "100000",
                     "--out", str(tmp_path / "p.svg")]) == 1


# what a --config file may set: each subcommand's optional flags that take one value
CONFIG_KEYS = {
    "synth": {"records", "duration", "leads", "noise_lo", "noise_hi"},
    "preprocess": {"half_width"},
    "train": {"epochs", "batch_size", "lr", "beta", "history"},
    "generate": {"count"},
    "encode": set(),
    "traverse": {"vmin", "vmax", "steps"},
    "mmd": {"sigma"},
    "plot": set(),
}
# a value for each key, none of them its default
CONFIG_VALUES = {
    "records": "3", "duration": "2.5", "leads": "2", "noise_lo": "0.01", "noise_hi": "0.02",
    "half_width": "150", "epochs": "2", "batch_size": "8", "lr": "0.01", "beta": "0.5",
    "history": "h.csv", "count": "7", "vmin": "-1.5", "vmax": "2", "steps": "4",
    "sigma": "0.75",
}
# the required flags of each subcommand that takes config keys
REQUIRED_ARGV = {
    "synth": ["--seed", "1", "--out", "o"],
    "preprocess": ["--in", "i", "--out", "o"],
    "train": ["--data", "d", "--out", "o", "--seed", "1"],
    "generate": ["--model", "m", "--seed", "1", "--out", "o"],
    "traverse": ["--model", "m", "--all", "--seed", "1", "--out", "o"],
    "mmd": ["--a", "a", "--b", "b", "--seed", "1", "--out", "o"],
}


class TestConfigFiles:
    def test_config_keys_are_the_single_value_optionals(self):
        subs = _subparsers(_build_parser())
        assert {name: set(_config_keys(sp)) for name, sp in subs.items()} == CONFIG_KEYS

    @pytest.mark.parametrize("command, key", [(c, k) for c, keys in CONFIG_KEYS.items()
                                              for k in sorted(keys)])
    def test_config_value_parses_as_its_flag_does(self, tmp_path, command, key):
        flag = next(a.option_strings[0] for a in _subparsers(_build_parser())[command]._actions
                    if a.dest == key)
        base = [command, *REQUIRED_ARGV[command]]
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = {CONFIG_VALUES[key]}\n")
        by_flag = vars(_parse(_build_parser(), base + [flag, CONFIG_VALUES[key]]))
        by_config = vars(_parse(_build_parser(), base + ["--config", str(cfg)]))
        assert by_config.pop("config") == cfg and by_flag.pop("config") is None
        assert by_config == by_flag
        assert type(by_config[key]) is type(by_flag[key])
        assert by_config[key] != vars(_parse(_build_parser(), base))[key]

    @pytest.mark.parametrize("command, lines", [
        ("generate", "cout=5\n"),
        ("encode", "count=3\n"),
        ("traverse", "min=-1\n"),
        ("train", "quiet=1\n"),
        ("train", "seed=5\n"),
        ("encode", None),  # no such file
        ("plot", None),
    ])
    def test_config_the_command_cannot_use_is_exit_1(self, pipeline, tmp_path, capsys,
                                                     command, lines):
        _, _, dataset, model = pipeline
        argv = {
            "generate": ["--model", model, "--count", "1", "--seed", "1"],
            "encode": ["--model", model, "--data", dataset],
            "traverse": ["--model", model, "--feature", "0", "--steps", "1", "--seed", "1"],
            "train": ["--data", dataset, "--seed", "1", "--epochs", "1", "--batch-size", "8",
                      "--quiet"],
            "plot": ["--data", dataset, "--indices", "0"],
        }[command]
        cfg = tmp_path / "c.cfg"
        if lines is not None:
            cfg.write_text(lines)
        assert main([command, *map(str, argv), "--out", str(tmp_path / "out"),
                     "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert (f"{cfg}:1: " if lines else str(cfg)) in err
        assert list(tmp_path.iterdir()) == ([cfg] if lines else [])  # nothing written

    @pytest.mark.parametrize("kind", ["directory", "not utf-8"])
    def test_unreadable_config_is_exit_1(self, pipeline, tmp_path, capsys, kind):
        cfg = tmp_path / "c.cfg"
        if kind == "directory":
            cfg.mkdir()
        else:
            cfg.write_bytes(b"\xff\xfe=1\n")
        out = tmp_path / "f.csv"
        assert main(["encode", "--model", str(pipeline[3]), "--data", str(pipeline[2]),
                     "--out", str(out), "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(cfg) in err
        assert not out.exists()

    def test_config_supplies_defaults_and_flags_win(self, pipeline, tmp_path):
        _, _, dataset, _ = pipeline
        cfg = tmp_path / "train.cfg"
        cfg.write_text("# comment line\nepochs = 1\nbatch_size = 8\n")
        m1 = tmp_path / "m1.ecgv"
        assert main(["train", "--data", str(dataset), "--out", str(m1),
                     "--seed", "2", "--config", str(cfg), "--quiet"]) == 0
        h1 = tmp_path / f"{m1.name}.loss.csv"
        assert len((m1.parent / h1.name).read_text().splitlines()) == 2

        m2 = tmp_path / "m2.ecgv"
        assert main(["train", "--data", str(dataset), "--out", str(m2),
                     "--seed", "2", "--config", str(cfg), "--epochs", "2",
                     "--quiet"]) == 0
        h2 = m2.parent / f"{m2.name}.loss.csv"
        assert len(h2.read_text().splitlines()) == 3

    def test_missing_config_file(self, pipeline, tmp_path):
        _, _, dataset, _ = pipeline
        assert main(["train", "--data", str(dataset),
                     "--out", str(tmp_path / "m.ecgv"), "--seed", "1",
                     "--config", str(tmp_path / "none.cfg")]) == 1

    def test_malformed_config_line(self, pipeline, tmp_path):
        _, _, dataset, _ = pipeline
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs 1\n")
        assert main(["train", "--data", str(dataset),
                     "--out", str(tmp_path / "m.ecgv"), "--seed", "1",
                     "--config", str(cfg)]) == 1

    def test_unparseable_config_value(self, pipeline, tmp_path):
        _, _, dataset, _ = pipeline
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs=banana\n")
        assert main(["train", "--data", str(dataset),
                     "--out", str(tmp_path / "m.ecgv"), "--seed", "1",
                     "--config", str(cfg)]) == 1


class TestParsing:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        assert capsys.readouterr().err.startswith("error: usage:")

    def test_no_command(self):
        assert main([]) == 1

    def test_error_output_is_single_line(self, tmp_path, capsys):
        main(["preprocess", "--in", str(tmp_path / "missing"),
              "--out", str(tmp_path / "d.ecgc")])
        err = capsys.readouterr().err
        assert err.endswith("\n") and err.count("\n") == 1

    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "ecgvae.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        for name in ("synth", "preprocess", "train", "generate", "encode",
                     "traverse", "mmd", "plot"):
            assert name in proc.stdout

    def test_import_loads_no_scipy(self):
        # scipy serves R-peak detection only; the other subcommands skip its import cost
        code = "import sys, ecgvae.cli; print([m for m in sys.modules if m.startswith('scipy')])"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_loads_no_xml_or_network_stack(self):
        # xml.sax.saxutils alone drags in urllib.request, http.client, ssl and email
        code = ("import sys, ecgvae.cli; "
                "print(sorted({m.split('.')[0] for m in sys.modules} "
                "& {'xml', 'http', 'ssl', 'email'}))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_thread_pins_default_to_one_and_yield_to_preset_values(self, monkeypatch):
        preset = {"OPENBLAS_NUM_THREADS": "3", "MKL_NUM_THREADS": "2"}
        unset = ("OMP_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
        for var, value in preset.items():
            monkeypatch.setenv(var, value)
        for var in unset:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("ECGVAE_THREADS", "4")  # not a knob: only the BLAS variables count
        ecgvae.cli._configure_threads()
        for var, value in preset.items():
            assert os.environ[var] == value
        for var in unset:
            assert os.environ[var] == "1"
