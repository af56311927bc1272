"""CLI exit codes, artifact writing, config precedence, error categories."""

import struct
import subprocess
import sys
import warnings
import zlib

import numpy as np
import pytest

from ecgvae.cli import main
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

    def test_bad_range(self, pipeline, tmp_path):
        _, _, _, model = pipeline
        assert main(["traverse", "--model", str(model), "--feature", "0",
                     "--min", "2", "--max", "-2", "--seed", "0",
                     "--out", str(tmp_path / "t")]) == 1


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


class TestConfigFiles:
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
