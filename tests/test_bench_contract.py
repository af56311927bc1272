"""The benchmark's calls into ecgvae still fit the library's signatures.

perfbench/ and benchmarks/ call the library by name with fixed argument
patterns. Importing workloads and probe fails on a removed name; binding the
argument pattern of every call the benchmark files make to an ecgvae
function or class fails on a removed or renamed parameter. Both run without
starting the benchmark.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import COMPACT
from ecgvae import training

ROOT = Path(__file__).resolve().parents[1]
for _d in ("perfbench", "benchmarks"):
    if str(ROOT / _d) not in sys.path:
        sys.path.insert(0, str(ROOT / _d))

import probe  # noqa: E402
import workloads  # noqa: E402

from ecgvae.cli import _build_parser  # noqa: E402

BENCH_FILES = ["perfbench/workloads.py", "perfbench/probe.py", "perfbench/run.py",
               "benchmarks/bench_kernels.py"]


def ecgvae_names(tree: ast.AST) -> dict[str, object]:
    """Local name -> ecgvae module, function or class, for each `from ecgvae... import`."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ecgvae":
            mod = importlib.import_module(node.module)
            for alias in node.names:
                try:
                    obj = importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    obj = getattr(mod, alias.name)
                names[alias.asname or alias.name] = obj
    return names


def ecgvae_calls(path: str) -> list[tuple[str, object, ast.Call]]:
    """(qualified name, callee, call node) for every call of an ecgvae name in the file."""
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    names = ecgvae_names(tree)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in names:
            callee = names[f.id]
        elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
              and inspect.ismodule(names.get(f.value.id))):
            callee = getattr(names[f.value.id], f.attr)  # AttributeError: a removed name
        else:
            continue
        if callable(callee):
            out.append((f"{callee.__module__}.{callee.__qualname__}", callee, node))
    return out


def test_workloads_and_probe_import():
    assert callable(workloads.run_round) and callable(probe.run_probe)


def test_every_file_calls_the_library():
    called = set()
    for path in BENCH_FILES:
        names = {name.rsplit(".", 1)[-1] for name, _, _ in ecgvae_calls(path)}
        assert names, f"{path} calls no ecgvae name"
        called |= names
    assert {"sample_synthetic", "cut_segments", "extract_cycles", "median_heuristic", "Adam",
            "traversal_sweep", "conv1d_fwd", "conv1d_bwd",
            "preprocess_records",
            "backend_name"} <= called


@pytest.mark.parametrize("path", BENCH_FILES)
def test_calls_bind_to_the_signatures(path):
    bad = []
    for name, callee, node in ecgvae_calls(path):
        # a starred argument's length is unknown, so such a call is checked by name only
        if any(isinstance(a, ast.Starred) for a in node.args) or \
                any(k.arg is None for k in node.keywords):
            continue
        kwargs = {k.arg: object() for k in node.keywords}
        try:
            inspect.signature(callee).bind(*[object()] * len(node.args), **kwargs)
        except TypeError as e:
            bad.append(f"{path}:{node.lineno} {name}({len(node.args)} positional, "
                       f"keywords {sorted(kwargs)}): {e}")
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize("n", [4, 5, 640, 1908])
def test_train_split_size_matches_train(n, monkeypatch):
    # train_cycles_per_s counts workloads.n_train_split(n) cycles per epoch of train()
    fitted, step = [], training._step

    def recording_step(model, adam, x, noise, beta):
        fitted.append(x.data.shape[0])
        return step(model, adam, x, noise, beta)

    monkeypatch.setattr(training, "_step", recording_step)
    cycles = np.random.default_rng(n).standard_normal((n, COMPACT.input_len)).astype(np.float32)
    training.train(cycles, training.TrainConfig(seed=0, epochs=1, batch_size=n), COMPACT)
    assert fitted == [workloads.n_train_split(n)]


@pytest.mark.parametrize("sub", probe.SUBCOMMANDS)
def test_cold_start_argv_parses(sub, tmp_path):
    inp = workloads.Inputs(cycles=None, model_path=tmp_path / "m.ecgv", cold_dir=tmp_path,
                           digest="")
    argv = workloads.cold_argv(sub, inp, seed=1)
    assert argv[1:4] == ["-m", "ecgvae.cli", sub]
    _build_parser().parse_args(argv[3:])
