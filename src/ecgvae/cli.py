"""Command-line interface.

Subcommands cover the full pipeline: synth -> preprocess -> train ->
generate / encode / traverse / mmd / plot. Exit codes are stable: 0 success,
1 usage error or a request too large for memory, 2 unreadable or inconsistent
data, 3 numeric failure. Errors are a single line on stderr.

Each option's default is written once, in its add_argument. --config FILE
takes flat key=value lines; a key is the dest of one of the subcommand's
optional single-value flags (the metavar --help shows, lower-cased). The
values become the subcommand's parser defaults and argv is parsed again, so
each value is converted by its flag's type and an explicit flag still wins
over it. An unknown key is a usage error naming FILE:LINE.
"""

from __future__ import annotations

import os


def _configure_threads() -> None:
    """Pin BLAS pools to one thread before numpy loads, unless a variable is already set."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ.setdefault(var, "1")


_configure_threads()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from . import persistence  # noqa: E402
from .data import CYCLE_LEN, MAX_LEADS  # noqa: E402
from .errors import DimensionError, FormatError, NumericsError, StateError  # noqa: E402
from .experiments import sample_synthetic, traversal_sweep  # noqa: E402
from .metrics import check_sigma, compare_sets  # noqa: E402
from .model import encode_batch  # noqa: E402
from .preprocess import SEGMENT_S, preprocess_records  # noqa: E402
from .synth import DEFAULT_FS, ParamRanges, gen_corpus  # noqa: E402
from .training import DEFAULT_BETA_KL, TrainConfig, train  # noqa: E402


# each step is one decoded trace in every feature's SVG: 100 steps x 25 features is ~14 MB
MAX_TRAVERSE_STEPS = 100


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main() owns the exit code."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="ecgvae", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def new(name: str, help_: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", type=Path, default=None,
                        help="key=value file supplying defaults for this command")
        return sp

    sp = new("synth", "generate a corpus of synthetic records with R-peak truth")
    sp.add_argument("--records", type=int, default=200,
                    help="number of records (default %(default)s)")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", type=Path, required=True, help="output directory")
    sp.add_argument("--duration", type=float, default=10.0,
                    help="seconds per record (default %(default)s)")
    sp.add_argument("--leads", type=int, default=1,
                    help="leads per record (default %(default)s)")
    sp.add_argument("--noise-lo", type=float, default=None,
                    help="noise std range low (default: the generator's range)")
    sp.add_argument("--noise-hi", type=float, default=None,
                    help="noise std range high (default: the generator's range)")

    sp = new("preprocess", "records directory -> cycle dataset (.ecgc)")
    sp.add_argument("--in", dest="in_dir", type=Path, required=True)
    sp.add_argument("--out", type=Path, required=True)
    sp.add_argument("--half-width", type=int, default=CYCLE_LEN // 2,
                    help="samples kept on each side of an R peak (default %(default)s)")

    sp = new("train", "fit the autoencoder on a cycle dataset")
    sp.add_argument("--data", type=Path, required=True)
    sp.add_argument("--out", type=Path, required=True, help="checkpoint path (.ecgv)")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--epochs", type=int, default=TrainConfig.epochs,
                    help="passes over the training split (default %(default)s)")
    sp.add_argument("--batch-size", type=int, default=TrainConfig.batch_size,
                    help="cycles per Adam step (default %(default)s)")
    sp.add_argument("--lr", type=float, default=TrainConfig.lr,
                    help="Adam learning rate (default %(default)s)")
    sp.add_argument("--beta", type=float, default=DEFAULT_BETA_KL,
                    help="KL weight (default %(default)s)")
    sp.add_argument("--history", type=Path, default=None,
                    help="loss history CSV (default: <out>.loss.csv)")
    sp.add_argument("--quiet", action="store_true", help="suppress per-epoch lines")

    sp = new("generate", "decode prior samples from a trained model")
    sp.add_argument("--model", type=Path, required=True)
    sp.add_argument("--count", type=int, default=100,
                    help="cycles to generate (default %(default)s)")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", type=Path, required=True, help="output dataset (.ecgc)")

    sp = new("encode", "write the 25-feature posterior means of a dataset to CSV")
    sp.add_argument("--model", type=Path, required=True)
    sp.add_argument("--data", type=Path, required=True)
    sp.add_argument("--out", type=Path, required=True)

    sp = new("traverse", "latent traversal plots (one SVG per feature)")
    sp.add_argument("--model", type=Path, required=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--feature", type=int, default=None)
    group.add_argument("--all", action="store_true")
    sp.add_argument("--min", dest="vmin", type=float, default=-3.0,
                    help="sweep start (default %(default)s)")
    sp.add_argument("--max", dest="vmax", type=float, default=3.0,
                    help="sweep end (default %(default)s)")
    sp.add_argument("--steps", type=int, default=10,
                    help=f"sweep points, at most {MAX_TRAVERSE_STEPS} (default %(default)s)")
    sp.add_argument("--seed", type=int, required=True,
                    help="does not change the plots: every sweep starts from the zero code")
    sp.add_argument("--out", type=Path, required=True, help="output directory")

    sp = new("mmd", "compare two cycle datasets with kernel MMD^2")
    sp.add_argument("--a", dest="set_a", type=Path, required=True)
    sp.add_argument("--b", dest="set_b", type=Path, required=True)
    sp.add_argument("--sigma", type=str, default="median",
                    help="'median' or a positive bandwidth (default %(default)s)")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", type=Path, required=True, help="report CSV")

    sp = new("plot", "render selected cycles of a dataset as stacked SVG traces")
    sp.add_argument("--data", type=Path, required=True)
    sp.add_argument("--indices", type=int, nargs="+", required=True)
    sp.add_argument("--out", type=Path, required=True)

    return p


# ---------------------------------------------------------------------------
# config files


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a.choices for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


def _config_keys(sp: argparse.ArgumentParser) -> list[str]:
    """Dests a config file may set: optional flags taking one value, outside exclusive groups."""
    grouped = {a for g in sp._mutually_exclusive_groups for a in g._group_actions}
    return [a.dest for a in sp._actions
            if type(a) is argparse._StoreAction and a.nargs is None
            and not a.required and a not in grouped and a.dest != "config"]


def _load_config(path: Path, command: str, keys: list[str]) -> dict[str, str]:
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}")
    except (OSError, UnicodeError) as e:  # a directory, unreadable, not UTF-8
        raise UsageError(f"config file {path}: {e}")
    out: dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise UsageError(f"{path}:{ln}: expected key=value, got {s!r}")
        key, _, value = s.partition("=")
        key = key.strip()
        if key not in keys:
            raise UsageError(f"{path}:{ln}: {command} has no config key {key!r} "
                             f"(keys: {', '.join(keys) or 'none'})")
        out[key] = value.strip()
    return out


def _parse(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse argv; a --config file's values become the subcommand's defaults."""
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    sp = _subparsers(parser)[args.command]
    sp.set_defaults(**_load_config(args.config, args.command, _config_keys(sp)))
    try:
        return parser.parse_args(argv)  # flags still win; each flag's type converts its value
    except UsageError as e:  # argv alone parsed, so the bad value is the config's
        raise UsageError(f"{args.config}: {e}")


def _positive(value: int | float, name: str):
    if not 0 < value < np.inf:
        raise UsageError(f"{name} must be positive and finite, got {value}")
    return value


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_synth(args) -> int:
    n_records = _positive(args.records, "--records")
    duration = _positive(args.duration, "--duration")
    leads = args.leads
    if not 1 <= leads <= MAX_LEADS:
        raise UsageError(f"--leads must be in [1, {MAX_LEADS}], got {leads}")
    noise_lo, noise_hi = args.noise_lo, args.noise_hi
    if (noise_lo is None) != (noise_hi is None):
        raise UsageError("--noise-lo and --noise-hi must be given together")
    # ParamRanges checks the noise range
    ranges = ParamRanges() if noise_lo is None else ParamRanges(noise_std=(noise_lo, noise_hi))
    corpus = gen_corpus(n_records, seed=args.seed, ranges=ranges,
                        duration_s=duration, n_leads=leads)
    out_dir: Path = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    truth = []
    n_beats = 0
    for record, positions in corpus:
        persistence.save_record(out_dir / f"{record.record_id}.ecgr", record)
        truth.extend((record.record_id, int(r)) for r in positions)
        n_beats += positions.size
    persistence.write_r_truth_csv(out_dir / "r_peaks_truth.csv", truth)
    print(f"wrote {n_records} records ({n_beats} beats, {leads} lead(s)) to {out_dir}")
    return 0


def _cmd_preprocess(args) -> int:
    half_width = _positive(args.half_width, "--half-width")
    in_dir: Path = args.in_dir
    if not in_dir.is_dir():
        raise FormatError(f"input is not a directory: {in_dir}")
    files = sorted(in_dir.glob("*.ecgr"))
    if not files:
        raise FormatError(f"no .ecgr records in {in_dir}")
    records = [persistence.load_record(f) for f in files]
    fs = records[0].sampling_rate_hz
    for f, record in zip(files, records):
        if record.sampling_rate_hz != fs:
            raise FormatError(f"{f.name} is sampled at {record.sampling_rate_hz:g} Hz, "
                              f"{files[0].name} at {fs:g} Hz")
    cycles, meta, stats = preprocess_records(records, half_width=half_width)
    if stats["segments"] == 0:
        longest = max(record.duration_s for record in records)
        raise FormatError(f"preprocessing produced zero cycles: every record is shorter than "
                          f"one {SEGMENT_S:g} s segment (longest {longest:g} s)")
    if cycles.shape[0] == 0:
        raise FormatError("preprocessing produced zero cycles")
    persistence.save_dataset(args.out, cycles, sampling_rate_hz=fs, ids=meta)
    print(f"extracted {cycles.shape[0]} cycles from {stats['records']} records "
          f"({stats['segments']} segments, {stats['skipped_windows']} windows skipped) "
          f"-> {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = TrainConfig(seed=args.seed, epochs=args.epochs, batch_size=args.batch_size,
                         lr=args.lr, beta_kl=args.beta)
    cycles, _, _ = persistence.load_dataset(args.data)
    log = None if args.quiet else print
    model, history = train(cycles, config, log=log)
    persistence.save_model(args.out, model)
    history_path = args.history if args.history else Path(f"{args.out}.loss.csv")
    persistence.write_loss_history(history_path, history)
    last = history[-1]
    print(f"trained {config.epochs} epochs on {cycles.shape[0]} cycles; "
          f"final eval_recon {last.eval_recon:.6f}, eval_kl {last.eval_kl:.4f}; "
          f"model -> {args.out}, history -> {history_path}")
    return 0


def _cmd_generate(args) -> int:
    count = _positive(args.count, "--count")
    model = persistence.load_model(args.model)
    out = sample_synthetic(model, count, seed=args.seed)
    persistence.save_dataset(args.out, out.cycles, sampling_rate_hz=DEFAULT_FS)
    print(f"generated {count} cycles -> {args.out}")
    return 0


def _cmd_encode(args) -> int:
    model = persistence.load_model(args.model)
    cycles, _, _ = persistence.load_dataset(args.data)
    if cycles.shape[0] == 0:
        raise FormatError(f"dataset {args.data} is empty")
    mu, _ = encode_batch(model, cycles)
    persistence.write_features_csv(args.out, mu)
    print(f"encoded {mu.shape[0]} cycles into {mu.shape[1]} features -> {args.out}")
    return 0


def _cmd_traverse(args) -> int:
    if not 1 <= args.steps <= MAX_TRAVERSE_STEPS:
        raise UsageError(f"--steps must be in [1, {MAX_TRAVERSE_STEPS}], got {args.steps}")
    if args.vmax < args.vmin:
        raise UsageError(f"--max {args.vmax} is below --min {args.vmin}")
    model = persistence.load_model(args.model)
    latent = model.config.latent_dim
    if args.all:
        features = None
    else:
        if not 0 <= args.feature < latent:
            raise UsageError(
                f"--feature must be in [0, {latent}), got {args.feature}"
            )
        features = [args.feature]
    values = np.linspace(args.vmin, args.vmax, args.steps)
    paths = traversal_sweep(model, args.out, seed=args.seed,
                            values=values, features=features)
    print(f"wrote {len(paths)} traversal plot(s) to {args.out}")
    return 0


def _cmd_mmd(args) -> int:
    if args.sigma == "median":
        sigma = None
    else:
        try:
            sigma = float(args.sigma)
        except ValueError:
            raise UsageError(f"--sigma must be 'median' or a number, got {args.sigma!r}")
        try:
            check_sigma(sigma)
        except ValueError as e:
            raise UsageError(f"--sigma: {e}")
    a, fs_a, _ = persistence.load_dataset(args.set_a)
    b, fs_b, _ = persistence.load_dataset(args.set_b)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise FormatError("mmd needs non-empty datasets on both sides")
    if fs_a != fs_b:  # equal-length cycles at different rates span different times
        raise FormatError(f"{args.set_a.name} is sampled at {fs_a:g} Hz, "
                          f"{args.set_b.name} at {fs_b:g} Hz")
    report = compare_sets(a, b, label_a=args.set_a.stem, label_b=args.set_b.stem,
                          sigma=sigma, seed=args.seed)
    persistence.write_mmd_report(args.out, report)
    print(f"mmd2_biased={report.mmd2_biased:.6e} mmd2_unbiased={report.mmd2_unbiased:.6e} "
          f"sigma={report.sigma:.6g} n_a={report.n_a} n_b={report.n_b} -> {args.out}")
    return 0


def _cmd_plot(args) -> int:
    cycles, _, _ = persistence.load_dataset(args.data)
    for i in args.indices:
        if not 0 <= i < cycles.shape[0]:
            raise UsageError(
                f"--indices value {i} outside dataset of {cycles.shape[0]} cycles"
            )
    traces = cycles[list(args.indices)]
    labels = [f"cycle {i}" for i in args.indices]
    persistence.emit_plot(traces, labels, args.out, title=str(args.data.name))
    print(f"plotted {len(args.indices)} cycle(s) -> {args.out}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "preprocess": _cmd_preprocess,
    "train": _cmd_train,
    "generate": _cmd_generate,
    "encode": _cmd_encode,
    "traverse": _cmd_traverse,
    "mmd": _cmd_mmd,
    "plot": _cmd_plot,
}


def _fail(category: str, exc: BaseException) -> None:
    msg = " ".join(str(exc).split()) or type(exc).__name__
    print(f"error: {category}: {msg}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = _parse(parser, argv)
        return _COMMANDS[args.command](args)
    except UsageError as e:
        _fail("usage", e)
        return 1
    except MemoryError as e:  # the request does not fit in memory
        _fail("memory", e)
        return 1
    except NumericsError as e:
        _fail("numeric", e)
        return 3
    except (FormatError, DimensionError, StateError) as e:
        _fail("data", e)
        return 2
    except OSError as e:
        _fail("io", e)
        return 2
    except ValueError as e:
        _fail("usage", e)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
