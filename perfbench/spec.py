"""What the benchmark runs and reports: workloads, their sizes, and metrics.

This module is the single source of BENCHMARK.json; `run.py --manifest`
writes that file from here, so the two cannot drift.

Every workload runs every stage of the CLI pipeline in the order the
subcommand bodies in ecgvae/cli.py call the library (synth -> save/load
records -> preprocess -> save/load dataset -> train -> save/load model ->
generate -> encode -> traverse -> mmd -> cold start). Each workload sizes the
stages differently, so one stage dominates its wall time while every
end-to-end metric is still measured on every workload.
"""

from __future__ import annotations

from dataclasses import dataclass

SUBCOMMANDS = ("synth", "preprocess", "train", "generate", "encode", "traverse",
               "mmd", "plot")

RUN_SECONDS = 50
SETUP_REPEATS = 3     # set-up runs this often per run; setup_s is their median
CORPUS_RECORDS = 200  # corpus records built in set-up (~1900 cycles)
INGEST_RECORDS = 300  # records per call through synth -> disk -> preprocess
INGEST_REPEATS = 2    # synth and preprocess calls per round


@dataclass(frozen=True)
class Mix:
    """Stage sizes for one workload. A size of 0 means "every corpus cycle"."""

    why: str
    fit_cycles: int       # cycles the set-up model is fit on (1 epoch)
    train_cycles: int     # cycles handed to train() per call, for one epoch
    generate: int         # prior draws decoded per call (batch 256)
    encode: int           # cycles encoded per call (batch 256)
    mmd_gen: int          # generated cycles in the MMD comparison
    mmd_real: int         # corpus cycles in the MMD comparison
    cold: tuple[str, ...]  # subcommands started once each as fresh processes, one per round


# A round calls every stage once (synth and preprocess INGEST_REPEATS times)
# and takes 5-13 s; rounds repeat for the whole
# window, so each stage's calls are spread over the run and see the same mix
# of fast and slow periods of the shared host. The first len(cold) rounds each
# start one subcommand cold, so every run times the same fixed set; the two
# workloads together cover all eight subcommands.
WORKLOADS: dict[str, Mix] = {
    "train": Mix(
        why="training dominates the paper pipeline; kernels, layers, autodiff and optim do the "
            "work: 200 records, ~1900 cycles, train() on 640 of them for 1 epoch per round",
        fit_cycles=128, train_cycles=640,
        generate=512, encode=256, mmd_gen=256, mmd_real=512,
        cold=("synth", "preprocess", "train", "plot"),
    ),
    "score": Mix(
        why="forward-only model use at batch 256 and 10, O(n^2) MMD, disk ingest: 200 records, "
            "generate 1000, encode ~1900, MMD 1000 vs ~1900; 2 x 300 records through disk per round",
        fit_cycles=256, train_cycles=256,
        generate=1000, encode=0, mmd_gen=1000, mmd_real=0,
        cold=("generate", "encode", "traverse", "mmd"),
    ),
}

# (name, unit, better, bound). Bounds are shares of the parent's median.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("train_cycles_per_s", "cycles/s", "higher", 0.25),
    ("eval_recon", "mse", "lower", 0.1),
    ("generate_cycles_per_s", "cycles/s", "higher", 0.25),
    ("encode_cycles_per_s", "cycles/s", "higher", 0.25),
    ("traverse_s", "s", "lower", 0.25),
    ("mmd_s", "s", "lower", 0.25),
    ("mmd2_gen", "mmd2", "lower", 0.1),
    ("synth_records_per_s", "records/s", "higher", 0.25),
    ("preprocess_records_per_s", "records/s", "higher", 0.25),
    ("cold_start_s.p50", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("ops_ok_share", "share", "higher", 0.01),
]

BLOCKS = ("enc_conv", "enc_dense", "mu_head", "logvar_head", "dec_dense", "dec_conv",
          "out_head")

# (name, unit, better)
PER_LAYER = (
    [("synth.gen_corpus_s", "s", "lower")]
    + [(f"persistence.{op}_{kind}_s", "s", "lower")
       for kind in ("record", "dataset", "model") for op in ("save", "load")]
    + [("persistence.bytes_written", "bytes", "lower"),
       ("persistence.bytes_read", "bytes", "lower"),
       ("preprocess.detect_r_peaks_s", "s", "lower"),
       ("preprocess.extract_cycles_s", "s", "lower"),
       ("preprocess.peaks", "count", "higher"),
       ("preprocess.cycles_per_peak", "ratio", "higher"),
       ("preprocess.peak_recall", "share", "higher"),
       ("preprocess.peak_precision", "share", "higher"),
       ("model.forward_ms", "ms", "lower"),
       ("autodiff.backward_ms", "ms", "lower"),
       ("optim.adam_step_ms", "ms", "lower"),
       ("autodiff.tape_nodes", "count", "lower")]
    + [(f"layers.{b}.{phase}_ms", "ms", "lower")
       for b in BLOCKS for phase in ("fwd", "bwd", "eval")]
    + [("kernels.conv1d_fwd_ms", "ms", "lower"),
       ("kernels.conv1d_bwd_ms", "ms", "lower"),
       ("kernels.maxpool1d_fwd_ms", "ms", "lower"),
       ("kernels.maxpool1d_bwd_ms", "ms", "lower"),
       ("kernels.conv1d_gflop", "GFLOP", "lower"),
       ("kernels.conv1d_mb_moved", "MB", "lower"),
       ("experiments.sample_synthetic_ms", "ms", "lower"),
       ("experiments.traversal_sweep_ms", "ms", "lower"),
       ("model.encode_batch_ms", "ms", "lower"),
       ("model.decode_batch_ms", "ms", "lower"),
       ("metrics.median_heuristic_s", "s", "lower"),
       ("metrics.mmd2_biased_s", "s", "lower"),
       ("metrics.mmd2_unbiased_s", "s", "lower"),
       ("metrics.peak_alloc_mb", "MB", "lower")]
    + [(f"cli.cold_start_s.{sub}", "s", "lower") for sub in SUBCOMMANDS]
    + [("cli.import_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower"),
       ("trace.unattributed_s", "s", "lower")]
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def manifest() -> dict:
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": mix.why} for name, mix in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
