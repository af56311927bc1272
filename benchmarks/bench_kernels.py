"""Time the conv/pool kernels at the model's layer shapes.

Runs every hot kernel through the public [B, C, L] functions in
ecgvae.kernels and prints a timing table (best of N). Two last tables time
the decoder's three upsample->conv pairs both ways: an explicit nearest
upsampling then the conv kernels, against the one polyphase convolution
that the model runs. The first is the forward alone at the batch of
ecgvae.model.DECODE_ROWS (128) rows, the chunk eval-mode decoding runs
(conv1d_fwd with factor=UP_FACTOR); the second is forward plus backward at
the training batch (conv1d_fwd and conv1d_bwd with factor=UP_FACTOR, against
the same kernels at factor 1 on the upsampled input plus upsample1d's
backward, the sum over the phases). The figures differ from a training step
in two ways. The backward kernels unfold their input into im2col columns
again, where autodiff keeps the columns from the forward pass. And the
inputs here are in C order, where inside the model each conv after a
chain's first reads channel-major memory (the previous conv's output,
carried through batch norm and pooling). Each rep keeps the previous rep's
result alive until it returns, as a training step keeps its activations, so
a rep does not page-fault freshly mapped buffers. Use --quick for a fast
smoke pass.

    python benchmarks/bench_kernels.py [--batch 64] [--reps 20] [--quick]
"""

import argparse
import time

import numpy as np

from ecgvae import kernels
from ecgvae.model import DECODE_ROWS

# (label, in_channels, out_channels, length, stride) per conv layer, plus the
# pooling stages; these mirror the default encoder/decoder at cycle length 400
CONV_SHAPES = [
    ("enc conv1  1->16 L400", 1, 16, 400, 1),
    ("enc conv2 16->32 L200", 16, 32, 200, 1),
    ("enc conv3 32->64 L100", 32, 64, 100, 1),
    ("enc conv4 64->128 L50", 64, 128, 50, 1),
    ("dec conv1  1->64 L25", 1, 64, 25, 1),
    ("dec conv2 64->32 L50", 64, 32, 50, 1),
    ("dec conv3 32->16 L100", 32, 16, 100, 1),
    ("dec conv4 16->1 L200", 16, 1, 200, 1),
]
POOL_SHAPES = [
    ("enc pool1 16ch L400", 16, 400),
    ("enc pool2 32ch L200", 32, 200),
    ("enc pool3 64ch L100", 64, 100),
    ("enc pool4 128ch L50", 128, 50),
]
# (label, in_channels, out_channels, input length) per decoder upsample -> conv pair
UPCONV_SHAPES = [
    ("dec up2+conv2 64->32 L25", 64, 32, 25),
    ("dec up3+conv3 32->16 L50", 32, 16, 50),
    ("dec up4+conv4 16->1 L100", 16, 1, 100),
]
KERNEL_WIDTH = 5
UP_FACTOR = 2
POOL_WIDTH = 2


def best_ms(fn, reps: int) -> float:
    out = fn()  # warm caches before timing
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()  # the previous result stays alive until this one is made
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def bench_conv(batch: int, reps: int) -> list[tuple[str, float, float]]:
    rng = np.random.default_rng(0)
    rows = []
    for label, ci, co, length, stride in CONV_SHAPES:
        x = rng.standard_normal((batch, ci, length)).astype(np.float32)
        w = rng.standard_normal((co, ci, KERNEL_WIDTH)).astype(np.float32)
        dy = kernels.conv1d_fwd(x, w, stride)
        rows.append((label, best_ms(lambda: kernels.conv1d_fwd(x, w, stride), reps),
                     best_ms(lambda: kernels.conv1d_bwd(x, w, stride, dy), reps)))
    return rows


def bench_pool(batch: int, reps: int) -> list[tuple[str, float, float]]:
    rng = np.random.default_rng(1)
    rows = []
    for label, ch, length in POOL_SHAPES:
        x = rng.standard_normal((batch, ch, length)).astype(np.float32)
        dy, route = kernels.maxpool1d_fwd(x, POOL_WIDTH)
        rows.append((label, best_ms(lambda: kernels.maxpool1d_fwd(x, POOL_WIDTH), reps),
                     best_ms(lambda: kernels.maxpool1d_bwd(dy, route, length), reps)))
    return rows


def bench_upconv(batch: int, reps: int) -> list[tuple[str, float, float]]:
    rng = np.random.default_rng(2)
    rows = []
    for label, ci, co, length in UPCONV_SHAPES:
        x = rng.standard_normal((batch, ci, length)).astype(np.float32)
        w = rng.standard_normal((co, ci, KERNEL_WIDTH)).astype(np.float32)
        rows.append((label,
                     best_ms(lambda: kernels.conv1d_fwd(kernels.upsample1d(x, UP_FACTOR), w),
                             reps),
                     best_ms(lambda: kernels.conv1d_fwd(x, w, factor=UP_FACTOR), reps)))
    return rows


def upsampled_conv_step(x, w, dy):
    """Forward and backward of an explicit upsampling and the conv after it."""
    u = kernels.upsample1d(x, UP_FACTOR)
    y = kernels.conv1d_fwd(u, w)
    du, dw = kernels.conv1d_bwd(u, w, 1, dy)
    dx = du[:, :, 0::UP_FACTOR].copy()
    for r in range(1, UP_FACTOR):
        dx += du[:, :, r::UP_FACTOR]
    return y, dx, dw


def polyphase_conv_step(x, w, dy):
    """Forward and backward of the same pair as one polyphase convolution."""
    return (kernels.conv1d_fwd(x, w, factor=UP_FACTOR),
            *kernels.conv1d_bwd(x, w, 1, dy, factor=UP_FACTOR))


def bench_upconv_train(batch: int, reps: int) -> list[tuple[str, float, float]]:
    rng = np.random.default_rng(3)
    rows = []
    for label, ci, co, length in UPCONV_SHAPES:
        x = rng.standard_normal((batch, ci, length)).astype(np.float32)
        w = rng.standard_normal((co, ci, KERNEL_WIDTH)).astype(np.float32)
        dy = rng.standard_normal((batch, co, UP_FACTOR * length)).astype(np.float32)
        rows.append((label.replace("dec", "train", 1),
                     best_ms(lambda: upsampled_conv_step(x, w, dy), reps),
                     best_ms(lambda: polyphase_conv_step(x, w, dy), reps)))
    return rows


def print_table(title: str, rows, cols: tuple[str, str] = ("fwd", "bwd")) -> None:
    print(f"\n{title}")
    head = f"{'layer':<28}{cols[0]:>16}{cols[1]:>12}"
    print(head)
    print("-" * len(head))
    for label, a, b in rows:
        print(f"{label:<28}{a:>14.3f}ms{b:>10.3f}ms")
    print(f"{'total':<28}{sum(r[1] for r in rows):>14.3f}ms{sum(r[2] for r in rows):>10.3f}ms")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--batch", type=int, default=64)
    ap.add_argument("--reps", type=int, default=20)
    ap.add_argument("--quick", action="store_true", help="3 reps, small batch")
    args = ap.parse_args()
    batch = 8 if args.quick else args.batch
    reps = 3 if args.quick else args.reps

    print(f"kernels: {kernels.backend_name()}  (batch {batch}, best of {reps} reps)")
    print_table(f"conv1d (same padding, K={KERNEL_WIDTH})", bench_conv(batch, reps))
    print_table(f"maxpool1d (width {POOL_WIDTH})", bench_pool(batch, reps))
    up_batch = batch if args.quick else DECODE_ROWS
    print_table(f"upsample x{UP_FACTOR} -> conv1d (K={KERNEL_WIDTH}, batch {up_batch})",
                bench_upconv(up_batch, reps), cols=("upsample+conv", "polyphase"))
    print_table(f"upsample x{UP_FACTOR} -> conv1d forward + backward (K={KERNEL_WIDTH}, "
                f"batch {batch})", bench_upconv_train(batch, reps),
                cols=("upsample+conv", "polyphase"))


if __name__ == "__main__":
    main()
