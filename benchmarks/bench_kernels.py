"""Time the conv/pool kernels at the model's layer shapes.

Runs every hot kernel through the public wrappers in ecgvae.kernels and
prints a timing table (best of N). conv1d_bwd unfolds its input into im2col
columns again, which a training step does not pay: autodiff keeps the
columns from the forward pass. Use --quick for a fast smoke pass.

    python benchmarks/bench_kernels.py [--batch 64] [--reps 20] [--quick]
"""

import argparse
import time

import numpy as np

from ecgvae import kernels

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
KERNEL_WIDTH = 5
POOL_WIDTH = 2


def best_ms(fn, reps: int) -> float:
    fn()  # warm caches before timing
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
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


def print_table(title: str, rows) -> None:
    print(f"\n{title}")
    head = f"{'layer':<24}{'fwd':>12}{'bwd':>12}"
    print(head)
    print("-" * len(head))
    for label, fwd, bwd in rows:
        print(f"{label:<24}{fwd:>10.3f}ms{bwd:>10.3f}ms")
    print(f"{'total':<24}{sum(r[1] for r in rows):>10.3f}ms{sum(r[2] for r in rows):>10.3f}ms")


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


if __name__ == "__main__":
    main()
