"""Measure score-function gradient variance against the per-step sample count.

For one graph, estimates the per-entry variance of the posterior gradient
estimator at several sample counts and writes a CSV trace.  The variance of
an S-sample mean should fall roughly like 1/S.
"""

import argparse
from pathlib import Path

from graphorder.data import gen_er
from graphorder.files import write_text_atomic
from graphorder.models import AdjacencyModel, AdjacencyModelConfig
from graphorder.posterior import OrderPosterior, PosteriorConfig
from graphorder.rng import spawn_rng
from graphorder.training import TrainConfig, train_loop, variance_trace


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    parser.add_argument("--nodes", type=int, default=8, help="graph size (default 8)")
    parser.add_argument("--edge-prob", type=float, default=0.4, help="edge probability (default 0.4)")
    parser.add_argument(
        "--sizes", default="1,2,4,8,16,32", help="comma-separated sample counts (default 1,2,4,8,16,32)"
    )
    parser.add_argument("--trials", type=int, default=50, help="repetitions per size (default 50)")
    parser.add_argument(
        "--epochs", type=int, default=10, help="training epochs before measuring (default 10; 0 skips)"
    )
    parser.add_argument(
        "--out", type=Path, default=Path("artifacts/gradient_variance.csv"), help="output CSV path"
    )
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    g = list(gen_er(1, args.nodes, args.edge_prob, spawn_rng(args.seed, 63)))[0]
    model = AdjacencyModel(AdjacencyModelConfig(max_nodes=args.nodes, hidden=16, row_embed=8, seed=args.seed))
    q = OrderPosterior(PosteriorConfig(max_nodes=args.nodes, layers=2, heads=2, head_dim=6, seed=args.seed + 1))
    if args.epochs > 0:
        train_loop(model, q, [g], TrainConfig(sample_count=4, epochs=args.epochs, seed=args.seed))
    trace = variance_trace(model, q, g, sizes, args.trials, seed=args.seed)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    lines = ["sampleCount,variance"] + [f"{size},{trace[size]:.10g}" for size in sizes]
    write_text_atomic(args.out, "\n".join(lines) + "\n")
    for size in sizes:
        print(f"S={size:>3d}  variance {trace[size]:.3e}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
