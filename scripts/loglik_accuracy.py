"""Check importance-sampling log-likelihoods against exact enumeration.

Trains a small adjacency model on random graphs whose sizes keep the exact
marginal tractable, then reports the mean absolute estimation error at
several proposal sample counts.  The error should shrink as counts grow.
"""

import argparse
from pathlib import Path

import numpy as np

from graphorder.data import gen_er
from graphorder.evaluation import importance_estimate
from graphorder.files import write_text_atomic
from graphorder.models import AdjacencyModel, AdjacencyModelConfig, exact_marginal_log_prob
from graphorder.posterior import OrderPosterior, PosteriorConfig
from graphorder.rng import spawn_rng
from graphorder.training import TrainConfig, train_loop


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    parser.add_argument("--graph-count", type=int, default=10, help="suite size (default 10)")
    parser.add_argument("--nodes", type=int, default=8, help="graph size, at most 8 (default 8)")
    parser.add_argument("--edge-prob", type=float, default=0.4, help="edge probability (default 0.4)")
    parser.add_argument("--epochs", type=int, default=30, help="training epochs (default 30)")
    parser.add_argument(
        "--sizes", default="10,100,1000", help="comma-separated proposal sample counts (default 10,100,1000)"
    )
    parser.add_argument(
        "--out", type=Path, default=Path("artifacts/loglik_accuracy.csv"), help="output CSV path"
    )
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    graphs = list(gen_er(args.graph_count, args.nodes, args.edge_prob, spawn_rng(args.seed, 64)))
    model = AdjacencyModel(AdjacencyModelConfig(max_nodes=args.nodes, hidden=16, row_embed=8, seed=args.seed))
    q = OrderPosterior(PosteriorConfig(max_nodes=args.nodes, layers=2, heads=2, head_dim=6, seed=args.seed + 1))
    train_loop(model, q, graphs, TrainConfig(sample_count=4, epochs=args.epochs, seed=args.seed))
    exact = [exact_marginal_log_prob(model, g) for g in graphs]
    rng = spawn_rng(args.seed, 65)
    rows = []
    for size in sizes:
        errors = [
            abs(importance_estimate(model, q, g, size, rng).log_lik - target)
            for g, target in zip(graphs, exact)
        ]
        rows.append((size, float(np.mean(errors))))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    lines = ["sampleCount,meanAbsError"] + [f"{size},{err:.10g}" for size, err in rows]
    write_text_atomic(args.out, "\n".join(lines) + "\n")
    for size, err in rows:
        print(f"L={size:>5d}  mean |error| {err:.4f} nats")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
