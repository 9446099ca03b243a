"""Compare learned and uniform node orderings on community graphs.

Trains two identically initialized adjacency models with the same budget,
one against a learned ordering posterior and one against uniform orderings,
then scores both on held-out graphs with importance-sampling log-likelihood.

Outputs (under --out-dir):
  community_report.json   training curves and mean test log-likelihoods
  averaged_adjacency.csv  ordering-averaged adjacency of one test graph
                          under the learned posterior
"""

import argparse
import json
from pathlib import Path

import numpy as np

from graphorder.data import gen_community_small
from graphorder.evaluation import averaged_adjacency, importance_estimate
from graphorder.files import write_text_atomic
from graphorder.models import AdjacencyModel, AdjacencyModelConfig
from graphorder.posterior import OrderPosterior, PosteriorConfig, UniformOrderer
from graphorder.rng import spawn_rng
from graphorder.training import TrainConfig, train_loop


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    parser.add_argument("--train-count", type=int, default=100, help="training graphs (default 100)")
    parser.add_argument("--test-count", type=int, default=25, help="held-out graphs (default 25)")
    parser.add_argument("--n-min", type=int, default=12, help="smallest graph size (default 12)")
    parser.add_argument("--n-max", type=int, default=16, help="largest graph size (default 16)")
    parser.add_argument("--p-intra", type=float, default=0.7, help="in-community edge probability (default 0.7)")
    parser.add_argument("--epochs", type=int, default=50, help="training epochs (default 50)")
    parser.add_argument("--samples", type=int, default=8, help="orderings per graph per step (default 8)")
    parser.add_argument(
        "--importance-samples", type=int, default=1000, help="proposal draws per test graph (default 1000)"
    )
    parser.add_argument("--out-dir", type=Path, default=Path("artifacts"), help="output directory (default artifacts)")
    return parser.parse_args()


def run_side(label: str, model, q, train_graphs, test_graphs, args) -> dict:
    cfg = TrainConfig(sample_count=args.samples, epochs=args.epochs, seed=args.seed)
    report = train_loop(model, q, train_graphs, cfg, progress=lambda line: print(f"[{label}] {line}"))
    rng = spawn_rng(args.seed, 61)
    test_liks = [
        importance_estimate(model, q, g, args.importance_samples, rng).log_lik for g in test_graphs
    ]
    return {
        "trainSeconds": report.total_seconds,
        "elboPerEpoch": [record.elbo for record in report.epochs],
        "meanTestLogLik": float(np.mean(test_liks)),
        "testLogLik": test_liks,
    }


def main() -> None:
    args = parse_args()
    data_rng = spawn_rng(args.seed, 60)
    train_graphs = list(
        gen_community_small(args.train_count, (args.n_min, args.n_max), args.p_intra, data_rng)
    )
    test_graphs = list(
        gen_community_small(args.test_count, (args.n_min, args.n_max), args.p_intra, data_rng)
    )
    model_cfg = AdjacencyModelConfig(max_nodes=args.n_max, hidden=32, row_embed=16, seed=args.seed)
    learned_model = AdjacencyModel(model_cfg)
    learned_q = OrderPosterior(
        PosteriorConfig(max_nodes=args.n_max, layers=2, heads=2, head_dim=8, seed=args.seed + 1)
    )
    uniform_model = AdjacencyModel(model_cfg)

    learned = run_side("learned", learned_model, learned_q, train_graphs, test_graphs, args)
    uniform = run_side("uniform", uniform_model, UniformOrderer(), train_graphs, test_graphs, args)

    matrix = averaged_adjacency(learned_q, test_graphs[0], 200, spawn_rng(args.seed, 62))
    args.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = args.out_dir / "averaged_adjacency.csv"
    write_text_atomic(
        csv_path, "\n".join(",".join(f"{v:.10g}" for v in row) for row in matrix) + "\n"
    )
    report = {
        "seed": args.seed,
        "trainCount": args.train_count,
        "testCount": args.test_count,
        "nodeRange": [args.n_min, args.n_max],
        "epochs": args.epochs,
        "sampleCount": args.samples,
        "importanceSamples": args.importance_samples,
        "learned": learned,
        "uniform": uniform,
    }
    report_path = args.out_dir / "community_report.json"
    write_text_atomic(report_path, json.dumps(report, indent=1) + "\n")
    print(f"mean test log-lik: learned {learned['meanTestLogLik']:.3f}, uniform {uniform['meanTestLogLik']:.3f}")
    print(f"wrote {report_path} and {csv_path}")


if __name__ == "__main__":
    main()
