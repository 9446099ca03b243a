"""Regenerate the trained checkpoints that the benchmark workloads load.

Run from the repository root:

    python3 perfbench/make_checkpoints.py

It trains the adjacency model and the sequence model, each jointly with a
learned ordering posterior, on a fixed community-small corpus (seed 0), and
writes `<kind>.json` and `<kind>_posterior.json` for both kinds into
`perfbench/checkpoints/`. The result depends only on the seeds and
configurations below and the program.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKPOINT_SEED = 0
CORPUS_PER_SIZE = 8
EPOCHS = 30


def main() -> None:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from graphorder import models, posterior, training
    import workloads

    max_nodes = max(workloads.SIZES)
    builders = {
        "adjacency": lambda: models.AdjacencyModel(
            models.AdjacencyModelConfig(max_nodes=max_nodes, hidden=32, row_embed=16, seed=7)
        ),
        "sequence": lambda: models.SequenceModel(
            models.SequenceModelConfig(max_nodes=max_nodes, hidden=16, rounds=2, edge_hidden=16, seed=7)
        ),
    }
    posterior_cfg = posterior.PosteriorConfig(max_nodes=max_nodes, layers=2, heads=2, head_dim=8, seed=8)
    corpus = workloads.community_corpus(CORPUS_PER_SIZE, workloads.SIZES, CHECKPOINT_SEED, workloads.LANE_CHECKPOINT)
    out = HERE / "checkpoints"
    out.mkdir(exist_ok=True)
    cfg = training.TrainConfig(sample_count=workloads.SAMPLE_COUNT, epochs=EPOCHS, seed=CHECKPOINT_SEED)
    for kind, build in builders.items():
        model = build()
        q = posterior.OrderPosterior(posterior_cfg)
        training.train_loop(model, q, corpus, cfg, progress=lambda line: print(f"[{kind}] {line}"))
        meta = {"epochs": EPOCHS, "corpusSeed": CHECKPOINT_SEED}
        model.save(out / f"{kind}.json", meta)
        q.save(out / f"{kind}_posterior.json", meta)


if __name__ == "__main__":
    main()
