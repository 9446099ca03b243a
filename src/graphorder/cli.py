"""Command-line entry point: symmetry reports, training runs, graph sampling,
likelihood evaluation, MMD comparison, and ordering-averaged adjacency output.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric error. All
failures print a single ``error: ...`` line to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (
    GraphDataset,
    format_graphs,
    gen_community_small,
    gen_er,
    load_dataset,
)
from .errors import (
    GenerationError,
    GraphOrderError,
    InputError,
    NumericError,
    ParseError,
    ResourceError,
)
from .evaluation import STATISTICS, averaged_adjacency, importance_estimate, mmd
from .files import read_text, write_text_atomic
from .models import (
    AdjacencyModel,
    AdjacencyModelConfig,
    GraphModel,
    SequenceModel,
    SequenceModelConfig,
    exact_marginal_log_prob,
    load_model,
)
from .posterior import OrderPosterior, PosteriorConfig, UniformOrderer
from .rng import spawn_rng
from .symmetry import symmetry_report
from .training import TrainConfig, train_loop

_LOGLIK_LANE = 40
_SAMPLE_LANE = 41
_ANALYZE_LANE = 42

_MODEL_KINDS = ("adjacency", "sequence")
_POSTERIOR_KINDS = ("learned", "uniform")
_GENERATOR_KINDS = ("er", "community-small")

_INT_KEYS = frozenset(
    (
        "max_nodes",
        "hidden",
        "row_embed",
        "rounds",
        "edge_hidden",
        "layers",
        "heads",
        "head_dim",
        "sample_count",
        "epochs",
        "seed",
        "count",
        "n",
        "n_min",
        "n_max",
        "checkpoint_every",
    )
)
_FLOAT_KEYS = frozenset(("lr_model", "lr_posterior", "p", "p_intra"))
_BOOL_KEYS = frozenset(("use_baseline",))
_STR_KEYS = frozenset(("model", "posterior", "multiplicity_mode", "data", "generator", "out_dir"))
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _BOOL_KEYS | _STR_KEYS

_ADJACENCY_ONLY = frozenset(("row_embed",))
_SEQUENCE_ONLY = frozenset(("rounds", "edge_hidden"))
_LEARNED_ONLY = frozenset(("layers", "heads", "head_dim", "lr_posterior"))
_ER_ONLY = frozenset(("n", "p"))
_COMMUNITY_ONLY = frozenset(("n_min", "n_max", "p_intra"))


def _convert(key: str, value: str, where: str):
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _BOOL_KEYS:
            lowered = value.lower()
            if lowered not in ("true", "false"):
                raise ValueError(value)
            return lowered == "true"
        return value
    except ValueError:
        raise InputError(f"{where}: invalid value {value!r} for key {key!r}") from None


def _parse_setting(item: str, where: str) -> tuple[str, object]:
    """(key, converted value) from one ``key = value`` setting; unknown keys
    and empty values are rejected."""
    if "=" not in item:
        raise InputError(f"{where}: expected 'key = value', got {item.strip()!r}")
    key, _, value = item.partition("=")
    key, value = key.strip(), value.strip()
    if key not in _ALL_KEYS:
        raise InputError(f"{where}: unknown config key {key!r}")
    if not value:
        raise InputError(f"{where}: empty value for key {key!r}")
    return key, _convert(key, value, where)


def parse_run_config(text: str, source: str) -> dict:
    """Flat ``key = value`` lines with ``#`` comments; unknown keys rejected.
    Errors name ``source`` and the line."""
    values: dict = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{source} line {lineno}"
        key, value = _parse_setting(line, where)
        if key in values:
            raise InputError(f"{where}: duplicate config key {key!r}")
        values[key] = value
    return values


@dataclass(frozen=True)
class RunConfig:
    """Fully validated training-run settings built from a config mapping."""

    model_kind: str
    model_config: AdjacencyModelConfig | SequenceModelConfig
    posterior_kind: str
    posterior_config: PosteriorConfig | None
    train: TrainConfig
    data_path: str | None
    generator: dict | None
    out_dir: str
    checkpoint_every: int


def _reject_inapplicable(values: dict, present: frozenset, reason: str) -> None:
    used = present & values.keys()
    if used:
        raise InputError(f"config keys {sorted(used)} only apply to {reason}")


def resolve_run_config(values: dict) -> RunConfig:
    unknown = values.keys() - _ALL_KEYS
    if unknown:
        raise InputError(f"unknown config keys {sorted(unknown)}")
    seed = values.get("seed", 0)
    model_kind = values.get("model", "adjacency")
    if model_kind not in _MODEL_KINDS:
        raise InputError(f"model must be one of {_MODEL_KINDS}, got {model_kind!r}")
    arch = {k: values[k] for k in ("max_nodes", "hidden") if k in values}
    if model_kind == "adjacency":
        _reject_inapplicable(values, _SEQUENCE_ONLY, "the sequence model")
        if "row_embed" in values:
            arch["row_embed"] = values["row_embed"]
        model_config = AdjacencyModelConfig(seed=seed, **arch)
    else:
        _reject_inapplicable(values, _ADJACENCY_ONLY, "the adjacency model")
        for key in ("rounds", "edge_hidden"):
            if key in values:
                arch[key] = values[key]
        model_config = SequenceModelConfig(seed=seed, **arch)

    posterior_kind = values.get("posterior", "learned")
    if posterior_kind not in _POSTERIOR_KINDS:
        raise InputError(f"posterior must be one of {_POSTERIOR_KINDS}, got {posterior_kind!r}")
    posterior_config = None
    if posterior_kind == "learned":
        q_arch = {k: values[k] for k in ("layers", "heads", "head_dim") if k in values}
        posterior_config = PosteriorConfig(
            max_nodes=model_config.max_nodes, seed=seed, **q_arch
        )
    else:
        _reject_inapplicable(values, _LEARNED_ONLY, "the learned posterior")

    train_keys = ("sample_count", "multiplicity_mode", "lr_model", "lr_posterior", "epochs", "use_baseline")
    train = TrainConfig(seed=seed, **{k: values[k] for k in train_keys if k in values})

    data_path = values.get("data")
    generator = None
    if "generator" in values:
        if data_path is not None:
            raise InputError("config must set either 'data' or 'generator', not both")
        kind = values["generator"]
        if kind not in _GENERATOR_KINDS:
            raise InputError(f"generator must be one of {_GENERATOR_KINDS}, got {kind!r}")
        if "count" not in values:
            raise InputError("generator configs must set 'count'")
        generator = {"kind": kind, "count": values["count"], "seed": seed}
        if kind == "er":
            _reject_inapplicable(values, _COMMUNITY_ONLY, "the community-small generator")
            if "n" not in values or "p" not in values:
                raise InputError("er generator needs 'n' and 'p'")
            generator.update(n=values["n"], p=values["p"])
        else:
            _reject_inapplicable(values, _ER_ONLY, "the er generator")
            generator.update(
                n_min=values.get("n_min", 12),
                n_max=values.get("n_max", 16),
                p_intra=values.get("p_intra", 0.7),
            )
    elif data_path is None:
        raise InputError("config must set one of 'data' or 'generator'")
    else:
        _reject_inapplicable(values, _ER_ONLY | _COMMUNITY_ONLY | {"count"}, "generator configs")

    checkpoint_every = values.get("checkpoint_every", 0)
    if checkpoint_every < 0:
        raise InputError("checkpoint_every must be nonnegative")
    return RunConfig(
        model_kind=model_kind,
        model_config=model_config,
        posterior_kind=posterior_kind,
        posterior_config=posterior_config,
        train=train,
        data_path=data_path,
        generator=generator,
        out_dir=values.get("out_dir", "run"),
        checkpoint_every=checkpoint_every,
    )


def _training_dataset(rc: RunConfig) -> GraphDataset:
    if rc.data_path is not None:
        return load_dataset(rc.data_path)
    gen = dict(rc.generator)
    rng = spawn_rng(gen["seed"], 50)
    if gen["kind"] == "er":
        return gen_er(gen["count"], gen["n"], gen["p"], rng)
    return gen_community_small(gen["count"], (gen["n_min"], gen["n_max"]), gen["p_intra"], rng)


def _build_model(rc: RunConfig) -> GraphModel:
    if rc.model_kind == "adjacency":
        return AdjacencyModel(rc.model_config)
    return SequenceModel(rc.model_config)


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"{what} {path!r} does not exist")
    return p


def _json_real(value):
    if value is None or not math.isfinite(value):
        return None
    return float(value)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        write_text_atomic(out, text if text.endswith("\n") else text + "\n")


def _graph_at(path: str, index: int):
    ds = load_dataset(_require_file(path, "graph file"))
    if not 0 <= index < len(ds):
        raise InputError(f"graph index {index} out of range for {len(ds)} graphs")
    return ds.graphs[index]


# -- subcommands ----------------------------------------------------------------


def _cmd_symmetry(args) -> None:
    g = _graph_at(args.graphfile, args.index)
    order = None
    if args.order is not None:
        try:
            order = tuple(int(part) for part in args.order.split(","))
        except ValueError:
            raise InputError(f"--order must be comma-separated integers, got {args.order!r}") from None
    _emit(json.dumps(symmetry_report(g, order, args.exact_seq), indent=2), args.out)


def _cmd_train(args) -> None:
    text = read_text(_require_file(args.config, "config file"), "config file")
    values = parse_run_config(text, source=args.config)
    for item in args.set or []:
        key, value = _parse_setting(item, "--set")
        values[key] = value
    if args.seed is not None:
        values["seed"] = args.seed
    if args.epochs is not None:
        values["epochs"] = args.epochs
    if args.out_dir is not None:
        values["out_dir"] = args.out_dir
    rc = resolve_run_config(values)

    dataset = _training_dataset(rc)
    model = _build_model(rc)
    q = OrderPosterior(rc.posterior_config) if rc.posterior_kind == "learned" else UniformOrderer()
    out_dir = Path(rc.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    finished = 0

    def progress(line: str) -> None:
        nonlocal finished
        finished += 1
        print(line)
        if rc.checkpoint_every and finished % rc.checkpoint_every == 0:
            model.save(out_dir / f"model_epoch{finished}.json", {"epoch": finished})
            if rc.posterior_kind == "learned":
                q.save(out_dir / f"posterior_epoch{finished}.json", {"epoch": finished})

    report = train_loop(model, q, dataset, rc.train, progress=progress)
    model.save(out_dir / "model.json", {"epochs": rc.train.epochs})
    if rc.posterior_kind == "learned":
        q.save(out_dir / "posterior.json", {"epochs": rc.train.epochs})
    write_text_atomic(out_dir / "train_report.json", report.to_json())


def _cmd_sample(args) -> None:
    model = load_model(_require_file(args.checkpoint, "checkpoint"))
    if args.count < 1:
        raise InputError("--count must be at least 1")
    graphs = model.sample(args.count, spawn_rng(args.seed, _SAMPLE_LANE))
    _emit(format_graphs(graphs), args.out)


def _cmd_loglik(args) -> None:
    model = load_model(_require_file(args.checkpoint, "checkpoint"))
    dataset = load_dataset(_require_file(args.data, "dataset file"))
    if len(dataset) == 0:
        raise InputError("dataset is empty")
    if args.L < 1:
        raise InputError("--L must be at least 1")
    if (args.proposal == "learned") != (args.posterior is not None):
        raise InputError("--posterior <checkpoint> is given exactly when --proposal is learned")
    if args.proposal == "learned":
        proposal = OrderPosterior.load(_require_file(args.posterior, "posterior checkpoint"))
    else:
        proposal = UniformOrderer()
    rows = []
    estimates = []
    for index, g in enumerate(dataset):
        rng = spawn_rng(args.seed, _LOGLIK_LANE, index)
        est = importance_estimate(model, proposal, g, args.L, rng)
        exact = None
        if g.n <= args.exact_max_n:
            exact = exact_marginal_log_prob(model, g, max_nodes=args.exact_max_n)
        rows.append(
            {
                "index": index,
                "nodes": g.n,
                "exact": _json_real(exact),
                "isEstimate": est.log_lik,
                "stderr": _json_real(est.stderr),
                "L": est.sample_count,
            }
        )
        estimates.append(est.log_lik)
    doc = {
        "checkpoint": args.checkpoint,
        "data": args.data,
        "proposal": args.proposal,
        "seed": args.seed,
        "graphs": rows,
        "meanIsEstimate": float(np.mean(estimates)),
    }
    _emit(json.dumps(doc, indent=2), args.out)


def _cmd_mmd(args) -> None:
    ref = load_dataset(_require_file(args.ref, "reference dataset"))
    gen = load_dataset(_require_file(args.gen, "generated dataset"))
    names = list(STATISTICS) if args.stat == "all" else [args.stat]
    pairs = [
        {
            "statistic": name,
            "mmd": mmd(list(ref), list(gen), name, bandwidth=args.sigma),
        }
        for name in names
    ]
    doc = {"ref": args.ref, "gen": args.gen, "sigma": args.sigma, "pairs": pairs}
    _emit(json.dumps(doc, indent=2), args.out)


def _cmd_analyze_order(args) -> None:
    if args.samples < 1:
        raise InputError("--samples must be at least 1")
    if args.uniform == (args.checkpoint is not None):
        raise InputError("provide exactly one of --checkpoint <posterior> and --uniform")
    if args.uniform:
        q = UniformOrderer()
    else:
        q = OrderPosterior.load(_require_file(args.checkpoint, "posterior checkpoint"))
    g = _graph_at(args.graph, args.index)
    avg = averaged_adjacency(q, g, args.samples, spawn_rng(args.seed, _ANALYZE_LANE))
    lines = [",".join(f"{value:.10g}" for value in row) for row in avg]
    _emit("\n".join(lines), args.out)


# -- parser and dispatch ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage problems exit 1 with the common ``error:`` prefix."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="graphorder",
        description=(
            "Autoregressive graph generation with learned node orderings: "
            "train models, evaluate likelihoods, and analyze graph symmetry."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser(
        "symmetry",
        help="emit a JSON symmetry report for one graph",
        description="Automorphism count, orbits, stable coloring, and optional "
        "ordering multiplicities for one graph from a dataset file.",
    )
    p.add_argument("graphfile", help="dataset file holding the graph")
    p.add_argument("--index", type=int, default=0, help="graph index in the file (default 0)")
    p.add_argument("--order", default=None, help="comma-separated node ordering to analyze")
    p.add_argument(
        "--exact-seq",
        action="store_true",
        help="compute the exact sequence multiplicity, not just the refinement bound",
    )
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_symmetry)

    p = sub.add_parser(
        "train",
        help="train a model and posterior from a config file",
        description="Run the variational training loop; writes model.json, "
        "posterior.json (when learned), and train_report.json to the output directory.",
    )
    p.add_argument("--config", required=True, help="key = value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--epochs", type=int, default=None, help="override the config epochs")
    p.add_argument("--out-dir", default=None, help="override the config output directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "sample",
        help="sample graphs from a trained model checkpoint",
        description="Ancestral sampling from a model checkpoint; emits the "
        "plain-text dataset format.",
    )
    p.add_argument("--checkpoint", required=True, help="model checkpoint file")
    p.add_argument("--count", type=int, required=True, help="number of graphs to sample")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser(
        "loglik",
        help="estimate per-graph log-likelihoods by importance sampling",
        description="Importance-sampled log-likelihood per graph with jackknife "
        "standard errors, plus exact enumeration on graphs small enough.",
    )
    p.add_argument("--checkpoint", required=True, help="model checkpoint file")
    p.add_argument("--data", required=True, help="dataset file to score")
    p.add_argument(
        "--proposal",
        choices=_POSTERIOR_KINDS,
        default="uniform",
        help="ordering proposal (default uniform)",
    )
    p.add_argument("--posterior", default=None, help="posterior checkpoint for --proposal learned")
    p.add_argument("--L", type=int, default=1000, help="importance samples per graph (default 1000)")
    p.add_argument(
        "--exact-max-n",
        type=int,
        default=8,
        help="also enumerate the exact value for graphs up to this size (default 8)",
    )
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_loglik)

    p = sub.add_parser(
        "mmd",
        help="compare two graph sets by MMD over distributional statistics",
        description="Squared MMD with a Gaussian-of-Wasserstein kernel over "
        "degree, clustering, and 4-node-orbit statistics.",
    )
    p.add_argument("--ref", required=True, help="reference dataset file")
    p.add_argument("--gen", required=True, help="generated dataset file")
    p.add_argument("--sigma", type=float, default=1.0, help="kernel bandwidth (default 1.0)")
    p.add_argument(
        "--stat",
        choices=tuple(STATISTICS) + ("all",),
        default="all",
        help="statistic to compare (default all)",
    )
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_mmd)

    p = sub.add_parser(
        "analyze-order",
        help="emit the ordering-averaged adjacency matrix as CSV",
        description="Average the permuted adjacency matrix over orderings drawn "
        "from a posterior checkpoint (or the uniform baseline).",
    )
    p.add_argument("--checkpoint", default=None, help="posterior checkpoint file")
    p.add_argument("--uniform", action="store_true", help="use the uniform ordering baseline")
    p.add_argument("--graph", required=True, help="dataset file holding the graph")
    p.add_argument("--index", type=int, default=0, help="graph index in the file (default 0)")
    p.add_argument("--samples", type=int, default=1000, help="orderings to average (default 1000)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_analyze_order)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        print("error: a subcommand is required", file=sys.stderr)
        return 1
    try:
        args.func(args)
    except (ParseError, ResourceError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GraphOrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
