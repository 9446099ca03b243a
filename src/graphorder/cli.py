"""Command-line entry point: symmetry reports, training runs, graph sampling,
likelihood evaluation, MMD comparison, and ordering-averaged adjacency output.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric error. All
failures print a single ``error: ...`` line to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

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
from .evaluation import STATISTICS, averaged_adjacency, importance_estimate, mmd_raw
from .files import read_text, write_text_atomic
from .models import (
    AdjacencyModel,
    AdjacencyModelConfig,
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


def _community_small(count: int, rng, n_min: int = 12, n_max: int = 16, p_intra: float = 0.7):
    return gen_community_small(count, (n_min, n_max), p_intra, rng)


# What each value of a choice key selects: the config class or generator that
# receives the keys it owns (None: the uniform posterior, which has none).
_CHOICES = {
    "model": {"adjacency": AdjacencyModelConfig, "sequence": SequenceModelConfig},
    "posterior": {"learned": PosteriorConfig, "uniform": None},
    "generator": {"er": gen_er, "community-small": _community_small},
}
_MODELS = {cls.config_type: cls for cls in (AdjacencyModel, SequenceModel)}
_RUN = "run"  # the owner of the keys that resolve_run_config reads itself


class _Key(NamedTuple):
    convert: type
    owners: tuple
    applies_to: tuple


def _key(convert: type, *owners, applies_to: tuple = ()) -> _Key:
    return _Key(convert, owners, applies_to or owners)


# The run-config schema. Each key has a converter (int, float, bool or str)
# and owners: config classes take it as a field, generators as an argument.
# A key applies to its owners unless ``applies_to`` names others, and it is
# refused when the config's choices select none of them.
_KEYS = {
    "model": _key(str, _RUN),
    "posterior": _key(str, _RUN),
    "data": _key(str, _RUN),
    "generator": _key(str, _RUN),
    "seed": _key(int, _RUN),
    "out_dir": _key(str, _RUN),
    "checkpoint_every": _key(int, _RUN),
    "max_nodes": _key(int, AdjacencyModelConfig, SequenceModelConfig),
    "hidden": _key(int, AdjacencyModelConfig, SequenceModelConfig),
    "row_embed": _key(int, AdjacencyModelConfig),
    "rounds": _key(int, SequenceModelConfig),
    "edge_hidden": _key(int, SequenceModelConfig),
    "layers": _key(int, PosteriorConfig),
    "heads": _key(int, PosteriorConfig),
    "head_dim": _key(int, PosteriorConfig),
    "sample_count": _key(int, TrainConfig),
    "epochs": _key(int, TrainConfig),
    "multiplicity_mode": _key(str, TrainConfig),
    "lr_model": _key(float, TrainConfig),
    "lr_posterior": _key(float, TrainConfig, applies_to=(PosteriorConfig,)),
    "use_baseline": _key(bool, TrainConfig),
    "count": _key(int, gen_er, _community_small),
    "n": _key(int, gen_er),
    "p": _key(float, gen_er),
    "n_min": _key(int, _community_small),
    "n_max": _key(int, _community_small),
    "p_intra": _key(float, _community_small),
}


def _convert(key: str, value: str, where: str):
    convert = _KEYS[key].convert
    try:
        if convert is bool:
            lowered = value.lower()
            if lowered not in ("true", "false"):
                raise ValueError(value)
            return lowered == "true"
        return convert(value)
    except ValueError:
        raise InputError(f"{where}: invalid value {value!r} for key {key!r}") from None


def _parse_setting(item: str, where: str) -> tuple[str, object]:
    """(key, converted value) from one ``key = value`` setting; unknown keys
    and empty values are rejected."""
    if "=" not in item:
        raise InputError(f"{where}: expected 'key = value', got {item.strip()!r}")
    key, _, value = item.partition("=")
    key, value = key.strip(), value.strip()
    if key not in _KEYS:
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
    """Fully validated training-run settings built from a config mapping. The
    model family is the type of ``model_config``; ``posterior_config`` is None
    for the uniform posterior."""

    model_config: AdjacencyModelConfig | SequenceModelConfig
    posterior_config: PosteriorConfig | None
    train: TrainConfig
    data_path: str | None
    generator: dict | None
    out_dir: str
    checkpoint_every: int


def _choose(values: dict, group: str, default: str | None):
    """The owner that the value of choice key ``group`` selects, once the keys
    that apply only to its other values are refused."""
    options = _CHOICES[group]
    kind = values.get(group, default)
    if kind is not None and kind not in options:
        raise InputError(f"{group} must be one of {tuple(options)}, got {kind!r}")
    others = {value: owner for value, owner in options.items() if value != kind}
    stray = sorted(k for k in values if set(_KEYS[k].applies_to) <= set(others.values()))
    if stray:
        reason = f"{group} configs" if kind is None else f"the {' or '.join(others)} {group}"
        raise InputError(f"config keys {stray} only apply to {reason}")
    return options.get(kind)


def _owned(values: dict, owner) -> dict:
    return {key: value for key, value in values.items() if owner in _KEYS[key].owners}


def resolve_run_config(values: dict) -> RunConfig:
    unknown = values.keys() - _KEYS.keys()
    if unknown:
        raise InputError(f"unknown config keys {sorted(unknown)}")
    seed = values.get("seed", 0)
    model_owner = _choose(values, "model", "adjacency")
    model_config = model_owner(seed=seed, **_owned(values, model_owner))
    posterior_owner = _choose(values, "posterior", "learned")
    posterior_config = None
    if posterior_owner is not None:
        posterior_config = posterior_owner(
            max_nodes=model_config.max_nodes, seed=seed, **_owned(values, posterior_owner)
        )
    train = TrainConfig(seed=seed, **_owned(values, TrainConfig))

    data_path = values.get("data")
    if "generator" in values and data_path is not None:
        raise InputError("config must set either 'data' or 'generator', not both")
    if "generator" not in values and data_path is None:
        raise InputError("config must set one of 'data' or 'generator'")
    generate = _choose(values, "generator", None)
    generator = None
    if generate is not None:
        if "count" not in values:
            raise InputError("generator configs must set 'count'")
        if generate is gen_er and not {"n", "p"} <= values.keys():
            raise InputError("er generator needs 'n' and 'p'")
        generator = {"kind": values["generator"], "seed": seed, **_owned(values, generate)}

    checkpoint_every = values.get("checkpoint_every", 0)
    if checkpoint_every < 0:
        raise InputError("checkpoint_every must be nonnegative")
    return RunConfig(
        model_config=model_config,
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
    rng = spawn_rng(gen.pop("seed"), 50)
    return _CHOICES["generator"][gen.pop("kind")](rng=rng, **gen)


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
    for key in ("seed", "epochs", "out_dir"):
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    rc = resolve_run_config(values)

    dataset = _training_dataset(rc)
    model = _MODELS[type(rc.model_config)](rc.model_config)
    q = OrderPosterior(rc.posterior_config) if rc.posterior_config is not None else UniformOrderer()
    out_dir = Path(rc.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def save(suffix: str, metadata: dict) -> None:
        model.save(out_dir / f"model{suffix}.json", metadata)
        if rc.posterior_config is not None:
            q.save(out_dir / f"posterior{suffix}.json", metadata)

    finished = 0

    def progress(line: str) -> None:
        nonlocal finished
        finished += 1
        print(line)
        if rc.checkpoint_every and finished % rc.checkpoint_every == 0:
            save(f"_epoch{finished}", {"epoch": finished})

    report = train_loop(model, q, dataset, rc.train, progress=progress)
    save("", {"epochs": rc.train.epochs})
    # the settings, read back as a config file, repeat the run
    stamp = {
        "settings": [f"{key} = {value}" for key, value in values.items()],
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    doc = {**report.to_dict(), "reproduction": stamp}
    write_text_atomic(out_dir / "train_report.json", json.dumps(doc, indent=1) + "\n")


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
                "ess": est.ess,
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
    pairs = []
    for name in names:
        raw = mmd_raw(list(ref), list(gen), name, bandwidth=args.sigma)
        pairs.append({"statistic": name, "mmd": max(raw, 0.0), "mmdRaw": raw})
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
        choices=tuple(_CHOICES["posterior"]),
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
