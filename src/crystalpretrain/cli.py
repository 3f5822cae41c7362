"""Command-line interface.

Commands: synth, stats, pretrain, finetune, evaluate, embed, augment-preview.
Configuration is a flat key=value file (``#`` comments) plus repeatable
``--set key=value`` overrides. Each scalar field of the config classes in
SECTIONS is the key ``section.field`` (e.g. ``augment.gndn_delta``; ``lam``
is spelled ``loss.lambda``), parsed by its annotation. Unknown keys are
rejected and the whole configuration is validated before any work starts.

Exit codes: 0 success, 2 configuration/validation error, 3 data/IO error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .augment import AugmentConfig
from .autodiff import NonFinite, ShapeMismatch
from .checkpoint import CheckpointError, load_checkpoint, write_csv
from .datasets import (DatasetManifest, ManifestError, PlacementFailure,
                       SyntheticConfig, element_frequencies,
                       generate_synthetic_dataset, load_manifest, load_structures,
                       shannon_entropy, write_dataset)
from .graphs import GraphConfig, GraphError
from .losses import LossConfig
from .model import ModelConfig, project
from .structures import StructureError
from .train import (Metrics, TrainConfig, TrainError, evaluate_checkpoint, finetune,
                    finetune_splits, forward, load_graph_dataset, pretrain, view_pair)


class ConfigError(Exception):
    pass


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


SECTIONS = {"graph": GraphConfig, "augment": AugmentConfig, "loss": LossConfig,
            "model": ModelConfig, "train": TrainConfig, "synth": SyntheticConfig}
_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool}
_SPELLED = {("loss", "lam"): "lambda"}  # ``lambda`` is a Python keyword
# the command sets these itself: the phase, and the synth seed from train.seed
_UNKEYED = {("train", "phase"), ("synth", "seed")}


def _key_specs() -> dict[str, tuple]:
    """dotted key -> (section, dataclass field, parser), one key per scalar
    field of the config classes, in declaration order."""
    specs = {}
    for section, cls in SECTIONS.items():
        for f in fields(cls):
            if f.name in SECTIONS or (section, f.name) in _UNKEYED:
                continue  # TrainConfig's sub-configs have their own sections
            parser = _PARSERS.get(f.type.removesuffix(" | None"))
            if parser is None:
                raise TypeError(f"{cls.__name__}.{f.name}: no parser for {f.type!r}")
            specs[f"{section}.{_SPELLED.get((section, f.name), f.name)}"] = \
                (section, f.name, parser)
    return specs


KEY_SPECS = _key_specs()


def read_config_file(path) -> dict[str, str]:
    pairs: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            pairs[key.strip()] = value.strip()
    return pairs


class RunConfig:
    """Parsed, validated flat configuration."""

    def __init__(self, pairs: dict[str, str]):
        self.fields: dict[str, dict] = {s: {} for s in SECTIONS}
        self.provided = set(pairs)
        for key, text in pairs.items():
            if key not in KEY_SPECS:
                raise ConfigError(f"unknown configuration key: {key}")
            section, attr, parser = KEY_SPECS[key]
            try:
                self.fields[section][attr] = parser(text)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {exc}") from None

    def build(self, section: str, **given):
        """The section's config class from its keys plus the given fields."""
        try:
            return SECTIONS[section](**self.fields[section], **given)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid {section} configuration: {exc}") from None

    def train_config(self, phase: str) -> TrainConfig:
        cfg = self.build("train", **{s: self.build(s) for s in
                                     ("loss", "augment", "graph", "model")})
        try:
            return cfg.resolved(phase)
        except ValueError as exc:
            raise ConfigError(f"invalid train configuration: {exc}") from None


def _gather_run_config(args) -> RunConfig:
    pairs: dict[str, str] = {}
    if args.config:
        pairs.update(read_config_file(args.config))
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        pairs[key.strip()] = value.strip()
    if args.seed is not None:
        pairs["train.seed"] = str(args.seed)
    return RunConfig(pairs)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_metrics(out: Path, metrics: Metrics) -> str:
    """Write out/metrics.csv; return the test score as key=value for the
    command's summary line."""
    rows = [("test_mae", metrics.mae), ("test_accuracy", metrics.accuracy),
            ("best_val_metric", metrics.val_metric), ("best_epoch", metrics.best_epoch)]
    write_csv(out / "metrics.csv", ("metric", "value"),
              [(name, value) for name, value in rows if value is not None])
    if metrics.mae is not None:
        return f"test_mae={metrics.mae!r}"
    return f"test_accuracy={metrics.accuracy!r}"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_synth(args, rc: RunConfig) -> int:
    cfg = rc.build("synth", seed=rc.fields["train"].get("seed", 0))
    out = _out_dir(args)
    structures, manifest = generate_synthetic_dataset(cfg)
    manifest_path = write_dataset(structures, manifest, out)
    print(f"wrote {len(structures)} structures and {manifest_path}")
    return 0


def cmd_stats(args, rc: RunConfig) -> int:
    manifest = load_manifest(args.manifest)
    structures = load_structures(manifest)
    counts = element_frequencies(structures.values())
    entropy = shannon_entropy(counts)
    out = _out_dir(args)
    stats_path = out / "stats.csv"
    write_csv(stats_path, ("element", "count"),
              sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))
    print(f"elements={len(counts)} shannon_entropy_nats={entropy!r}")
    print(f"wrote {stats_path}")
    return 0


def _reconcile_with_checkpoint(rc: RunConfig, cfg: TrainConfig, ckpt,
                               adopt_split: bool = False) -> TrainConfig:
    """Adopt, field by field, each setting the checkpoint records that was
    not given explicitly: its model.* and graph.* fields and, with
    adopt_split, the train.seed, val/test fractions and task that fixed its
    test split and head. An explicit value that differs is refused for
    model.* and train.* and used as given for graph.*. A stored value that
    no config accepts is a CheckpointError.
    """
    if ckpt is None:
        return cfg
    graph = dict(ckpt.metadata.get("graph_config") or {})
    # older checkpoints also stored a node_feature_mode, under which
    # learned-embedding ignored any feature_table
    if graph.pop("node_feature_mode", None) == "learned-embedding":
        graph["feature_table"] = None
    split = ("seed", "val_fraction", "test_fraction", "task") if adopt_split else ()
    stored = {"model": asdict(ckpt.model_config), "graph": graph,
              "train": {attr: ckpt.metadata[attr] for attr in split
                        if ckpt.metadata.get(attr) is not None}}
    explicit = {KEY_SPECS[key][:2] for key in rc.provided}
    adopted = {section: {} for section in stored}
    for section, values in stored.items():
        current = cfg if section == "train" else getattr(cfg, section)
        for attr, value in values.items():
            if (section, attr) not in explicit:
                adopted[section][attr] = value
            elif section != "graph" and getattr(current, attr) != value:
                why = ("the task its head was trained for" if attr == "task" else
                       "which fixed its test split" if section == "train" else
                       "which fixed its parameter shapes")
                raise ConfigError(f"{section}.{attr}={getattr(current, attr)!r} conflicts "
                                  f"with the checkpoint's {value!r}, {why}")
    try:  # an unknown key, a value out of range or of the wrong type
        cfg = replace(cfg, model=replace(cfg.model, **adopted["model"]),
                      graph=replace(cfg.graph, **adopted["graph"]), **adopted["train"])
        cfg._validate()
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint settings are invalid: {exc}") from None
    if ckpt.metadata.get("edge_feature_width") not in (None, cfg.graph.n_centers):
        raise ShapeMismatch("checkpoint edge feature width",
                            ckpt.metadata["edge_feature_width"], cfg.graph.n_centers)
    return cfg


def _prepare(args, rc: RunConfig):
    """The command's checkpoint (None for pretrain and --no-pretrain), its
    configuration reconciled with that checkpoint, the output directory and
    the graph dataset. evaluate and embed score the split the checkpoint was
    trained with. A feature table whose digest differs from the one the
    checkpoint stores is refused."""
    path = getattr(args, "checkpoint", None)
    if getattr(args, "no_pretrain", False):
        if path:
            raise ConfigError("--checkpoint and --no-pretrain are mutually exclusive")
    elif args.command == "finetune" and not path:
        raise ConfigError("finetune needs --checkpoint PATH or --no-pretrain")
    ckpt = load_checkpoint(path) if path else None
    if args.command == "evaluate" and ckpt.metadata.get("phase") == "pretrain":
        raise ConfigError(f"{path} is a checkpoint of phase 'pretrain', whose task "
                          "head is untrained; evaluate a fine-tuned checkpoint")
    phase = "pretrain" if args.command == "pretrain" else "finetune"
    cfg = _reconcile_with_checkpoint(rc, rc.train_config(phase), ckpt,
                                     adopt_split=args.command in ("evaluate", "embed"))
    out = _out_dir(args)
    dataset = load_graph_dataset(load_manifest(args.manifest), cfg.graph,
                                 n_workers=cfg.n_workers)
    trained_on = ckpt.metadata.get("feature_table_sha256") if ckpt else None
    if trained_on and getattr(dataset.feature_table, "sha256", None) != trained_on:
        raise GraphError(f"graph.feature_table={cfg.graph.feature_table} is not the "
                         f"table the checkpoint was trained with (SHA-256 {trained_on})")
    return ckpt, cfg, out, dataset


def cmd_pretrain(args, rc: RunConfig) -> int:
    _, cfg, out, dataset = _prepare(args, rc)
    result = pretrain(dataset, cfg, out_dir=out)
    last_eval = next(r[5] for r in reversed(result.log.rows) if r[4] == "eval_loss")
    print(f"pretraining done: loss={cfg.loss.kind} epochs={cfg.epochs} "
          f"final_eval_loss={last_eval}")
    print(f"wrote {out / 'final.ckpt'}")
    return 0


def cmd_finetune(args, rc: RunConfig) -> int:
    ckpt, cfg, out, dataset = _prepare(args, rc)
    result = finetune(dataset, ckpt, cfg, out_dir=out)
    score = _write_metrics(out, result.metrics)
    print(f"fine-tuning done: task={cfg.task} {score} "
          f"best_epoch={result.metrics.best_epoch}")
    print(f"wrote {out / 'best.ckpt'} and {out / 'metrics.csv'}")
    return 0


def cmd_evaluate(args, rc: RunConfig) -> int:
    ckpt, cfg, out, dataset = _prepare(args, rc)
    score = _write_metrics(out, evaluate_checkpoint(dataset, ckpt, cfg))
    print(f"evaluation done: {score}")
    return 0


def cmd_embed(args, rc: RunConfig) -> int:
    ckpt, cfg, out, dataset = _prepare(args, rc)
    test_idx = finetune_splits(dataset, cfg)["test"]
    # a fine-tuned checkpoint's projection head is its untrained initial one
    head = None if ckpt.metadata.get("phase") == "finetune" else project
    emb = forward(ckpt.to_params(), dataset, test_idx, cfg, head)
    records = [dataset.records[int(i)] for i in test_idx]
    rows = [[rec.id, rec.surrogate_label, *values]
            for rec, values in zip(records, emb.tolist())]
    embed_path = out / "embeddings.csv"
    write_csv(embed_path, ["id", "label", *(f"e{k}" for k in range(emb.shape[1]))], rows)
    print(f"wrote {embed_path} ({len(rows)} rows, {emb.shape[1]} dims)")
    return 0


def cmd_augment_preview(args, rc: RunConfig) -> int:
    cfg = rc.train_config("pretrain")
    out = _out_dir(args)
    manifest = load_manifest(args.manifest)
    index = next((k for k, rec in enumerate(manifest.records) if rec.id == args.id), None)
    if index is None:
        raise ManifestError(f"unknown record id: {args.id!r}")
    graph = load_graph_dataset(DatasetManifest([manifest.records[index]]),
                               cfg.graph).graphs[0]
    # the pair epoch 0 of pretraining trains on when the record is in its train split
    views = view_pair(graph, cfg, 0, index)

    rows = []
    for v, view in enumerate(views, start=1):
        for e in range(view.n_edges):
            l2 = float(np.sqrt((view.edge_features[e] ** 2).sum()))
            rows.append((v, e, view.src[e], view.dst[e], float(graph.distances[e]),
                         float(view.distances[e]), int(view.edge_masked[e]), l2))
    preview_path = out / "preview.csv"
    write_csv(preview_path, ("view", "edge", "i", "j", "d", "d_noised", "masked",
                             "feature_l2"), rows)
    print(f"wrote {preview_path}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crystalpretrain",
        description="Contrastive pretraining and fine-tuning for crystal "
                    "property prediction.")
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one configuration key (repeatable)")
    parser.add_argument("--seed", type=int, help="override train.seed")
    parser.add_argument("--out", default="out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic CIF dataset + manifest")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("stats", help="element frequencies and Shannon entropy")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("pretrain", help="contrastive pretraining")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="supervised fine-tuning")
    p.add_argument("manifest")
    p.add_argument("--checkpoint", help="pretrained checkpoint to start from")
    p.add_argument("--no-pretrain", action="store_true",
                   help="train from random initialization")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="score a fine-tuned checkpoint on the test split")
    p.add_argument("manifest")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("embed", help="export test-split embeddings as CSV")
    p.add_argument("manifest")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("augment-preview", help="dump a view pair for one record")
    p.add_argument("manifest")
    p.add_argument("--id", required=True)
    p.set_defaults(func=cmd_augment_preview)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = _gather_run_config(args)
        return args.func(args, rc)
    except (ConfigError, ShapeMismatch) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NonFinite as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (StructureError, ManifestError, GraphError, TrainError, CheckpointError,
            PlacementFailure, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
