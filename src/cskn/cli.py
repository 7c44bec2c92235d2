"""Command-line surface: train, extract, retrieve, classify, evaluate, selftest.

Exit codes: 0 success, 1 usage errors, 2 data errors, 3 numeric failures.
Reports are deterministic ``key<TAB>value`` lines; ``--json`` adds a
machine-readable twin next to the report. Images are loaded and forwarded
one at a time, in manifest order.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import DatasetManifest, ManifestEntry, RunConfig, load_manifest, parse_run_config
from .errors import (
    ConfigError,
    DataError,
    InvalidArgumentError,
    NumericFailureError,
    UsageError,
)
from .evalkit import predict, retrieval_precision, roc_auc, top1_accuracy, train_svm
from .images import load_image
from .model_io import load_model, save_descriptors, save_model
from .network import ModelBundle, forward_network, train_network
from .selftest import run_selftest


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, not exits."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse contract
        raise UsageError(f"{self.prog}: {message}")


def _descriptor_matrix(
    model: ModelBundle, manifest: DatasetManifest, entries: list[ManifestEntry]
) -> np.ndarray:
    """Load and forward one image at a time, in the order given."""
    grayscale = model.expected_channels() == 1
    rows = []
    for entry in entries:
        image = load_image(manifest.resolve(entry), model.input_size, grayscale)
        rows.append(forward_network(image, model).values)
    return np.stack(rows)


def _write_report(path: Path, rows: list[tuple[str, str]], as_json: bool) -> None:
    text = "".join(f"{key}\t{value}\n" for key, value in rows)
    path.write_text(text, encoding="utf-8")
    if as_json:
        path.with_suffix(path.suffix + ".json").write_text(
            json.dumps(dict(rows), indent=2, sort_keys=False) + "\n", encoding="utf-8"
        )


def _format_float(value: float) -> str:
    return f"{value:.6f}"


def _cmd_train(args: argparse.Namespace) -> int:
    run: RunConfig = parse_run_config(args.config)
    manifest = load_manifest(args.manifest)
    train_entries = manifest.split_entries("train")
    if not train_entries:
        raise DataError(f"{args.manifest}: no train-split entries to learn from")
    images = [load_image(manifest.resolve(e), run.input_size, run.grayscale) for e in train_entries]
    model = train_network(
        images, run.layers, run.pretrain, pyramid_levels=run.pyramid_levels
    )
    save_model(model, args.out)
    print(f"model\t{args.out}")
    print(f"layers\t{len(model.layers)}")
    print(f"descriptor_length\t{model.descriptor_length}")
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    manifest = load_manifest(args.manifest)
    entries = list(manifest.entries)
    matrix = _descriptor_matrix(model, manifest, entries)
    save_descriptors(
        args.out, [(e.path, e.label, e.split) for e in entries], matrix
    )
    print(f"descriptors\t{args.out}")
    print(f"count\t{matrix.shape[0]}")
    print(f"dim\t{matrix.shape[1]}")
    return 0


def _parse_q_list(raw: str) -> list[int]:
    try:
        values = [int(part.strip()) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"--q expects comma-separated integers, got {raw!r}")
    if not values or any(v < 1 for v in values):
        raise UsageError(f"--q expects positive integers, got {raw!r}")
    return values


def _gallery_and_queries(
    manifest: DatasetManifest, query_spec: str | None
) -> tuple[list[ManifestEntry], list[ManifestEntry]]:
    gallery = manifest.split_entries("train")
    if not gallery:
        raise DataError("manifest has no train-split entries to form a gallery")
    if query_spec:
        wanted = [part.strip() for part in query_spec.split(",") if part.strip()]
        by_path = {entry.path: entry for entry in manifest.entries}
        missing = [p for p in wanted if p not in by_path]
        if missing:
            raise DataError(f"query paths not present in manifest: {missing}")
        queries = [by_path[p] for p in wanted]
    else:
        queries = manifest.split_entries("test")
    if not queries:
        raise DataError("no query entries (empty test split and no --queries)")
    return gallery, queries


def _cmd_retrieve(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    manifest = load_manifest(args.manifest)
    gallery_entries, query_entries = _gallery_and_queries(manifest, args.queries)
    q_values = _parse_q_list(args.q)
    gallery = _descriptor_matrix(model, manifest, gallery_entries)
    queries = _descriptor_matrix(model, manifest, query_entries)
    gallery_paths = np.array([entry.path for entry in gallery_entries])
    gallery_labels = np.array([entry.label for entry in gallery_entries])
    # A train-split query is in the gallery; its own row would rank first
    # at distance 0, so it is left out of its ranking.
    exclude = np.array([entry.path for entry in query_entries])[:, None] == gallery_paths
    relevant = np.array([entry.label for entry in query_entries])[:, None] == gallery_labels
    precisions = retrieval_precision(queries, gallery, relevant, exclude, q_values)
    rows = [
        ("num_gallery", str(len(gallery_entries))),
        ("num_queries", str(len(query_entries))),
    ] + [(f"precision@{q}", _format_float(p)) for q, p in zip(q_values, precisions)]
    _write_report(Path(args.report), rows, args.json)
    for key, value in rows:
        print(f"{key}\t{value}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    manifest = load_manifest(args.manifest)
    train_entries = manifest.split_entries("train")
    test_entries = manifest.split_entries("test")
    if not train_entries:
        raise DataError("manifest has no train-split entries to fit the classifier")
    if not test_entries:
        raise DataError("manifest has no test-split entries to score")
    train_matrix = _descriptor_matrix(model, manifest, train_entries)
    test_matrix = _descriptor_matrix(model, manifest, test_entries)
    train_labels = [entry.label for entry in train_entries]
    test_labels = [entry.label for entry in test_entries]
    classifier = train_svm(train_matrix, train_labels)
    predicted, scores = predict(test_matrix, classifier)
    rows: list[tuple[str, str]] = [
        ("num_train", str(len(train_entries))),
        ("num_test", str(len(test_entries))),
        ("top1_accuracy", _format_float(top1_accuracy(predicted, test_labels))),
    ]
    aucs = []
    for column, cls in enumerate(classifier.classes):
        truths = [1 if label == cls else 0 for label in test_labels]
        if min(truths) == max(truths):
            continue
        value = roc_auc(scores[:, column], truths)
        aucs.append(value)
        rows.append((f"auc:{cls}", _format_float(value)))
    if aucs:
        rows.append(("mean_auc", _format_float(float(np.mean(aucs)))))
    _write_report(Path(args.report), rows, args.json)
    for key, value in rows:
        print(f"{key}\t{value}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    path = Path(args.report)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"{path}: cannot read report: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if "\t" not in line:
            raise DataError(f"{path}:{lineno}: expected key<TAB>value, got {line!r}")
        key, _, value = line.partition("\t")
        if not key or not value:
            raise DataError(f"{path}:{lineno}: expected key<TAB>value, got {line!r}")
        print(f"{key}\t{value}")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    return 0 if run_selftest() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="cskn",
        description="Unsupervised hierarchical image features: train, extract, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    train = sub.add_parser("train", help="learn a model from the train split")
    train.add_argument("--config", required=True, help="run configuration file")
    train.add_argument("--manifest", required=True, help="dataset manifest")
    train.add_argument("--out", required=True, help="output model path")
    train.set_defaults(func=_cmd_train)

    extract = sub.add_parser("extract", help="write descriptors for every manifest entry")
    extract.add_argument("--model", required=True)
    extract.add_argument("--manifest", required=True)
    extract.add_argument("--out", required=True, help="output descriptor file")
    extract.set_defaults(func=_cmd_extract)

    retrieve = sub.add_parser("retrieve", help="rank the train gallery for each query")
    retrieve.add_argument("--model", required=True)
    retrieve.add_argument("--manifest", required=True)
    retrieve.add_argument("--queries", help="comma-separated manifest paths (default: test split)")
    retrieve.add_argument("--q", default="1,5,10,30", help="precision cutoffs")
    retrieve.add_argument("--report", required=True)
    retrieve.add_argument("--json", action="store_true", help="also write a JSON twin")
    retrieve.set_defaults(func=_cmd_retrieve)

    classify = sub.add_parser("classify", help="fit the linear classifier and score the test split")
    classify.add_argument("--model", required=True)
    classify.add_argument("--manifest", required=True)
    classify.add_argument("--report", required=True)
    classify.add_argument("--json", action="store_true", help="also write a JSON twin")
    classify.set_defaults(func=_cmd_classify)

    evaluate = sub.add_parser("evaluate", help="validate and echo a report file")
    evaluate.add_argument("--report", required=True)
    evaluate.set_defaults(func=_cmd_evaluate)

    selftest = sub.add_parser("selftest", help="run the oracle-backed invariant checks")
    selftest.set_defaults(func=_cmd_selftest)
    return parser


def run_command(argv: list[str]) -> int:
    """Run one command; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, InvalidArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericFailureError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
