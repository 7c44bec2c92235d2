"""End-to-end command-line behavior on a small synthetic corpus."""

import json

import numpy as np
import pytest

from cskn.cli import run_command
from cskn.model_io import load_descriptors, load_model

from conftest import TINY_CONFIG

WIDE_SECOND_LAYER_CONFIG = """\
input_size = 32
seed = 7

[pretrain]
patches_per_epoch = 2000
epochs = 1
batch_size = 250

[layer1]
input = gradient
sub_patch_size = 1
subsampling_factor = 4
num_filters = 16
num_training_pairs = 3000

[layer2]
input = patch
sub_patch_size = 3
subsampling_factor = 4
num_filters = 24
num_training_pairs = 3000
"""


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory, tiny_manifest):
    """Train once, extract everything, and keep the paths around."""
    root = tmp_path_factory.mktemp("tiny-run")
    config = root / "run.cfg"
    config.write_text(TINY_CONFIG, encoding="utf-8")
    model = root / "model.cskn"
    status = run_command(
        [
            "train",
            "--config", str(config),
            "--manifest", str(tiny_manifest),
            "--out", str(model),
        ]
    )
    assert status == 0
    features = root / "features.cskd"
    status = run_command(
        [
            "extract",
            "--model", str(model),
            "--manifest", str(tiny_manifest),
            "--out", str(features),
        ]
    )
    assert status == 0
    return {
        "root": root,
        "config": config,
        "manifest": tiny_manifest,
        "model": model,
        "features": features,
    }


def read_report(path):
    rows = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("\t")
        rows[key] = value
    return rows


class TestTrainAndExtract:
    def test_model_file_is_loadable(self, tiny_run):
        model = load_model(tiny_run["model"])
        assert len(model.layers) == 2
        assert model.input_size == 32
        assert model.layers[0].config.input_kind == "gradient"
        assert model.layers[0].params.dim == 2
        assert model.layers[1].params.dim == 8 * 9

    def test_descriptors_cover_every_entry(self, tiny_run):
        entries, matrix = load_descriptors(tiny_run["features"])
        model = load_model(tiny_run["model"])
        assert len(entries) == 18  # 3 classes x (4 train + 2 test)
        assert matrix.shape == (18, model.descriptor_length)
        splits = {split for _, _, split in entries}
        assert splits == {"train", "test"}
        assert np.isfinite(matrix).all()

    def test_train_rejects_empty_train_split(self, tiny_run, tmp_path):
        manifest = tmp_path / "test-only.tsv"
        manifest.write_text("a.pgm\tx\ttest\n", encoding="utf-8")
        status = run_command(
            [
                "train",
                "--config", str(tiny_run["config"]),
                "--manifest", str(manifest),
                "--out", str(tmp_path / "m.cskn"),
            ]
        )
        assert status == 2

    def test_layer_structure_for_wide_second_layer(self, tiny_manifest, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(WIDE_SECOND_LAYER_CONFIG, encoding="utf-8")
        model_path = tmp_path / "model.cskn"
        status = run_command(
            [
                "train",
                "--config", str(config),
                "--manifest", str(tiny_manifest),
                "--out", str(model_path),
            ]
        )
        assert status == 0
        model = load_model(model_path)
        assert model.layers[0].params.filters.shape == (16, 2)
        assert model.layers[1].params.filters.shape == (24, 16 * 9)
        assert model.provenance["layer1_pair_loss_final"] <= model.provenance[
            "layer1_pair_loss_init"
        ]


class TestRetrieve:
    def test_report_rows_and_clamping(self, tiny_run):
        report = tiny_run["root"] / "retrieval.tsv"
        status = run_command(
            [
                "retrieve",
                "--model", str(tiny_run["model"]),
                "--manifest", str(tiny_run["manifest"]),
                "--report", str(report),
            ]
        )
        assert status == 0
        rows = read_report(report)
        assert rows["num_gallery"] == "12"
        assert rows["num_queries"] == "6"
        # The default cutoffs include 30; a 12-item gallery clamps it.
        for q in (1, 5, 10, 30):
            value = float(rows[f"precision@{q}"])
            assert 0.0 <= value <= 1.0

    def test_explicit_queries_and_json_twin(self, tiny_run, tmp_path):
        entries = [
            line.split("\t")[0]
            for line in tiny_run["manifest"].read_text().splitlines()
            if line.strip()
        ]
        report = tmp_path / "r.tsv"
        status = run_command(
            [
                "retrieve",
                "--model", str(tiny_run["model"]),
                "--manifest", str(tiny_run["manifest"]),
                "--queries", ",".join(entries[:2]),
                "--q", "1,3",
                "--report", str(report),
                "--json",
            ]
        )
        assert status == 0
        rows = read_report(report)
        assert rows["num_queries"] == "2"
        twin = json.loads(report.with_suffix(".tsv.json").read_text())
        assert twin == rows

    def test_train_query_is_not_its_own_match(self, tiny_run, tmp_path):
        # The query is the only train image of its label, so no other
        # gallery item is relevant to it; it must not retrieve itself.
        root = tiny_run["manifest"].parent
        lines = tiny_run["manifest"].read_text(encoding="utf-8").splitlines()
        rows = [line.split("\t") for line in lines if line.strip()]
        label = rows[0][1]
        query = next(path for path, lab, split in rows if lab == label and split == "train")
        kept = [
            (path, lab, split)
            for path, lab, split in rows
            if lab != label or split == "test" or path == query
        ]
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text(
            "".join(f"{root / path}\t{lab}\t{split}\n" for path, lab, split in kept),
            encoding="utf-8",
        )
        report = tmp_path / "r.tsv"
        status = run_command(
            [
                "retrieve",
                "--model", str(tiny_run["model"]),
                "--manifest", str(manifest),
                "--queries", str(root / query),
                "--q", "1",
                "--report", str(report),
            ]
        )
        assert status == 0
        rows = read_report(report)
        assert rows["num_gallery"] == "9"
        assert rows["precision@1"] == "0.000000"

    def test_unknown_query_path(self, tiny_run, tmp_path):
        status = run_command(
            [
                "retrieve",
                "--model", str(tiny_run["model"]),
                "--manifest", str(tiny_run["manifest"]),
                "--queries", "missing.pgm",
                "--report", str(tmp_path / "r.tsv"),
            ]
        )
        assert status == 2

    def test_bad_q_values(self, tiny_run, tmp_path):
        for bad in ("0", "abc", ""):
            status = run_command(
                [
                    "retrieve",
                    "--model", str(tiny_run["model"]),
                    "--manifest", str(tiny_run["manifest"]),
                    "--q", bad,
                    "--report", str(tmp_path / "r.tsv"),
                ]
            )
            assert status == 1


class TestClassify:
    def test_report_contents(self, tiny_run):
        report = tiny_run["root"] / "classify.tsv"
        status = run_command(
            [
                "classify",
                "--model", str(tiny_run["model"]),
                "--manifest", str(tiny_run["manifest"]),
                "--report", str(report),
                "--json",
            ]
        )
        assert status == 0
        rows = read_report(report)
        assert rows["num_train"] == "12"
        assert rows["num_test"] == "6"
        assert 0.0 <= float(rows["top1_accuracy"]) <= 1.0
        auc_keys = [k for k in rows if k.startswith("auc:")]
        assert len(auc_keys) == 3
        assert 0.0 <= float(rows["mean_auc"]) <= 1.0
        twin = json.loads(report.with_suffix(".tsv.json").read_text())
        assert twin == rows


class TestEvaluate:
    def test_echoes_valid_report(self, tiny_run, capsys):
        report = tiny_run["root"] / "classify.tsv"
        if not report.exists():
            report = tiny_run["root"] / "any.tsv"
            report.write_text("metric\t1.0\n", encoding="utf-8")
        status = run_command(["evaluate", "--report", str(report)])
        assert status == 0
        out = capsys.readouterr().out
        assert "\t" in out

    def test_malformed_report(self, tmp_path):
        report = tmp_path / "broken.tsv"
        report.write_text("no tab here\n", encoding="utf-8")
        assert run_command(["evaluate", "--report", str(report)]) == 2

    def test_missing_report(self, tmp_path):
        assert run_command(["evaluate", "--report", str(tmp_path / "none.tsv")]) == 2


class TestExitCodes:
    def test_selftest_passes(self):
        assert run_command(["selftest"]) == 0

    def test_missing_files_are_data_errors(self, tmp_path):
        status = run_command(
            [
                "extract",
                "--model", str(tmp_path / "absent.cskn"),
                "--manifest", str(tmp_path / "absent.tsv"),
                "--out", str(tmp_path / "f.cskd"),
            ]
        )
        assert status == 2

    def test_bad_config_is_usage_error(self, tiny_manifest, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("bogus_key = 1\n", encoding="utf-8")
        status = run_command(
            [
                "train",
                "--config", str(config),
                "--manifest", str(tiny_manifest),
                "--out", str(tmp_path / "m.cskn"),
            ]
        )
        assert status == 1

    def test_gradient_layer_with_rgb_fails_before_reading_images(self, tmp_path, capsys):
        config = tmp_path / "rgb.cfg"
        text = TINY_CONFIG.replace("seed = 3\n", "seed = 3\ncolor = rgb\n")
        config.write_text(text, encoding="utf-8")
        # The image does not exist, so reading it would be a data error (2).
        manifest = tmp_path / "data.tsv"
        manifest.write_text("absent.pgm\tx\ttrain\n", encoding="utf-8")
        model = tmp_path / "m.cskn"
        status = run_command(
            [
                "train",
                "--config", str(config),
                "--manifest", str(manifest),
                "--out", str(model),
            ]
        )
        assert status == 1
        assert not model.exists()
        assert "rgb.cfg:11: invalid [layer1]: a gradient first layer needs color = gray" in (
            capsys.readouterr().err
        )

    def test_missing_required_flag(self):
        assert run_command(["train"]) == 1

    def test_unknown_command(self):
        assert run_command(["transmogrify"]) == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_command(["--help"])
        assert excinfo.value.code == 0
        assert "train" in capsys.readouterr().out
