"""Manifest and run-configuration parsing."""

import functools
from pathlib import Path

import pytest

from cskn.config import RunConfig, load_manifest, parse_run_config
from cskn.epls import PretrainConfig
from cskn.errors import ConfigError, DataError, InvalidArgumentError
from cskn.kernel_layer import LayerConfig

from conftest import TEXTURE_CONFIG


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadManifest:
    def test_happy_path(self, tmp_path):
        manifest = write(
            tmp_path / "data.tsv",
            "# image list\n"
            "a/one.pgm\tgrass\ttrain\n"
            "\n"
            "a/two.pgm\tbrick\ttest\n",
        )
        loaded = load_manifest(manifest)
        assert loaded.root == tmp_path.resolve()
        assert [e.path for e in loaded.entries] == ["a/one.pgm", "a/two.pgm"]
        assert [e.label for e in loaded.entries] == ["grass", "brick"]
        assert [e.split for e in loaded.entries] == ["train", "test"]
        assert loaded.resolve(loaded.entries[0]) == tmp_path.resolve() / "a/one.pgm"

    def test_split_filtering(self, tmp_path):
        manifest = write(
            tmp_path / "data.tsv",
            "a.pgm\tx\ttrain\nb.pgm\ty\ttest\nc.pgm\tx\ttrain\n",
        )
        loaded = load_manifest(manifest)
        assert [e.path for e in loaded.split_entries("train")] == ["a.pgm", "c.pgm"]
        assert [e.path for e in loaded.split_entries("test")] == ["b.pgm"]

    def test_field_count_error_carries_line_number(self, tmp_path):
        manifest = write(tmp_path / "data.tsv", "a.pgm\tx\ttrain\nb.pgm\tx\n")
        with pytest.raises(DataError, match=r"data\.tsv:2: expected"):
            load_manifest(manifest)

    def test_bad_split(self, tmp_path):
        manifest = write(tmp_path / "data.tsv", "a.pgm\tx\tvalidation\n")
        with pytest.raises(DataError, match=":1: split"):
            load_manifest(manifest)

    def test_duplicate_path(self, tmp_path):
        manifest = write(
            tmp_path / "data.tsv", "a.pgm\tx\ttrain\na.pgm\ty\ttest\n"
        )
        with pytest.raises(DataError, match=":2: duplicate image path"):
            load_manifest(manifest)

    def test_empty_label(self, tmp_path):
        with pytest.raises(DataError, match=":1: empty label"):
            load_manifest(write(tmp_path / "a.tsv", "a.pgm\t\ttrain\n"))
        with pytest.raises(DataError, match=":1: empty label"):
            load_manifest(write(tmp_path / "b.tsv", "a.pgm\t  \ttrain\n"))

    def test_leading_tab_is_a_field_count_error(self, tmp_path):
        # Line-level stripping eats a leading tab, so the row arrives with
        # two fields and is reported as such.
        with pytest.raises(DataError, match=":1: expected"):
            load_manifest(write(tmp_path / "c.tsv", "\tx\ttrain\n"))

    def test_empty_manifest(self, tmp_path):
        with pytest.raises(DataError, match="lists no images"):
            load_manifest(write(tmp_path / "data.tsv", "# nothing here\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_manifest(tmp_path / "absent.tsv")


MINIMAL = """
[layer1]
input = gradient
sub_patch_size = 1
subsampling_factor = 4
num_filters = 16
"""


class TestParseRunConfig:
    def test_defaults(self, tmp_path):
        config = parse_run_config(write(tmp_path / "run.cfg", MINIMAL))
        assert config.input_size == 200
        assert config.seed == 0
        assert config.pyramid_levels == (1, 2, 3, 6)
        assert config.color == "gray"
        assert config.grayscale
        assert config.pretrain.batch_size == 1000
        assert config.pretrain.patches_per_epoch == 100_000
        assert config.pretrain.epochs == 5
        layer = config.layers[0]
        assert layer.alpha_quantile == 0.1
        assert layer.num_training_pairs == 400_000

    def test_layer_seed_defaults_to_global_plus_number(self, tmp_path):
        text = "seed = 40\n" + MINIMAL + (
            "[layer2]\n"
            "input = patch\n"
            "sub_patch_size = 3\n"
            "subsampling_factor = 2\n"
            "num_filters = 8\n"
        )
        config = parse_run_config(write(tmp_path / "run.cfg", text))
        assert config.layers[0].seed == 41
        assert config.layers[1].seed == 42
        assert config.pretrain.seed == 40

    def test_explicit_values_parse(self, tmp_path):
        text = (
            "input_size = 64\n"
            "seed = 7\n"
            "color = rgb\n"
            "pyramid_levels = 1, 2, 4\n"
            "[pretrain]\n"
            "batch_size = 250\n"
            "patches_per_epoch = 5000\n"
            "epochs = 2\n"
            "base_step = 0.02\n"
            "smoothing = 0.9\n"
            "seed = 11\n"
            "[layer1]\n"
            "input = patch\n"
            "sub_patch_size = 2\n"
            "subsampling_factor = 2\n"
            "num_filters = 32\n"
            "alpha_quantile = 0.25\n"
            "num_training_pairs = 1234\n"
            "seed = 99\n"
        )
        config = parse_run_config(write(tmp_path / "run.cfg", text))
        assert config.input_size == 64
        assert config.color == "rgb"
        assert not config.grayscale
        assert config.pyramid_levels == (1, 2, 4)
        assert config.pretrain.seed == 11
        assert config.pretrain.smoothing == 0.9
        layer = config.layers[0]
        assert layer.alpha_quantile == 0.25
        assert layer.num_training_pairs == 1234
        assert layer.seed == 99

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key 'momentum'"):
            parse_run_config(
                write(tmp_path / "run.cfg", "momentum = 0.9\n" + MINIMAL)
            )

    def test_unknown_key_in_section(self, tmp_path):
        text = MINIMAL + "stride = 2\n"
        with pytest.raises(ConfigError, match=r"unknown key 'stride' in \[layer1\]"):
            parse_run_config(write(tmp_path / "run.cfg", text))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown section \[solver\]"):
            parse_run_config(
                write(tmp_path / "run.cfg", "[solver]\nx = 1\n" + MINIMAL)
            )

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate key 'seed'"):
            parse_run_config(
                write(tmp_path / "run.cfg", "seed = 1\nseed = 2\n" + MINIMAL)
            )

    def test_duplicate_section(self, tmp_path):
        text = MINIMAL + MINIMAL
        with pytest.raises(ConfigError, match=r"duplicate section \[layer1\]"):
            parse_run_config(write(tmp_path / "run.cfg", text))

    def test_layer_numbering_gap(self, tmp_path):
        text = MINIMAL + (
            "[layer3]\n"
            "input = patch\n"
            "sub_patch_size = 2\n"
            "subsampling_factor = 2\n"
            "num_filters = 8\n"
        )
        with pytest.raises(ConfigError, match="without gaps"):
            parse_run_config(write(tmp_path / "run.cfg", text))

    def test_gradient_restricted_to_first_layer(self, tmp_path):
        text = (
            "[layer1]\n"
            "input = patch\n"
            "sub_patch_size = 2\n"
            "subsampling_factor = 2\n"
            "num_filters = 8\n"
            "[layer2]\n"
            "input = gradient\n"
            "sub_patch_size = 1\n"
            "subsampling_factor = 4\n"
            "num_filters = 16\n"
        )
        with pytest.raises(ConfigError, match=r"only allowed in \[layer1\]"):
            parse_run_config(write(tmp_path / "run.cfg", text))

    def test_missing_required_layer_key(self, tmp_path):
        text = "[layer1]\ninput = patch\nsub_patch_size = 2\nnum_filters = 8\n"
        with pytest.raises(ConfigError, match="missing 'subsampling_factor'"):
            parse_run_config(write(tmp_path / "run.cfg", text))

    def test_requires_a_layer(self, tmp_path):
        with pytest.raises(ConfigError, match="at least one"):
            parse_run_config(write(tmp_path / "run.cfg", "seed = 1\n"))

    def test_type_errors_carry_context(self, tmp_path):
        with pytest.raises(ConfigError, match="input_size expects an integer"):
            parse_run_config(
                write(tmp_path / "run.cfg", "input_size = large\n" + MINIMAL)
            )
        text = MINIMAL.replace("num_filters = 16", "num_filters = many")
        with pytest.raises(ConfigError, match="num_filters expects an integer"):
            parse_run_config(write(tmp_path / "run.cfg", text))

    def test_bad_values_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="pyramid_levels"):
            parse_run_config(
                write(tmp_path / "a.cfg", "pyramid_levels = 3, 2\n" + MINIMAL)
            )
        with pytest.raises(ConfigError, match="input_size"):
            parse_run_config(write(tmp_path / "b.cfg", "input_size = 1\n" + MINIMAL))
        with pytest.raises(ConfigError, match="seed"):
            parse_run_config(write(tmp_path / "c.cfg", "seed = -4\n" + MINIMAL))
        with pytest.raises(ConfigError, match="color"):
            parse_run_config(write(tmp_path / "d.cfg", "color = bgr\n" + MINIMAL))
        text = MINIMAL.replace("input = gradient", "input = sobel")
        with pytest.raises(ConfigError, match="patch or gradient"):
            parse_run_config(write(tmp_path / "e.cfg", text))

    def test_invalid_layer_value_is_wrapped(self, tmp_path):
        text = MINIMAL.replace("num_filters = 16", "num_filters = 0")
        with pytest.raises(ConfigError, match=r"invalid \[layer1\]"):
            parse_run_config(write(tmp_path / "run.cfg", text))

    def test_invalid_pretrain_value_is_wrapped(self, tmp_path):
        text = "[pretrain]\nepochs = 0\n" + MINIMAL
        with pytest.raises(ConfigError, match=r"invalid \[pretrain\]"):
            parse_run_config(write(tmp_path / "run.cfg", text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_run_config(tmp_path / "absent.cfg")

    def test_line_without_equals(self, tmp_path):
        with pytest.raises(ConfigError, match=":1: expected key = value"):
            parse_run_config(write(tmp_path / "run.cfg", "standalone\n" + MINIMAL))


class TestRunConfigRules:
    def test_readme_example_is_the_demo_architecture(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]
        config = parse_run_config(write(tmp_path / "readme.cfg", block))
        assert config == parse_run_config(write(tmp_path / "demo.cfg", TEXTURE_CONFIG))

    def test_unparsable_values_name_their_own_line(self, tmp_path):
        with pytest.raises(ConfigError, match=r"run\.cfg:1: input_size expects an integer"):
            parse_run_config(write(tmp_path / "run.cfg", "input_size = large\n" + MINIMAL))
        text = "[pretrain]\nepochs = x\n" + MINIMAL
        with pytest.raises(ConfigError, match=r"run\.cfg:2: epochs expects an integer"):
            parse_run_config(write(tmp_path / "run.cfg", text))
        text = "pyramid_levels = 1, two\n" + MINIMAL
        with pytest.raises(ConfigError, match=r"run\.cfg:1: pyramid_levels expects integers"):
            parse_run_config(write(tmp_path / "run.cfg", text))

    def test_rejected_values_name_their_section_header(self, tmp_path):
        # The top level has no header, so its values name their own line.
        text = "seed = 1\npyramid_levels = 3, 2\n" + MINIMAL
        with pytest.raises(ConfigError, match=r"run\.cfg:2: invalid pyramid_levels: pyramid"):
            parse_run_config(write(tmp_path / "run.cfg", text))
        text = "seed = 1\n[pretrain]\nbatch_size = 10\nepochs = 0\n" + MINIMAL
        with pytest.raises(ConfigError, match=r"run\.cfg:2: invalid \[pretrain\]: epochs"):
            parse_run_config(write(tmp_path / "run.cfg", text))
        # MINIMAL opens with a blank line, so [layer1] is line 3.
        text = "seed = 1\n" + MINIMAL.replace("num_filters = 16", "num_filters = 0")
        with pytest.raises(ConfigError, match=r"run\.cfg:3: invalid \[layer1\]: num_filters"):
            parse_run_config(write(tmp_path / "run.cfg", text))

    def test_gradient_first_layer_needs_gray(self, tmp_path):
        text = "color = rgb\n" + MINIMAL
        with pytest.raises(
            ConfigError,
            match=r"run\.cfg:3: invalid \[layer1\]: a gradient first layer needs color = gray",
        ):
            parse_run_config(write(tmp_path / "run.cfg", text))

    def test_layer_keys_are_layer_config_fields(self, tmp_path):
        # The field input_kind is spelled input; its own name is not a key.
        text = MINIMAL.replace("input = gradient", "input_kind = gradient")
        with pytest.raises(ConfigError, match=r"run\.cfg:3: unknown key 'input_kind'"):
            parse_run_config(write(tmp_path / "run.cfg", text))

    def test_defaults_are_the_dataclass_defaults(self, tmp_path):
        config = parse_run_config(write(tmp_path / "run.cfg", "seed = 9\n" + MINIMAL))
        layer = LayerConfig("gradient", 1, 4, 16, seed=10)
        assert config == RunConfig(seed=9, pretrain=PretrainConfig(seed=9), layers=(layer,))

    def test_seeds_fit_in_64_bits(self, tmp_path):
        # Model files store layer seeds as signed 64-bit integers, and
        # [layerN] defaults to seed + N, so the top-level seed's overflow
        # shows at [layer1]'s header.
        text = "seed = 9223372036854775807\n" + MINIMAL
        with pytest.raises(ConfigError, match=r"run\.cfg:3: invalid \[layer1\]: seed"):
            parse_run_config(write(tmp_path / "run.cfg", text))
        text = "seed = 9223372036854775808\n" + MINIMAL
        with pytest.raises(ConfigError, match=r"run\.cfg:1: invalid seed"):
            parse_run_config(write(tmp_path / "run.cfg", text))
        text = "seed = 9223372036854775806\n" + MINIMAL
        assert parse_run_config(write(tmp_path / "run.cfg", text)).layers[0].seed == 2**63 - 1
        layer = functools.partial(LayerConfig, "patch", 2, 2, 8)
        for build in (RunConfig, PretrainConfig, layer):
            build(seed=2**63 - 1)
            with pytest.raises(InvalidArgumentError, match="seed"):
                build(seed=2**63)

    def test_base_step_must_be_finite(self, tmp_path):
        text = "[pretrain]\nbase_step = inf\n" + MINIMAL
        with pytest.raises(ConfigError, match=r"run\.cfg:1: invalid \[pretrain\]: base_step"):
            parse_run_config(write(tmp_path / "run.cfg", text))
        for value in (float("inf"), float("nan"), 0.0):
            with pytest.raises(InvalidArgumentError, match="base_step"):
                PretrainConfig(base_step=value)

    def test_directly_built_config_is_validated(self):
        gradient = LayerConfig("gradient", 1, 4, 16)
        patch = LayerConfig("patch", 2, 2, 8)
        with pytest.raises(InvalidArgumentError, match="input_size must be >= 2"):
            RunConfig(input_size=1, layers=(gradient,))
        with pytest.raises(InvalidArgumentError, match="seed"):
            RunConfig(seed=-1)
        with pytest.raises(InvalidArgumentError, match="color"):
            RunConfig(color="bgr")
        with pytest.raises(InvalidArgumentError, match="pyramid levels"):
            RunConfig(pyramid_levels=(2, 1))
        with pytest.raises(InvalidArgumentError, match=r"only allowed in \[layer1\]"):
            RunConfig(layers=(patch, gradient))
        with pytest.raises(InvalidArgumentError, match="needs color = gray"):
            RunConfig(color="rgb", layers=(gradient,))
        assert RunConfig(color="rgb", layers=(patch,)).pretrain == PretrainConfig()
