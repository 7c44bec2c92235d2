"""Binary persistence for models and descriptor sets."""

import struct

import numpy as np
import pytest

from cskn import model_io
from cskn.errors import DataError, FormatError
from cskn.kernel_layer import MAX_SEED, LayerConfig, LayerParams
from cskn.model_io import (
    DESCRIPTOR_MAGIC,
    MODEL_MAGIC,
    load_descriptors,
    load_model,
    save_descriptors,
    save_model,
)
from cskn.network import ModelBundle, TrainedLayer


def make_layer(config, dim, seed):
    rng = np.random.default_rng(seed)
    params = LayerParams(
        rng.normal(size=(config.num_filters, dim)).astype(np.float32),
        rng.uniform(0.1, 1.0, size=config.num_filters).astype(np.float32),
        alpha=float(rng.uniform(0.3, 0.9)),
        beta=config.subsampling_factor / np.sqrt(2.0),
    )
    return TrainedLayer(config, params)


@pytest.fixture
def two_layer_model():
    # 2x2 patches with 100 then 800 filters, pooling strides 2 and 4, on
    # 200x200 single-channel input.
    first = make_layer(
        LayerConfig("patch", 2, 2, 100, alpha_quantile=0.1, num_training_pairs=400_000, seed=5),
        dim=4,
        seed=0,
    )
    second = make_layer(
        LayerConfig("patch", 2, 4, 800, alpha_quantile=0.1, num_training_pairs=400_000, seed=6),
        dim=400,
        seed=1,
    )
    return ModelBundle(
        layers=(first, second),
        pyramid_levels=(1, 2, 3, 6),
        input_size=200,
        provenance={
            "trained_on": "corpus-a",
            "layer1_pair_loss_final": 12.5,
            "pretrain_epochs": 3,
        },
    )


class TestModelRoundTrip:
    def test_full_fidelity(self, two_layer_model, tmp_path):
        path = tmp_path / "model.bin"
        save_model(two_layer_model, path)
        loaded = load_model(path)
        assert loaded.input_size == 200
        assert loaded.pyramid_levels == (1, 2, 3, 6)
        assert len(loaded.layers) == 2
        for original, restored in zip(two_layer_model.layers, loaded.layers):
            assert restored.config == original.config
            np.testing.assert_array_equal(
                restored.params.filters, original.params.filters
            )
            np.testing.assert_array_equal(
                restored.params.weights, original.params.weights
            )
            assert restored.params.alpha == original.params.alpha
            assert restored.params.beta == original.params.beta
        assert loaded.provenance == dict(two_layer_model.provenance)

    def test_save_load_save_is_bitwise_stable(self, two_layer_model, tmp_path):
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        save_model(two_layer_model, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_largest_seed_survives(self, tmp_path):
        layer = make_layer(LayerConfig("patch", 2, 2, 3, seed=MAX_SEED), dim=4, seed=2)
        model = ModelBundle(layers=(layer,), pyramid_levels=(1,), input_size=16)
        save_model(model, tmp_path / "model.bin")
        assert load_model(tmp_path / "model.bin").layers[0].config.seed == MAX_SEED

    def test_provenance_types_survive(self, two_layer_model, tmp_path):
        path = tmp_path / "model.bin"
        save_model(two_layer_model, path)
        loaded = load_model(path)
        assert loaded.provenance["trained_on"] == "corpus-a"
        assert isinstance(loaded.provenance["trained_on"], str)
        assert loaded.provenance["layer1_pair_loss_final"] == 12.5
        assert isinstance(loaded.provenance["layer1_pair_loss_final"], float)
        assert loaded.provenance["pretrain_epochs"] == 3
        assert isinstance(loaded.provenance["pretrain_epochs"], int)

    def test_boolean_provenance_is_rejected(self, two_layer_model, tmp_path):
        model = ModelBundle(
            layers=two_layer_model.layers,
            pyramid_levels=two_layer_model.pyramid_levels,
            input_size=two_layer_model.input_size,
            provenance={"flag": True},
        )
        with pytest.raises(FormatError, match="boolean"):
            save_model(model, tmp_path / "model.bin")


class TestModelCorruption:
    @pytest.fixture
    def saved(self, two_layer_model, tmp_path):
        path = tmp_path / "model.bin"
        save_model(two_layer_model, path)
        return path, path.read_bytes()

    def test_bad_magic(self, saved, tmp_path):
        path, data = saved
        broken = tmp_path / "broken.bin"
        broken.write_bytes(b"XXXX" + data[4:])
        with pytest.raises(FormatError, match="bad magic"):
            load_model(broken)

    def test_unsupported_version(self, saved, tmp_path):
        path, data = saved
        broken = tmp_path / "broken.bin"
        broken.write_bytes(data[:4] + struct.pack("<I", 99) + data[8:])
        with pytest.raises(FormatError, match="version 99"):
            load_model(broken)

    @pytest.mark.parametrize("cut", [3, 7, 15, 40, 200, -1])
    def test_truncation_anywhere_is_reported(self, saved, tmp_path, cut):
        path, data = saved
        broken = tmp_path / "broken.bin"
        broken.write_bytes(data[:cut])
        with pytest.raises(FormatError, match="truncated"):
            load_model(broken)

    def test_trailing_bytes(self, saved, tmp_path):
        path, data = saved
        broken = tmp_path / "broken.bin"
        broken.write_bytes(data + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_model(broken)

    def test_field_name_appears_in_truncation_error(self, saved, tmp_path):
        path, data = saved
        broken = tmp_path / "broken.bin"
        # Keep the 16-byte head plus a few payload bytes: the reader dies
        # inside the header fields and says which one.
        broken.write_bytes(data[:18])
        with pytest.raises(FormatError, match="payload"):
            load_model(broken)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="cannot read"):
            load_model(tmp_path / "absent.bin")

    def test_unknown_layer_kind(self, saved, tmp_path):
        path, data = saved
        # The first layer's kind byte follows input_size (4), level count
        # (4), four levels (16), and layer count (4) in the payload, which
        # starts at offset 16.
        offset = 16 + 4 + 4 + 16 + 4
        broken = tmp_path / "broken.bin"
        broken.write_bytes(data[:offset] + b"\x07" + data[offset + 1 :])
        with pytest.raises(FormatError, match="input kind"):
            load_model(broken)

    def test_filter_count_mismatch_names_file_and_layer(self, saved, tmp_path):
        path, data = saved
        # Layer 1's num_filters follows its kind byte, sub_patch_size and
        # subsampling_factor; the file still holds 100 filter rows.
        offset = 16 + 4 + 4 + 16 + 4 + 1 + 4 + 4
        assert struct.unpack_from("<I", data, offset) == (100,)
        broken = tmp_path / "broken.bin"
        broken.write_bytes(data[:offset] + struct.pack("<I", 99) + data[offset + 4 :])
        with pytest.raises(FormatError, match=r"broken\.bin: invalid layer 1: .*filter count"):
            load_model(broken)

    def test_unwritable_target_names_the_path(self, two_layer_model, tmp_path):
        target = tmp_path / "nodir" / "model.bin"
        with pytest.raises(DataError) as caught:
            save_model(two_layer_model, target)
        assert str(caught.value) == f"{target}: cannot write: No such file or directory"


class TestDescriptorRoundTrip:
    def test_entries_and_matrix(self, tmp_path):
        entries = [
            ("images/a.pgm", "grass", "train"),
            ("images/b.pgm", "brick", "test"),
            ("images/c.pgm", "grass", "train"),
        ]
        rng = np.random.default_rng(2)
        matrix = rng.random((3, 7)).astype(np.float32)
        path = tmp_path / "features.bin"
        save_descriptors(path, entries, matrix)
        loaded_entries, loaded_matrix = load_descriptors(path)
        assert loaded_entries == entries
        np.testing.assert_array_equal(loaded_matrix, matrix)
        assert loaded_matrix.dtype == np.float32

    def test_magic_check(self, tmp_path):
        path = tmp_path / "features.bin"
        save_descriptors(path, [("a", "x", "train")], np.zeros((1, 2)))
        data = path.read_bytes()
        assert data[:4] == DESCRIPTOR_MAGIC
        broken = tmp_path / "broken.bin"
        broken.write_bytes(MODEL_MAGIC + data[4:])
        with pytest.raises(FormatError, match="bad magic"):
            load_descriptors(broken)

    def test_row_count_must_match(self, tmp_path):
        with pytest.raises(FormatError, match="one descriptor row"):
            save_descriptors(
                tmp_path / "x.bin", [("a", "x", "train")], np.zeros((2, 2))
            )

    def test_truncated_matrix(self, tmp_path):
        path = tmp_path / "features.bin"
        save_descriptors(path, [("a", "x", "test")], np.ones((1, 4)))
        data = path.read_bytes()
        broken = tmp_path / "broken.bin"
        broken.write_bytes(data[:-6])
        with pytest.raises(FormatError, match="truncated"):
            load_descriptors(broken)

    def test_unicode_paths_and_labels(self, tmp_path):
        entries = [("données/ß.pgm", "café", "train")]
        path = tmp_path / "features.bin"
        save_descriptors(path, entries, np.zeros((1, 3)))
        loaded_entries, _ = load_descriptors(path)
        assert loaded_entries == entries


class TestAtomicWrites:
    """An interrupted write leaves the earlier file and no temp file."""

    @pytest.mark.parametrize("kind", ["model", "descriptors"])
    def test_failed_write_keeps_the_earlier_file(
        self, kind, two_layer_model, tmp_path, monkeypatch
    ):
        def save(path):
            if kind == "model":
                save_model(two_layer_model, path)
            else:
                save_descriptors(path, [("a.pgm", "x", "train")], np.ones((1, 5)))

        path = tmp_path / "out.bin"
        path.write_bytes(b"earlier contents")
        save(tmp_path / "reference.bin")
        expected = (tmp_path / "reference.bin").read_bytes()
        real_open = open
        written = []

        class HalfWriter:
            """A file whose write stores half the bytes, then fails."""

            def __init__(self, *args, **kwargs):
                self.handle = real_open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, data):
                self.handle.write(data[: len(data) // 2])
                self.handle.flush()
                written.append(len(data) // 2)
                raise OSError("disk full")

        monkeypatch.setattr(model_io, "open", HalfWriter, raising=False)
        with pytest.raises(DataError, match="out.bin: cannot write: disk full"):
            save(path)
        assert written == [len(expected) // 2]
        assert path.read_bytes() == b"earlier contents"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin", "reference.bin"]

        monkeypatch.undo()
        save(path)
        assert path.read_bytes() == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin", "reference.bin"]
