"""Binary persistence for models and descriptor sets.

Model files open with the magic ``CSKN`` and a little-endian uint32
format version, followed by a length-prefixed payload: scalars in fixed
little-endian integer/float64 fields, arrays as float32 little-endian
row-major data behind a dimension header. Descriptor files use the magic
``CSKD`` with the same array convention. All writes are deterministic
functions of their inputs, so equal models produce equal bytes, and
atomic: a temp file in the target's directory replaces the target only
once it is complete.
"""

from __future__ import annotations

import os
import secrets
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError
from .kernel_layer import LayerConfig, LayerParams
from .network import ModelBundle, TrainedLayer

MODEL_MAGIC = b"CSKN"
DESCRIPTOR_MAGIC = b"CSKD"
FORMAT_VERSION = 1

_KIND_CODES = {"patch": 0, "gradient": 1}
_KIND_NAMES = {code: name for name, code in _KIND_CODES.items()}
_PROV_INT, _PROV_FLOAT, _PROV_STR = 0, 1, 2


class _Writer:
    def __init__(self) -> None:
        self.parts: list[bytes] = []

    def u8(self, value: int) -> None:
        self.parts.append(struct.pack("<B", value))

    def u32(self, value: int) -> None:
        self.parts.append(struct.pack("<I", value))

    def i64(self, value: int) -> None:
        self.parts.append(struct.pack("<q", value))

    def f64(self, value: float) -> None:
        self.parts.append(struct.pack("<d", value))

    def string(self, value: str) -> None:
        blob = value.encode("utf-8")
        self.u32(len(blob))
        self.parts.append(blob)

    def array_f32(self, array: np.ndarray) -> None:
        data = np.ascontiguousarray(array, dtype=np.float32)
        self.u8(data.ndim)
        for extent in data.shape:
            self.u32(extent)
        self.parts.append(data.astype("<f4", copy=False).tobytes(order="C"))

    def provenance(self, mapping: dict) -> None:
        self.u32(len(mapping))
        for key, value in mapping.items():
            self.string(str(key))
            if isinstance(value, bool):
                raise FormatError(f"provenance value for {key!r} cannot be boolean")
            if isinstance(value, int):
                self.u8(_PROV_INT)
                self.i64(value)
            elif isinstance(value, float):
                self.u8(_PROV_FLOAT)
                self.f64(value)
            elif isinstance(value, str):
                self.u8(_PROV_STR)
                self.string(value)
            else:
                raise FormatError(
                    f"provenance value for {key!r} has unsupported type "
                    f"{type(value).__name__}"
                )

    def blob(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    def __init__(self, data: bytes, source: str) -> None:
        self.data = data
        self.pos = 0
        self.source = source

    def take(self, count: int, field: str) -> bytes:
        if self.pos + count > len(self.data):
            raise FormatError(
                f"{self.source}: truncated while reading {field} "
                f"(offset {self.pos}, need {count} bytes)"
            )
        chunk = self.data[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def u8(self, field: str) -> int:
        return struct.unpack("<B", self.take(1, field))[0]

    def u32(self, field: str) -> int:
        return struct.unpack("<I", self.take(4, field))[0]

    def i64(self, field: str) -> int:
        return struct.unpack("<q", self.take(8, field))[0]

    def f64(self, field: str) -> float:
        return struct.unpack("<d", self.take(8, field))[0]

    def u64(self, field: str) -> int:
        return struct.unpack("<Q", self.take(8, field))[0]

    def string(self, field: str) -> str:
        length = self.u32(f"{field} length")
        blob = self.take(length, field)
        try:
            return blob.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.source}: {field} is not UTF-8") from exc

    def array_f32(self, field: str) -> np.ndarray:
        ndim = self.u8(f"{field} rank")
        if ndim < 1 or ndim > 4:
            raise FormatError(f"{self.source}: implausible rank {ndim} for {field}")
        shape = tuple(self.u32(f"{field} dim {k}") for k in range(ndim))
        count = 1
        for extent in shape:
            count *= extent
        blob = self.take(4 * count, f"{field} data")
        return np.frombuffer(blob, dtype="<f4").reshape(shape).astype(np.float32)

    def provenance(self, field: str) -> dict:
        count = self.u32(f"{field} count")
        if count > 100_000:
            raise FormatError(f"{self.source}: implausible {field} count {count}")
        out: dict[str, int | float | str] = {}
        for _ in range(count):
            key = self.string(f"{field} key")
            tag = self.u8(f"{field} tag")
            if tag == _PROV_INT:
                out[key] = self.i64(f"{field} value")
            elif tag == _PROV_FLOAT:
                out[key] = self.f64(f"{field} value")
            elif tag == _PROV_STR:
                out[key] = self.string(f"{field} value")
            else:
                raise FormatError(f"{self.source}: unknown {field} tag {tag}")
        return out

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise FormatError(
                f"{self.source}: {len(self.data) - self.pos} trailing bytes "
                f"after payload"
            )


def _encode_model(model: ModelBundle) -> bytes:
    body = _Writer()
    body.u32(model.input_size)
    body.u32(len(model.pyramid_levels))
    for level in model.pyramid_levels:
        body.u32(level)
    body.u32(len(model.layers))
    for layer in model.layers:
        config = layer.config
        body.u8(_KIND_CODES[config.input_kind])
        body.u32(config.sub_patch_size)
        body.u32(config.subsampling_factor)
        body.u32(config.num_filters)
        body.f64(config.alpha_quantile)
        body.i64(config.num_training_pairs)
        body.i64(config.seed)
        body.f64(layer.params.alpha)
        body.f64(layer.params.beta)
        body.array_f32(layer.params.filters)
        body.array_f32(layer.params.weights)
    body.provenance(dict(model.provenance))
    payload = body.blob()
    head = _Writer()
    head.parts.append(MODEL_MAGIC)
    head.u32(FORMAT_VERSION)
    head.parts.append(struct.pack("<Q", len(payload)))
    return head.blob() + payload


def _write_atomic(path: str | os.PathLike, data: bytes) -> None:
    """Write ``data`` to a fresh temp file beside ``path``, then rename it
    over ``path``; a failed write removes the temp file and leaves any
    earlier file at ``path`` untouched."""
    target = Path(path)
    temp = target.with_name(f".{target.name}.{secrets.token_hex(8)}.tmp")
    handle = open(temp, "xb")
    try:
        with handle:
            handle.write(data)
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def save_model(model: ModelBundle, path: str | os.PathLike) -> None:
    """Serialize a sealed model bundle to ``path``."""
    _write_atomic(path, _encode_model(model))


def load_model(path: str | os.PathLike) -> ModelBundle:
    """Read a model bundle back; every field is validated on the way in."""
    source = str(path)
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise FormatError(f"{source}: cannot read model file: {exc}") from exc
    reader = _Reader(data, source)
    magic = reader.take(4, "magic")
    if magic != MODEL_MAGIC:
        raise FormatError(f"{source}: bad magic {magic!r}, expected {MODEL_MAGIC!r}")
    version = reader.u32("format version")
    if version != FORMAT_VERSION:
        raise FormatError(f"{source}: unsupported format version {version}")
    payload_len = reader.u64("payload length")
    payload = reader.take(payload_len, "payload")
    reader.expect_end()
    body = _Reader(payload, source)
    input_size = body.u32("input size")
    level_count = body.u32("pyramid level count")
    if level_count > 64:
        raise FormatError(f"{source}: implausible pyramid level count {level_count}")
    levels = tuple(body.u32(f"pyramid level {k}") for k in range(level_count))
    layer_count = body.u32("layer count")
    if layer_count > 64:
        raise FormatError(f"{source}: implausible layer count {layer_count}")
    layers: list[TrainedLayer] = []
    for index in range(layer_count):
        field = f"layer {index + 1}"
        kind_code = body.u8(f"{field} input kind")
        if kind_code not in _KIND_NAMES:
            raise FormatError(f"{source}: unknown {field} input kind {kind_code}")
        try:
            config = LayerConfig(
                input_kind=_KIND_NAMES[kind_code],
                sub_patch_size=body.u32(f"{field} sub_patch_size"),
                subsampling_factor=body.u32(f"{field} subsampling_factor"),
                num_filters=body.u32(f"{field} num_filters"),
                alpha_quantile=body.f64(f"{field} alpha_quantile"),
                num_training_pairs=body.i64(f"{field} num_training_pairs"),
                seed=body.i64(f"{field} seed"),
            )
            alpha = body.f64(f"{field} alpha")
            beta = body.f64(f"{field} beta")
            params = LayerParams(
                filters=body.array_f32(f"{field} filters"),
                weights=body.array_f32(f"{field} weights"),
                alpha=alpha,
                beta=beta,
            )
        except ValueError as exc:
            raise FormatError(f"{source}: invalid {field}: {exc}") from exc
        layers.append(TrainedLayer(config, params))
    provenance = body.provenance("provenance")
    body.expect_end()
    try:
        return ModelBundle(
            layers=tuple(layers),
            pyramid_levels=levels,
            input_size=input_size,
            provenance=provenance,
        )
    except ValueError as exc:
        raise FormatError(f"{source}: inconsistent model: {exc}") from exc


def save_descriptors(
    path: str | os.PathLike,
    entries: list[tuple[str, str, str]],
    matrix: np.ndarray,
) -> None:
    """Write descriptor rows keyed by (path, label, split) triples."""
    matrix = np.asarray(matrix, dtype=np.float32)
    if matrix.ndim != 2 or matrix.shape[0] != len(entries):
        raise FormatError("one descriptor row per entry required")
    writer = _Writer()
    writer.parts.append(DESCRIPTOR_MAGIC)
    writer.u32(FORMAT_VERSION)
    writer.u32(len(entries))
    writer.u32(matrix.shape[1])
    for image_path, label, split in entries:
        writer.string(image_path)
        writer.string(label)
        writer.u8(0 if split == "train" else 1)
    writer.array_f32(matrix)
    _write_atomic(path, writer.blob())


def load_descriptors(
    path: str | os.PathLike,
) -> tuple[list[tuple[str, str, str]], np.ndarray]:
    source = str(path)
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise FormatError(f"{source}: cannot read descriptor file: {exc}") from exc
    reader = _Reader(data, source)
    magic = reader.take(4, "magic")
    if magic != DESCRIPTOR_MAGIC:
        raise FormatError(
            f"{source}: bad magic {magic!r}, expected {DESCRIPTOR_MAGIC!r}"
        )
    version = reader.u32("format version")
    if version != FORMAT_VERSION:
        raise FormatError(f"{source}: unsupported format version {version}")
    count = reader.u32("descriptor count")
    if count > 10_000_000:
        raise FormatError(f"{source}: implausible descriptor count {count}")
    dim = reader.u32("descriptor dim")
    entries: list[tuple[str, str, str]] = []
    for index in range(count):
        image_path = reader.string(f"entry {index} path")
        label = reader.string(f"entry {index} label")
        split_code = reader.u8(f"entry {index} split")
        if split_code not in (0, 1):
            raise FormatError(f"{source}: unknown split code {split_code}")
        entries.append((image_path, label, "train" if split_code == 0 else "test"))
    matrix = reader.array_f32("descriptor matrix")
    reader.expect_end()
    if matrix.shape != (count, dim):
        raise FormatError(
            f"{source}: descriptor matrix shape {matrix.shape} does not match "
            f"header ({count}, {dim})"
        )
    return entries, matrix
