"""Synthetic data: oriented textures for end-to-end runs, plus small
generators used by the self-test and the fidelity experiments."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError
from .featmap import FeatureMap
from .images import write_pgm

TEXTURE_ANGLES_DEG = (0.0, 60.0, 120.0)


def grating_image(
    size: int,
    angle_deg: float,
    frequency: float,
    phase: float,
    noise_sigma: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """A noisy oriented sinusoid grating in [0, 1]."""
    if size < 4:
        raise InvalidArgumentError("grating size must be >= 4")
    theta = np.deg2rad(angle_deg)
    rows, cols = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    carrier = cols * np.cos(theta) + rows * np.sin(theta)
    image = 0.5 + 0.4 * np.sin(2.0 * np.pi * frequency * carrier + phase)
    if noise_sigma > 0:
        image = image + rng.normal(0.0, noise_sigma, size=image.shape)
    return np.clip(image, 0.0, 1.0)


def make_texture_dataset(
    root: str | os.PathLike,
    *,
    size: int = 64,
    train_per_class: int = 20,
    test_per_class: int = 10,
    noise_sigma: float = 0.1,
    seed: int = 0,
    angles_deg: tuple[float, ...] = TEXTURE_ANGLES_DEG,
) -> Path:
    """Write a PGM texture dataset plus its manifest; returns the manifest path.

    Classes are grating orientations; every image gets its own phase and a
    small frequency jitter so the classes are distributions, not constants.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    lines: list[str] = []
    for class_index, angle in enumerate(angles_deg):
        label = f"tex{class_index}"
        for split, count in (("train", train_per_class), ("test", test_per_class)):
            for k in range(count):
                frequency = rng.uniform(0.08, 0.12)
                phase = rng.uniform(0.0, 2.0 * np.pi)
                image = grating_image(size, angle, frequency, phase, noise_sigma, rng)
                name = f"{label}_{split}_{k:03d}.pgm"
                write_pgm(root / name, image)
                lines.append(f"{name}\t{label}\t{split}")
    manifest = root / "manifest.tsv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def mixture_feature_map(
    rng: np.random.Generator,
    extent: int,
    centers: np.ndarray,
    spread: float = 0.25,
    magnitude_low: float = 0.5,
    magnitude_high: float = 1.5,
) -> FeatureMap:
    """A small map whose pixel vectors come from a spherical mixture.

    Pixel directions follow the given cluster centers; magnitudes are
    uniform in [magnitude_low, magnitude_high]. Useful as held-out data
    for kernel-fidelity comparisons.
    """
    num_clusters, dim = centers.shape
    assignment = rng.integers(0, num_clusters, size=extent * extent)
    points = centers[assignment] + spread * rng.normal(size=(extent * extent, dim))
    norms = np.linalg.norm(points, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    directions = points / norms
    magnitudes = rng.uniform(magnitude_low, magnitude_high, size=(extent * extent, 1))
    values = (directions * magnitudes).reshape(extent, extent, dim)
    return FeatureMap(values)


def sphere_cluster_centers(
    rng: np.random.Generator, num_clusters: int, dim: int = 3
) -> np.ndarray:
    centers = rng.normal(size=(num_clusters, dim))
    return centers / np.linalg.norm(centers, axis=1, keepdims=True)
