"""Procedural 0/3/8 digit glyphs written as IDX files.

The glyphs are a timing input for the `digits` workload only: they
give `rc mnist` something to read without a download.  They are not
MNIST, and nothing should ever score the MNIST accuracy bands on them.

Each glyph is a set of parametric strokes, bent by a seeded affine
jitter (rotation, scale, shear, shift), rendered as a soft pen on a
28x28 frame, then sprinkled with sparse speckle noise.  Narrow glyphs
and sparse speckle leave some columns of the 18x12 crop blank, as real
digits do, so the quantum zero-vector fallback still gets exercised.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

DIGITS = (0, 3, 8)
FRAME = 28

TRAIN_IMAGES = "train-images-idx3-ubyte"
TRAIN_LABELS = "train-labels-idx1-ubyte"
TEST_IMAGES = "t10k-images-idx3-ubyte"
TEST_LABELS = "t10k-labels-idx1-ubyte"


def _arc(cx, cy, rx, ry, a0, a1, n=40):
    t = np.linspace(a0, a1, n)
    return np.stack([cx + rx * np.cos(t), cy + ry * np.sin(t)], axis=1)


def _strokes(digit):
    """Pen path of a digit in unit coordinates (x right, y down,
    glyph height about 1, centred on the origin)."""
    if digit == 0:
        return _arc(0.0, 0.0, 0.30, 0.48, 0.0, 2 * np.pi, 80)
    if digit == 3:
        return np.concatenate([
            _arc(0.0, -0.24, 0.26, 0.24, -0.85 * np.pi, 0.5 * np.pi),
            _arc(0.0, 0.24, 0.28, 0.24, -0.5 * np.pi, 0.85 * np.pi),
        ])
    if digit == 8:
        return np.concatenate([
            _arc(0.0, -0.25, 0.22, 0.23, 0.0, 2 * np.pi),
            _arc(0.0, 0.25, 0.27, 0.25, 0.0, 2 * np.pi),
        ])
    raise ValueError(f"no glyph for digit {digit}")


def render_digit(digit, rng):
    """One 28x28 uint8 frame of `digit` with seeded jitter and noise."""
    pts = _strokes(digit)
    angle = rng.uniform(-0.2, 0.2)
    height = rng.uniform(15.0, 19.0)
    width = height * rng.uniform(0.8, 1.15)
    shear = rng.uniform(-0.2, 0.2)
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    affine = rot @ np.array([[width, shear * height], [0.0, height]])
    centre = (FRAME - 1) / 2.0 + rng.uniform(-1.5, 1.5, size=2)
    pen = pts @ affine.T + centre
    yy, xx = np.mgrid[0:FRAME, 0:FRAME]
    grid = np.stack([xx.ravel(), yy.ravel()], axis=1).astype(float)
    d2 = ((grid[:, None, :] - pen[None, :, :]) ** 2).sum(axis=2).min(axis=1)
    sigma = rng.uniform(0.8, 1.2)
    image = rng.uniform(0.8, 1.0) * np.exp(-d2 / (2 * sigma**2))
    image[image < 0.05] = 0.0
    speckle = rng.random(image.size) < 0.02
    image[speckle] += rng.uniform(0.1, 0.4, size=int(speckle.sum()))
    image = np.clip(image, 0.0, 1.0).reshape(FRAME, FRAME)
    return np.round(image * 255).astype(np.uint8)


def make_digits(labels, seed):
    rng = np.random.default_rng(seed)
    return np.stack([render_digit(int(d), rng) for d in labels])


def write_idx_images(path, images):
    images = np.asarray(images, dtype=np.uint8)
    header = struct.pack(">IIII", 0x00000803, *images.shape)
    Path(path).write_bytes(header + images.tobytes())


def write_idx_labels(path, labels):
    labels = np.asarray(labels, dtype=np.uint8)
    header = struct.pack(">II", 0x00000801, labels.size)
    Path(path).write_bytes(header + labels.tobytes())


def write_dataset(directory, n_train, n_test, seed):
    """The four IDX files in `directory`: n_train training frames with
    random labels and n_test test frames balanced over DIGITS."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    train_labels = rng.choice(DIGITS, size=n_train)
    test_labels = np.resize(np.array(DIGITS), n_test)
    train_seed, test_seed = rng.integers(2**32, size=2)
    write_idx_images(directory / TRAIN_IMAGES,
                     make_digits(train_labels, train_seed))
    write_idx_labels(directory / TRAIN_LABELS, train_labels)
    write_idx_images(directory / TEST_IMAGES,
                     make_digits(test_labels, test_seed))
    write_idx_labels(directory / TEST_LABELS, test_labels)
    return directory
