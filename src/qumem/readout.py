"""Trainable linear readout and the task pipelines that feed it.

The readout is deliberately minimal: two bias-free weight matrices with
no hidden activation (an entirely linear map) and a softmax on the
output only to render class probabilities.  It is trained by
mini-batch SGD on cross-entropy.

Also here: the IDX-format digit loader with the 18x12 centre crop, the
column-sequence view of an image, and the entangled/separable state
dataset for the entanglement-detection task.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._atomic import write_atomic
from .reservoir import (
    COHERENT,
    QUANTUM,
    EncodedInput,
    amplitude_encode,
    coherent_encode,
    sample_entangled,
    sample_separable,
)

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801
CROP_ROWS = slice(5, 23)   # 18 rows of the 28x28 frame
CROP_COLS = slice(8, 20)   # 12 columns
# (rows, columns) of a crop; each column is one reservoir input
_CROP_SHAPE = (CROP_ROWS.stop - CROP_ROWS.start,
               CROP_COLS.stop - CROP_COLS.start)

TRAIN_IMAGES = "train-images-idx3-ubyte"
TRAIN_LABELS = "train-labels-idx1-ubyte"
TEST_IMAGES = "t10k-images-idx3-ubyte"
TEST_LABELS = "t10k-labels-idx1-ubyte"


class DataError(Exception):
    """Raised for malformed or insufficient dataset files."""


# ---------------------------------------------------------------------------
# model

class ReadoutModel:
    """input -> hidden -> output, no biases, no hidden activation."""

    def __init__(self, w1, w2):
        self.w1 = np.asarray(w1, dtype=float)
        self.w2 = np.asarray(w2, dtype=float)
        if self.w1.shape[1] != self.w2.shape[0]:
            raise ValueError("hidden dimensions of w1 and w2 disagree")

    @classmethod
    def initialize(cls, n_in, n_hidden, n_out, seed=0):
        """Random init, scaled by 1/sqrt(fan_in) per matrix."""
        rng = np.random.default_rng(seed)
        s1, s2 = 1.0 / math.sqrt(n_in), 1.0 / math.sqrt(n_hidden)
        return cls(
            s1 * rng.standard_normal((n_in, n_hidden)),
            s2 * rng.standard_normal((n_hidden, n_out)),
        )

    @property
    def n_parameters(self):
        return self.w1.size + self.w2.size

    def copy(self):
        return ReadoutModel(self.w1.copy(), self.w2.copy())


def presoftmax(model, x):
    """The linear map itself: x @ W1 @ W2 (single vector or batch)."""
    return np.asarray(x, dtype=float) @ model.w1 @ model.w2


def softmax(z):
    z = np.asarray(z, dtype=float)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def forward(model, probs):
    """Class probabilities of one reservoir output (or a batch)."""
    return softmax(presoftmax(model, probs))


def predict(model, x):
    return np.argmax(presoftmax(model, x), axis=-1)


def accuracy(model, x, y):
    return float(np.mean(predict(model, x) == np.asarray(y)))


def loss_and_gradients(model, x, y):
    """Mean cross-entropy over the batch and its exact gradients."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=int)
    n = x.shape[0]
    hidden = x @ model.w1
    probs = softmax(hidden @ model.w2)
    loss = float(-np.mean(np.log(np.clip(probs[np.arange(n), y], 1e-12, None))))
    dz = probs.copy()
    dz[np.arange(n), y] -= 1.0
    dz /= n
    dw2 = hidden.T @ dz
    dw1 = x.T @ (dz @ model.w2.T)
    return loss, dw1, dw2


@dataclass
class TrainResult:
    model: ReadoutModel
    losses: list = field(default_factory=list)
    train_accuracy: float = None
    test_accuracy: float = None


def train(model, data, epochs=15, lr=0.05, seed=0, batch_size=32,
          test_data=None):
    """Mini-batch SGD on cross-entropy; deterministic given seed.

    `data` and `test_data` are (X, y) pairs: feature rows and class
    indices.  Returns the trained model together with per-epoch losses
    and final train/test accuracies.

    Raises FloatingPointError when training diverges: at the first
    non-finite batch loss, or when the last step leaves a non-finite
    weight.  Numpy's overflow and invalid-value warnings are silenced,
    so this error is the one report of a divergence.
    """
    x = np.asarray(data[0], dtype=float)
    y = np.asarray(data[1], dtype=int)
    if x.shape[0] == 0:
        raise ValueError("training data must be non-empty")
    model = model.copy()
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    losses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, epochs + 1):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for lo in range(0, n, batch_size):
                batch = order[lo : lo + batch_size]
                loss, dw1, dw2 = loss_and_gradients(model, x[batch], y[batch])
                if not math.isfinite(loss):
                    raise FloatingPointError(
                        f"the readout diverged: batch loss {loss} in "
                        f"epoch {epoch}")
                model.w1 -= lr * dw1
                model.w2 -= lr * dw2
                epoch_loss += loss * len(batch)
            losses.append(epoch_loss / n)
        if not (np.isfinite(model.w1).all() and np.isfinite(model.w2).all()):
            raise FloatingPointError(
                "the readout diverged: a weight is not finite after the "
                "last step")
        result = TrainResult(model, losses,
                             train_accuracy=accuracy(model, x, y))
        if test_data is not None:
            result.test_accuracy = accuracy(model, *test_data)
    return result


# ---------------------------------------------------------------------------
# IDX digit files

def _read_idx(path, expected_magic):
    data = Path(path).read_bytes()
    if len(data) < 4:
        raise DataError(f"{path}: truncated header")
    magic = int.from_bytes(data[:4], "big")
    if magic != expected_magic:
        raise DataError(
            f"{path}: bad magic 0x{magic:08x}, expected 0x{expected_magic:08x}"
        )
    ndim = magic & 0xFF
    header_end = 4 + 4 * ndim
    if len(data) < header_end:
        raise DataError(f"{path}: truncated dimension header")
    dims = [
        int.from_bytes(data[4 + 4 * i : 8 + 4 * i], "big") for i in range(ndim)
    ]
    count = int(np.prod(dims))
    payload = np.frombuffer(data, dtype=np.uint8, offset=header_end)
    if payload.size != count:
        raise DataError(
            f"{path}: payload holds {payload.size} bytes, header says {count}"
        )
    return payload.reshape(dims)


def read_idx_images(path):
    """Big-endian IDX image file (magic 0x00000803) -> (n, rows, cols)."""
    return _read_idx(path, IMAGE_MAGIC)


def read_idx_labels(path):
    """Big-endian IDX label file (magic 0x00000801) -> (n,)."""
    return _read_idx(path, LABEL_MAGIC)


def crop_center(images):
    """28x28 frames -> 18x12 centre crops (rows 5..22, columns 8..19)."""
    images = np.asarray(images)
    if images.shape[-2:] != (28, 28):
        raise DataError(f"expected 28x28 frames, got {images.shape[-2:]}")
    return images[..., CROP_ROWS, CROP_COLS]


@dataclass
class MnistSubset:
    train_images: np.ndarray  # (n_train, 18, 12), in [0, 1]
    train_labels: np.ndarray  # class indices into the loaded digits
    test_images: np.ndarray
    test_labels: np.ndarray


def _select_balanced(labels, wanted_total, digits, rng):
    """Indices with near-even per-digit counts (difference at most 1)."""
    per = wanted_total // len(digits)
    extra = wanted_total - per * len(digits)
    chosen = []
    for j, digit in enumerate(digits):
        pool = np.flatnonzero(labels == digit)
        want = per + (1 if j < extra else 0)
        if pool.size < want:
            raise DataError(
                f"digit {digit}: need {want} examples, file has {pool.size}"
            )
        chosen.append(rng.choice(pool, size=want, replace=False))
    return np.concatenate(chosen)


def load_mnist(data_dir, digits=(0, 3, 8), n_train=1000, n_test=1000,
               seed=0):
    """Load the digit subset from the four standard IDX files in
    `data_dir`.  Train and test are drawn from their separate files
    (disjoint by construction); the test split is balanced across the
    digits.  Pixels are scaled to [0, 1]; labels become indices into
    `digits`.
    """
    root = Path(data_dir)
    paths = {
        "train_images": root / TRAIN_IMAGES,
        "train_labels": root / TRAIN_LABELS,
        "test_images": root / TEST_IMAGES,
        "test_labels": root / TEST_LABELS,
    }
    for key, p in paths.items():
        if not p.exists():
            raise DataError(f"missing dataset file for {key}: {p}")
    digits = tuple(digits)
    rng = np.random.default_rng(seed)

    def _load(img_path, lab_path, total, balanced):
        images = read_idx_images(img_path)
        labels = read_idx_labels(lab_path)
        if images.shape[0] != labels.shape[0]:
            raise DataError("image and label counts disagree")
        keep = np.isin(labels, digits)
        images, labels = images[keep], labels[keep]
        if balanced:
            idx = _select_balanced(labels, total, digits, rng)
        else:
            if images.shape[0] < total:
                raise DataError(
                    f"need {total} examples, files hold {images.shape[0]}"
                )
            idx = rng.choice(images.shape[0], size=total, replace=False)
        idx = np.sort(idx)
        cropped = crop_center(images[idx]).astype(float) / 255.0
        classes = np.array([digits.index(d) for d in labels[idx]], dtype=int)
        return cropped, classes

    train_x, train_y = _load(paths["train_images"], paths["train_labels"],
                             n_train, balanced=False)
    test_x, test_y = _load(paths["test_images"], paths["test_labels"],
                           n_test, balanced=True)
    return MnistSubset(train_x, train_y, test_x, test_y)


def columns_as_sequence(image):
    """Left-to-right column vectors of an 18x12 image."""
    image = np.asarray(image)
    if image.shape != _CROP_SHAPE:
        raise ValueError("expected an {}x{} image, got {}".format(
            *_CROP_SHAPE, image.shape))
    return [image[:, j] for j in range(image.shape[1])]


# ---------------------------------------------------------------------------
# task pipelines

def to_readout_features(probs):
    """Rescale measured distributions to occupancy relative to uniform
    (entries average 1).  Keeps the readout exactly linear while giving
    SGD gradients a sensible scale; a d-dimensional probability vector
    has entries ~1/d, far below what lr ~ 0.05 can train on."""
    probs = np.asarray(probs, dtype=float)
    return probs * probs.shape[-1]


def standardize(reference, *arrays):
    """Per-feature affine standardization using `reference` statistics.

    The readout model itself stays bias-free and linear; this is input
    preprocessing, fitted on the training features only.  Returns the
    standardized reference followed by the other arrays.
    """
    reference = np.asarray(reference, dtype=float)
    mu = reference.mean(axis=0)
    sd = reference.std(axis=0) + 1e-9
    out = [(reference - mu) / sd]
    out.extend((np.asarray(a, dtype=float) - mu) / sd for a in arrays)
    return out if len(out) > 1 else out[0]


def encode_columns(image, basis, encoding=QUANTUM):
    """Encode an image's columns as a reservoir input sequence."""
    cols = columns_as_sequence(image)
    if encoding == QUANTUM:
        return [amplitude_encode(c, basis) for c in cols]
    if encoding == COHERENT:
        # only an all-zero column takes the amplitude zero-vector fallback
        return [coherent_encode(c, basis) if c.any()
                else amplitude_encode(c, basis) for c in cols]
    raise ValueError(f"unknown encoding {encoding!r}")


def image_features(reservoir, images, encoding=QUANTUM):
    """Final reservoir distribution for every image (columns fed
    left to right, one fresh reservoir run per image).
    Rows are raw probability vectors; rescale with to_readout_features
    (and standardize) before training."""
    rows = []
    for image in images:
        seq = encode_columns(image, reservoir.basis, encoding)
        rows.append(reservoir.run_sequence(seq))
    return np.stack(rows)


def build_entanglement_dataset(n_per_class, d_loc=12, seed=0, basis=None):
    """Balanced entangled/separable pure states, shuffled.

    Returns (states, labels) with label 1 for the entangled class.
    Each state is meant to be shown to the reservoir as repeated copies
    (see state_features)."""
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    rng = np.random.default_rng(seed)
    states, labels = [], []
    for _ in range(n_per_class):
        states.append(sample_entangled(d_loc, rng.integers(2**32), basis))
        labels.append(1)
        states.append(sample_separable(d_loc, rng.integers(2**32), basis))
        labels.append(0)
    order = rng.permutation(len(states))
    states = [states[i] for i in order]
    labels = np.array(labels, dtype=int)[order]
    return states, labels


def write_features_csv(path, probs, labels):
    """Per-sequence probability vectors with labels, one row each."""
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels, dtype=int)
    width = probs.shape[1]
    row_format = "%d," + ",".join(["%.12g"] * width)
    lines = ["label," + ",".join(f"p{i}" for i in range(width))]
    lines.extend(row_format % (lab, *row)
                 for row, lab in zip(probs.tolist(), labels.tolist()))
    write_atomic(path, "\n".join(lines) + "\n")


def read_features_csv(path):
    """Inverse of write_features_csv: (probs, labels)."""
    try:
        with warnings.catch_warnings():  # a file without rows is an error
            warnings.filterwarnings("error", "genfromtxt: Empty input file")
            data = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
    except UserWarning:
        raise DataError(f"{path}: no feature rows")
    except (OSError, ValueError) as exc:  # ValueError: ragged rows
        raise DataError(f"cannot read features: {exc}")
    if data.shape[1] < 2 or not np.all(np.isfinite(data)):
        raise DataError(f"{path}: malformed features file")
    if np.any(data[:, 0] != np.round(data[:, 0])):
        raise DataError(f"{path}: labels must be whole numbers")
    return data[:, 1:], data[:, 0].astype(int)


def state_features(reservoir, states, copies=100):
    """Final reservoir distribution after `copies` repeats of each
    state, one fresh reservoir run per state."""
    rows = []
    for state in states:
        seq = [EncodedInput(state)] * copies
        rows.append(reservoir.run_sequence(seq))
    return np.stack(rows)
