import struct

import numpy as np
import pytest

from qumem import _atomic
from qumem.readout import (
    DataError,
    read_features_csv,
    write_features_csv,
    ReadoutModel,
    build_entanglement_dataset,
    columns_as_sequence,
    crop_center,
    encode_columns,
    forward,
    load_mnist,
    loss_and_gradients,
    presoftmax,
    read_idx_images,
    read_idx_labels,
    to_readout_features,
    train,
)


# ---------------------------------------------------------------------------
# model basics

def test_forward_zero_weights_uniform():
    model = ReadoutModel(np.zeros((5, 4)), np.zeros((4, 3)))
    out = forward(model, np.array([0.2, 0.2, 0.2, 0.2, 0.2]))
    assert np.allclose(out, 1.0 / 3.0)


def test_forward_shift_invariance():
    rng = np.random.default_rng(0)
    model = ReadoutModel(rng.normal(size=(6, 4)), rng.normal(size=(4, 3)))
    x = rng.uniform(size=6)
    z = presoftmax(model, x)
    direct = forward(model, x)
    shifted = np.exp(z + 7.3) / np.exp(z + 7.3).sum()
    assert np.allclose(direct, shifted, atol=1e-12)


def test_forward_outputs_probabilities():
    rng = np.random.default_rng(1)
    model = ReadoutModel(rng.normal(size=(8, 5)), rng.normal(size=(5, 3)))
    x = rng.uniform(size=(10, 8))
    out = forward(model, x)
    assert np.all(out > 0)
    assert np.allclose(out.sum(axis=1), 1.0)
    assert np.array_equal(np.argmax(out, axis=1),
                          np.argmax(presoftmax(model, x), axis=1))


def test_presoftmax_is_linear():
    rng = np.random.default_rng(2)
    model = ReadoutModel(rng.normal(size=(7, 4)), rng.normal(size=(4, 3)))
    x, y = rng.uniform(size=7), rng.uniform(size=7)
    a, b = 0.7, -1.3
    assert np.allclose(
        presoftmax(model, a * x + b * y),
        a * presoftmax(model, x) + b * presoftmax(model, y),
        atol=1e-10,
    )


def test_parameter_count_matches_reported_scale():
    model = ReadoutModel.initialize(165, 10, 3)
    assert model.n_parameters == 1680


# ---------------------------------------------------------------------------
# gradients

def test_gradients_match_central_differences():
    rng = np.random.default_rng(3)
    worst = 0.0
    h = 1e-6
    for _ in range(100):
        n_in, n_hidden, n_out = 7, 4, 3
        model = ReadoutModel(
            rng.normal(size=(n_in, n_hidden)), rng.normal(size=(n_hidden, n_out))
        )
        x = rng.uniform(size=(5, n_in))
        y = rng.integers(0, n_out, size=5)
        loss, dw1, dw2 = loss_and_gradients(model, x, y)
        for mat, grad in ((model.w1, dw1), (model.w2, dw2)):
            idx = (rng.integers(mat.shape[0]), rng.integers(mat.shape[1]))
            orig = mat[idx]
            mat[idx] = orig + h
            up = loss_and_gradients(model, x, y)[0]
            mat[idx] = orig - h
            dn = loss_and_gradients(model, x, y)[0]
            mat[idx] = orig
            numeric = (up - dn) / (2 * h)
            scale = max(abs(numeric), abs(grad[idx]), 1e-8)
            worst = max(worst, abs(numeric - grad[idx]) / scale)
    assert worst <= 1e-5


def toy_clusters(n_per_class=60, seed=0):
    """Three well-separated clusters near the simplex corners."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
    xs, ys = [], []
    for label, c in enumerate(centers):
        pts = c + 0.03 * rng.normal(size=(n_per_class, 3))
        xs.append(np.clip(pts, 1e-3, None))
        ys.append(np.full(n_per_class, label))
    return np.vstack(xs), np.concatenate(ys)


def test_training_separates_toy_clusters():
    x, y = toy_clusters()
    rng = np.random.default_rng(1)
    model = ReadoutModel(0.1 * rng.standard_normal((3, 5)),
                         0.1 * rng.standard_normal((5, 3)))
    result = train(model, (x, y), epochs=50, lr=0.5, seed=1)
    assert result.train_accuracy >= 0.99


def test_training_loss_non_increasing_at_small_lr():
    x, y = toy_clusters()
    rng = np.random.default_rng(2)
    model = ReadoutModel(0.1 * rng.standard_normal((3, 5)),
                         0.1 * rng.standard_normal((5, 3)))
    result = train(model, (x, y), epochs=30, lr=0.01, seed=2, batch_size=len(y))
    diffs = np.diff(result.losses)
    assert np.all(diffs <= 1e-6)


def test_zero_learning_rate_keeps_model():
    x, y = toy_clusters(10)
    model = ReadoutModel.initialize(3, 4, 3, seed=3)
    result = train(model, (x, y), epochs=3, lr=0.0, seed=3)
    assert np.array_equal(result.model.w1, model.w1)
    assert np.array_equal(result.model.w2, model.w2)


def test_training_deterministic():
    x, y = toy_clusters(20)
    model = ReadoutModel.initialize(3, 4, 3, seed=4)
    r1 = train(model, (x, y), epochs=5, lr=0.1, seed=9)
    r2 = train(model, (x, y), epochs=5, lr=0.1, seed=9)
    assert np.array_equal(r1.model.w1, r2.model.w1)
    assert r1.losses == r2.losses


def test_train_rejects_empty_data():
    model = ReadoutModel.initialize(3, 4, 3)
    with pytest.raises(ValueError):
        train(model, (np.zeros((0, 3)), np.zeros(0, dtype=int)))


def test_train_raises_at_the_first_non_finite_batch_loss(recwarn):
    x, y = toy_clusters(10)
    model = ReadoutModel.initialize(3, 4, 3, seed=5)
    with pytest.raises(FloatingPointError, match="batch loss nan in epoch 1"):
        train(model, (x, y), epochs=3, lr=1e300, seed=5, batch_size=4)
    assert [str(w.message) for w in recwarn] == []


def test_train_raises_when_the_last_step_leaves_an_infinite_weight(recwarn):
    # one finite batch loss, then a step of 1e300 times a gradient of
    # order 1e10 overflows the weights
    x, y = toy_clusters(2)
    model = ReadoutModel.initialize(3, 4, 3, seed=6)
    with pytest.raises(FloatingPointError, match="after the last step"):
        train(model, (1e10 * x, y), epochs=1, lr=1e300, seed=6,
              batch_size=len(y))
    assert [str(w.message) for w in recwarn] == []


# ---------------------------------------------------------------------------
# IDX files

def write_idx_images(path, images):
    images = np.asarray(images, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">iiii", 0x00000803, *images.shape))
        fh.write(images.tobytes())


def write_idx_labels(path, labels):
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">ii", 0x00000801, labels.shape[0]))
        fh.write(labels.tobytes())


@pytest.fixture
def synthetic_mnist_dir(tmp_path):
    """IDX files with digit-dependent pixel patterns, big enough for a
    30 train / 30 test split over digits {0, 3, 8}."""
    rng = np.random.default_rng(12)
    def make(n):
        labels = rng.integers(0, 10, size=n).astype(np.uint8)
        images = np.zeros((n, 28, 28), dtype=np.uint8)
        for i, lab in enumerate(labels):
            images[i, 5 + lab % 18, :] = 200
            images[i, :, 8 + lab % 12] = 150
        return images, labels

    tr_imgs, tr_labels = make(400)
    te_imgs, te_labels = make(400)
    write_idx_images(tmp_path / "train-images-idx3-ubyte", tr_imgs)
    write_idx_labels(tmp_path / "train-labels-idx1-ubyte", tr_labels)
    write_idx_images(tmp_path / "t10k-images-idx3-ubyte", te_imgs)
    write_idx_labels(tmp_path / "t10k-labels-idx1-ubyte", te_labels)
    return tmp_path


def test_read_idx_label_file(tmp_path):
    path = tmp_path / "labels"
    write_idx_labels(path, np.arange(10) % 3)
    labels = read_idx_labels(path)
    assert labels.shape == (10,)
    assert labels[4] == 1


def test_read_idx_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad"
    with open(path, "wb") as fh:
        fh.write(struct.pack(">ii", 0x00000777, 3))
        fh.write(bytes(3))
    with pytest.raises(DataError):
        read_idx_labels(path)


def test_read_idx_rejects_truncation(tmp_path):
    path = tmp_path / "short"
    with open(path, "wb") as fh:
        fh.write(struct.pack(">iiii", 0x00000803, 5, 28, 28))
        fh.write(bytes(28 * 28 * 2))  # only two of five images
    with pytest.raises(DataError):
        read_idx_images(path)


def test_crop_center_all_ones():
    ones = np.ones((3, 28, 28))
    cropped = crop_center(ones)
    assert cropped.shape == (3, 18, 12)
    assert np.all(cropped == 1.0)


def test_crop_center_window_location():
    frame = np.zeros((28, 28))
    frame[5:23, 8:20] = 1.0
    assert np.all(crop_center(frame) == 1.0)
    frame2 = np.zeros((28, 28))
    frame2[4, :] = 9.0  # one row above the crop window
    assert np.all(crop_center(frame2) == 0.0)


def test_load_mnist_subset(synthetic_mnist_dir):
    subset = load_mnist(synthetic_mnist_dir, digits=(0, 3, 8),
                        n_train=30, n_test=30, seed=0)
    assert subset.train_images.shape == (30, 18, 12)
    assert subset.test_images.shape == (30, 18, 12)
    assert subset.train_images.max() <= 1.0
    assert set(subset.train_labels) <= {0, 1, 2}
    counts = np.bincount(subset.test_labels, minlength=3)
    assert counts.max() - counts.min() <= 1  # balanced test split


def test_load_mnist_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_mnist(tmp_path)


def test_load_mnist_count_shortfall(synthetic_mnist_dir):
    with pytest.raises(DataError):
        load_mnist(synthetic_mnist_dir, n_train=30, n_test=4000)


# ---------------------------------------------------------------------------
# sequences and datasets

def test_readout_features_are_occupancy_relative_to_uniform():
    """Each row is its distribution times its width d, so its entries
    average 1: a lone distribution and a matrix of them."""
    rng = np.random.default_rng(4)
    for probs in (rng.dirichlet(np.ones(165)),
                  rng.dirichlet(np.ones(12), size=5)):
        features = to_readout_features(probs)
        assert np.array_equal(features, probs * probs.shape[-1])
        assert np.all(np.abs(features.mean(axis=-1) - 1.0) <= 1e-15)


def test_features_csv_roundtrip(tmp_path):
    """The CSV is the header label,p0,p1,... and one row per sequence:
    its label, then every probability as "%.12g", each line ended by
    "\n".  Signed zeros, non-finite values and an empty table included;
    reading the file back gives the table."""
    rng = np.random.default_rng(9)
    probs = rng.dirichlet(np.ones(165), size=7)
    labels = rng.integers(0, 3, size=7)
    path = tmp_path / "features.csv"
    write_features_csv(path, probs, labels)
    probs2, labels2 = read_features_csv(path)
    assert np.allclose(probs2, probs, atol=1e-10)
    assert np.array_equal(labels2, labels)
    cases = [
        (probs, labels),
        (np.array([[0.0, -0.0, 1e-300, 123456789012345.0],
                   [1 / 3, np.inf, -np.inf, np.nan]]), np.array([-1, 12])),
        (np.zeros((0, 4)), np.zeros(0, dtype=int)),
    ]
    for k, (table, labs) in enumerate(cases):
        path = tmp_path / f"case{k}.csv"
        write_features_csv(path, table, labs)
        header, *lines, end = path.read_bytes().decode().split("\n")
        width = table.shape[1]
        assert header == "label," + ",".join(f"p{i}" for i in range(width))
        assert end == ""
        assert [line.split(",") for line in lines] == [
            [str(lab)] + ["%.12g" % v for v in row]
            for row, lab in zip(table.tolist(), labs.tolist())]


def test_failed_features_write_leaves_no_partial_or_temp_file(
        tmp_path, monkeypatch):
    probs, labels = np.full((3, 4), 0.25), np.array([0, 1, 2])
    kept = tmp_path / "kept.csv"
    kept.write_text("old")
    fresh = tmp_path / "fresh.csv"

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(_atomic.os, "replace", fail)
    for path in (kept, fresh):
        with pytest.raises(OSError):
            write_features_csv(path, probs, labels)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv"]
    assert kept.read_text() == "old"


def test_features_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,p0\n1,notanumber\n")
    with pytest.raises(DataError):
        read_features_csv(path)


def test_features_csv_rejects_label_only_rows(tmp_path):
    # one column per row: labels without features, however many rows
    for text in ("label\n0\n", "label\n0\n1\n2\n"):
        path = tmp_path / "labels.csv"
        path.write_text(text)
        with pytest.raises(DataError, match="malformed features file"):
            read_features_csv(path)


@pytest.mark.parametrize("text", ["label,p0\n", "label,p0\n\n", ""],
                         ids=["header-only", "blank-row", "empty"])
def test_features_csv_without_rows_raises_without_warning(tmp_path, recwarn,
                                                          text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(DataError, match="no feature rows"):
        read_features_csv(path)
    assert [str(w.message) for w in recwarn] == []


def test_columns_as_sequence():
    rng = np.random.default_rng(5)
    image = rng.uniform(size=(18, 12))
    cols = columns_as_sequence(image)
    assert len(cols) == 12
    assert all(c.shape == (18,) for c in cols)
    assert np.allclose(cols[3], image[:, 3])
    with pytest.raises(ValueError):
        columns_as_sequence(image.T)


def test_columns_constant_image_identical():
    cols = columns_as_sequence(np.full((18, 12), 0.25))
    assert all(np.array_equal(cols[0], c) for c in cols)


def test_columns_orientation_matters():
    rng = np.random.default_rng(6)
    image = rng.uniform(size=(18, 12))
    cols = columns_as_sequence(image)
    transposed_first_row = np.pad(image[0, :], (0, 6))
    assert not np.allclose(cols[0], transposed_first_row)


def test_encode_columns_handles_blank_column():
    from qumem.fock import enumerate_basis

    basis = enumerate_basis(9, 3)
    image = np.zeros((18, 12))
    image[:, 5] = 0.7
    seq_q = encode_columns(image, basis, "quantum")
    assert len(seq_q) == 12
    assert seq_q[0].zero_fallback
    assert not seq_q[5].zero_fallback
    seq_c = encode_columns(image, basis, "coherent")
    assert len(seq_c) == 12
    # only the blank columns fall back; the others are mixtures
    assert [x.zero_fallback for x in seq_c] == [j != 5 for j in range(12)]
    assert [x.weights is None for x in seq_c] == [j != 5 for j in range(12)]


@pytest.mark.parametrize("column", [
    [-1.0] * 17 + [0.5],     # sum <= 0
    [0.5] * 17 + [-0.1],     # sum > 0
], ids=["non-positive-sum", "positive-sum"])
def test_encode_columns_coherent_rejects_negative_columns(column):
    """A column with a negative entry is no mixture, whatever its sum:
    only an all-zero column takes the amplitude fallback."""
    from qumem.fock import enumerate_basis

    image = np.full((18, 12), 0.25)
    image[:, 0] = column
    with pytest.raises(ValueError, match="non-negative"):
        encode_columns(image, enumerate_basis(9, 3), "coherent")


def test_entanglement_dataset_balanced_and_reproducible():
    from qumem.fock import enumerate_basis

    basis = enumerate_basis(9, 3)
    states, labels = build_entanglement_dataset(25, 12, seed=3, basis=basis)
    assert len(states) == 50
    assert labels.sum() == 25
    states2, labels2 = build_entanglement_dataset(25, 12, seed=3, basis=basis)
    assert np.array_equal(labels, labels2)
    assert np.allclose(states[0].amplitudes, states2[0].amplitudes)
    # labels actually mark the entangled class
    for state, label in zip(states[:10], labels[:10]):
        # Schmidt rank one: the leading normalised singular value is 1
        svals = np.linalg.svd(state.amplitudes[:144].reshape(12, 12),
                              compute_uv=False)
        rank_one = svals[0] / np.linalg.norm(svals) > 1.0 - 1e-9
        assert rank_one == (label == 0)
