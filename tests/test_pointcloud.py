import re
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pointcl import pointcloud as pcm
from pointcl.pointcloud import (PointCloud, SyntheticSpec, ParseError,
                                generate_synthetic_dataset, load_dataset,
                                sample_points, sample_stack, save_dataset)

from oracles import (REFERENCE_SHAPES, reference_gen_cube, reference_sample_stack,
                     reference_synthetic_dataset)


def normalize(points):
    """_normalize_stack of one cloud, on a float32 copy."""
    return pcm._normalize_stack(np.array(points, dtype=np.float32)[None])[0]


def test_normalize_symmetric_pair():
    out = normalize([[2, 0, 0], [-2, 0, 0]])
    assert np.allclose(sorted(out[:, 0]), [-1, 1])


def test_normalize_single_point_degenerate():
    out = normalize([[5, 5, 5]])
    assert np.allclose(out, 0.0)


def test_normalize_postconditions(rng):
    out = normalize(rng.normal(size=(50, 3)) * 7 + 3)
    norms = np.linalg.norm(out, axis=1)
    assert abs(norms.max() - 1.0) < 1e-6
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-6)


def test_normalize_idempotent(rng):
    once = normalize(rng.normal(size=(30, 3)))
    twice = normalize(once)
    assert np.allclose(once, twice, atol=1e-6)


def test_sample_exact_count_is_permutation(rng):
    p = PointCloud(points=rng.normal(size=(16, 3)))
    out = sample_points(p, 16, rng)
    assert sorted(map(tuple, out.points.tolist())) == sorted(map(tuple, p.points.tolist()))


def test_sample_upsamples_with_replacement(rng):
    p = PointCloud(points=[[0, 0, 0], [1, 1, 1]])
    out = sample_points(p, 4, rng)
    assert out.n == 4
    for pt in out.points:
        assert tuple(pt) in {(0, 0, 0), (1, 1, 1)}


def test_sample_seeded_reproducible(rng):
    p = PointCloud(points=np.random.default_rng(3).normal(size=(40, 3)))
    a = sample_points(p, 10, np.random.default_rng(7))
    b = sample_points(p, 10, np.random.default_rng(7))
    assert (a.points == b.points).all()


def test_sample_carries_labels(rng):
    p = PointCloud(points=rng.normal(size=(8, 3)),
                   point_labels=np.arange(8))
    out = sample_points(p, 4, rng)
    for pt, lab in zip(out.points, out.point_labels):
        assert (pt == p.points[lab]).all()


def _clouds(labeled, sizes=(5, 40, 64, 17, 64)):
    r = np.random.default_rng(0)
    return [PointCloud(points=r.normal(size=(n, 3)), class_label=i % 2,
                       point_labels=r.integers(0, 4, size=n) if labeled else None)
            for i, n in enumerate(sizes)]


@pytest.mark.parametrize("labeled", [True, False])
@pytest.mark.parametrize("n_out", [4, 16, 64, 100])
def test_sample_stack_matches_per_cloud_reference(labeled, n_out):
    """Down-, up- and mixed resampling, with the 64-point clouds copied
    when n_out is 64: the bytes of the per-cloud loop, and the same rng
    state after it."""
    clouds = _clouds(labeled)
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    points, labels = sample_stack(clouds, n_out, rng)
    ref_points, ref_labels = reference_sample_stack(clouds, n_out, ref_rng)
    assert points.dtype == np.float32 and points.shape == (len(clouds), n_out, 3)
    assert points.tobytes() == ref_points.tobytes()
    if labeled:
        assert labels.dtype == np.int64 and labels.shape == (len(clouds), n_out)
        assert labels.tobytes() == ref_labels.tobytes()
    else:
        assert labels is None and ref_labels is None
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("labeled", [True, False])
def test_sample_stack_copies_clouds_of_n_out_points(labeled):
    """Every cloud has n_out points: the stored bytes, in order, and no
    draw, so the rng is where a fresh generator of its seed is."""
    clouds = _clouds(labeled, sizes=(64, 64, 64))
    rng = np.random.default_rng(3)
    points, labels = sample_stack(clouds, 64, rng)
    assert points.tobytes() == np.stack([p.points for p in clouds]).tobytes()
    if labeled:
        assert labels.tobytes() == np.stack([p.point_labels for p in clouds]).tobytes()
    else:
        assert labels is None
    assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state


def test_sample_stack_labels_need_every_cloud_labeled():
    clouds = _clouds(True)
    clouds[2].point_labels = None
    points, labels = sample_stack(clouds, 8, np.random.default_rng(0))
    assert points.shape == (5, 8, 3) and labels is None


def test_sample_points_is_the_one_cloud_stack():
    p = _clouds(True)[1]
    q = sample_points(p, 24, np.random.default_rng(5))
    points, labels = sample_stack([p], 24, np.random.default_rng(5))
    assert np.array_equal(q.points, points[0]) and np.array_equal(q.point_labels, labels[0])
    assert (q.class_label, q.id) == (p.class_label, p.id)


def test_point_labels_length_checked():
    with pytest.raises(ValueError):
        PointCloud(points=np.zeros((3, 3)), point_labels=[0, 1])


def test_synthetic_sphere_unit_norms(rng):
    pts, _ = pcm._gen_sphere(4, 200, rng)
    assert np.allclose(np.linalg.norm(pts, axis=2), 1.0, atol=1e-3)


def test_synthetic_counts_balanced(rng):
    spec = SyntheticSpec(classes=["sphere", "cube", "cylinder", "torus"], per_class=50)
    ds = generate_synthetic_dataset(spec, rng)
    assert len(ds) == 200
    labels = [p.class_label for p in ds.samples]
    assert all(labels.count(c) == 50 for c in range(4))


def test_synthetic_cylinder_cap_labels(rng):
    pts, labels = pcm._gen_cylinder(4, 500, rng, half_height=1.0, radius=0.5)
    caps = pts[labels == 1]
    assert caps.shape[0] > 0
    assert np.allclose(np.abs(caps[:, 2]), 1.0, atol=1e-6)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_gen_cube_equals_per_point_loop(seed):
    pts, labels = pcm._gen_cube(3, 300, np.random.default_rng(seed))
    ref_rng = np.random.default_rng(seed)
    want_pts, want_labels = map(np.stack, zip(*(reference_gen_cube(300, ref_rng)
                                                for _ in range(3))))
    assert np.array_equal(pts, want_pts)
    assert np.array_equal(labels, want_labels)


@pytest.mark.parametrize("n", [1, 2, 17])
@pytest.mark.parametrize("count", [1, 5])
@pytest.mark.parametrize("name", list(pcm.SHAPE_CLASSES))
def test_class_builder_equals_reference_loop(name, count, n):
    """A class builder gives the bytes of count one-cloud reference calls
    stacked, and leaves the rng where they leave it, over several seeds.
    At n = 1 and 2 the cylinder's five clouds include ones with no caps and
    ones with all caps."""
    gen, nparts = pcm.SHAPE_CLASSES[name]
    ref_gen, ref_nparts = REFERENCE_SHAPES[name]
    assert nparts == ref_nparts
    cap_counts = set()
    for seed in range(8):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        pts, labels = gen(count, n, rng)
        want_pts, want_labels = map(np.stack, zip(*(ref_gen(n, ref_rng) for _ in range(count))))
        assert (pts.dtype, pts.shape) == (np.float64, (count, n, 3))
        assert (labels.dtype, labels.shape) == (np.int64, (count, n))
        assert pts.tobytes() == want_pts.tobytes()
        assert np.array_equal(labels, want_labels)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        cap_counts.update(labels.sum(axis=1).tolist())
    if name == "cylinder" and count == 5 and n < 17:
        assert {0, n} <= cap_counts


@pytest.mark.parametrize("with_parts", [False, True], ids=["no-parts", "parts"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_synthetic_dataset_equals_per_cloud_reference(seed, with_parts):
    """Stacked normalization gives the per-cloud construct-then-normalize
    bytes, and leaves the rng where the per-cloud draws leave it, for every
    class, across successive datasets drawn from one rng: one-point clouds
    (the r = 0 branch) too."""
    specs = [(list(pcm.SHAPE_CLASSES), 6, 64), (["torus", "cube", "cylinder", "sphere"], 30, 17),
             (list(pcm.SHAPE_CLASSES), 3, 1)]
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for classes, per_class, points in specs:
        ds = generate_synthetic_dataset(
            SyntheticSpec(classes, per_class, points, with_parts=with_parts), rng)
        want, want_parts = reference_synthetic_dataset(classes, per_class, points,
                                                       with_parts, ref_rng)
        assert len(ds) == len(want) == len(classes) * per_class
        assert ds.parts_per_class == want_parts
        assert ds.num_parts == (sum(pcm.SHAPE_CLASSES[c][1] for c in classes)
                                if with_parts else 0)
        for got, (pts, cls, labels, sid) in zip(ds.samples, want):
            assert (got.points.dtype, got.points.shape) == (np.float32, pts.shape)
            assert got.points.tobytes() == pts.tobytes()
            assert (got.class_label, got.id) == (cls, sid)
            if labels is None:
                assert got.point_labels is None
            else:
                assert got.point_labels.dtype == np.int64
                assert np.array_equal(got.point_labels, labels)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_synthetic_zero_points_raises_without_warning():
    """An empty spec fails when it is made, before any draw."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for args, message in [((["sphere"], 2, 0), "points_per_cloud must be >= 1, got 0"),
                              ((["sphere"], 0, 2), "per_class must be >= 1, got 0"),
                              ((["sphere"], -1, 2), "per_class must be >= 1, got -1"),
                              (([], 2, 2), "classes must name at least one class")]:
            with pytest.raises(ValueError, match=re.escape(message)):
                SyntheticSpec(*args)


def test_synthetic_unknown_class(rng):
    with pytest.raises(ValueError):
        generate_synthetic_dataset(SyntheticSpec(classes=["pyramid"]), rng)


def test_synthetic_classes_geometrically_separable(rng):
    """A fixed handcrafted statistic separates classes, the premise behind
    the probe-improvement acceptance check."""
    spec = SyntheticSpec(classes=["sphere", "cube", "cylinder", "torus"],
                         per_class=20, points_per_cloud=256)
    ds = generate_synthetic_dataset(spec, rng)

    def stat(p):
        norms = np.linalg.norm(p.points, axis=1)
        return (norms.mean(), norms.std())

    per_class = {}
    for p in ds.samples:
        per_class.setdefault(p.class_label, []).append(stat(p))
    centers = {c: np.mean(v, axis=0) for c, v in per_class.items()}
    # nearest-center assignment on the statistic is near-perfect
    correct = 0
    for p in ds.samples:
        s = np.array(stat(p))
        pred = min(centers, key=lambda c: np.linalg.norm(s - centers[c]))
        correct += pred == p.class_label
    assert correct / len(ds) > 0.9


def test_binary_round_trip(tmp_path, seg_dataset):
    path = tmp_path / "ds.pcds"
    save_dataset(seg_dataset, path)
    back = load_dataset(path)
    assert len(back) == len(seg_dataset)
    assert back.num_classes == seg_dataset.num_classes
    assert back.num_parts == seg_dataset.num_parts
    for a, b in zip(seg_dataset.samples, back.samples):
        assert (a.points == b.points).all()
        assert a.class_label == b.class_label
        assert (a.point_labels == b.point_labels).all()
        assert a.id == b.id


def test_binary_truncated_names_offset(tmp_path, small_dataset):
    path = tmp_path / "ds.pcds"
    save_dataset(small_dataset, path)
    blob = path.read_bytes()
    (tmp_path / "cut.pcds").write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ParseError) as ei:
        load_dataset(tmp_path / "cut.pcds")
    assert "byte offset" in str(ei.value)


def test_failed_save_keeps_previous_file(tmp_path, seg_dataset):
    path = tmp_path / "ds.pcds"
    save_dataset(seg_dataset, path)
    before = path.read_bytes()
    unlabeled = PointCloud(points=seg_dataset[1].points, class_label=0, id=1)
    bad = pcm.Dataset(samples=[seg_dataset[0], unlabeled],
                      num_classes=seg_dataset.num_classes, num_parts=seg_dataset.num_parts)
    with pytest.raises(ValueError, match="no point labels"):
        save_dataset(bad, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.pcds"]
    assert len(load_dataset(path)) == len(seg_dataset)


@pytest.mark.parametrize("change, message", [
    ({"label": 99}, "sample 0: point label 99 out of range"),
    ({"label": -1}, "sample 0: point label -1 out of range"),
    ({"class_label": 7}, "sample 0: class 7 out of range"),
    ({"class_label": -1}, "sample 0: class -1 out of range"),
    ({"id": -2}, "sample -2: id -2 out of range"),
], ids=["label-too-large", "label-negative", "class-too-large", "class-negative",
        "id-negative"])
def test_save_rejects_what_load_would(tmp_path, seg_dataset, change, message):
    """A sample that the file cannot hold, or that load_dataset would reject,
    fails the save before the file is opened: no file, no .tmp."""
    change, first = dict(change), seg_dataset[0]
    labels = first.point_labels.copy()
    labels[3] = change.pop("label", labels[3])
    bad = replace(seg_dataset, samples=[replace(first, point_labels=labels, **change)]
                  + seg_dataset.samples[1:])
    with pytest.raises(ValueError, match=re.escape(message)):
        save_dataset(bad, tmp_path / "ds.pcds")
    assert list(tmp_path.iterdir()) == []


def test_binary_bad_magic(tmp_path):
    (tmp_path / "bad.pcds").write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ParseError):
        load_dataset(tmp_path / "bad.pcds")


@pytest.mark.parametrize("coords", [[[0.0, np.nan, 0.0]], [[np.inf, 0.0, 0.0]], []],
                         ids=["nan", "inf", "no-points"])
def test_binary_bad_sample_names_file_and_sample(tmp_path, coords):
    """A NaN or inf coordinate or a sample without points is a corrupt file:
    a ParseError naming the path and the sample id."""
    coords = np.array(coords, dtype="<f4").reshape(-1, 3)
    path = tmp_path / "bad.pcds"
    path.write_bytes(b"PCDS" + struct.pack("<HIHHHH", 3, 2, 1, 0, 0, 0)
                     + struct.pack("<IHI", 7, 0, 1) + bytes(12)
                     + struct.pack("<IHI", 9, 0, len(coords)) + coords.tobytes())
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: sample 9: "):
        load_dataset(path)


def test_reload_preserves_order(tmp_path, small_dataset):
    path = tmp_path / "ds.pcds"
    save_dataset(small_dataset, path)
    back = load_dataset(path)
    assert [p.id for p in back.samples] == [p.id for p in small_dataset.samples]


def test_binary_round_trip_keeps_parts_map(tmp_path, seg_dataset):
    path = tmp_path / "ds.pcds"
    save_dataset(seg_dataset, path)
    assert seg_dataset.parts_per_class
    assert load_dataset(path).parts_per_class == seg_dataset.parts_per_class


def test_binary_version_1_rejected(tmp_path, seg_dataset):
    save_dataset(seg_dataset, tmp_path / "v3.pcds")
    blob = (tmp_path / "v3.pcds").read_bytes()
    (tmp_path / "v1.pcds").write_bytes(blob[:4] + struct.pack("<H", 1) + blob[6:])
    with pytest.raises(ParseError, match="unsupported version 1"):
        load_dataset(tmp_path / "v1.pcds")


def test_binary_version_2_rejected(tmp_path, seg_dataset):
    """Version 2 had no split: its bytes, the header without the split."""
    save_dataset(seg_dataset, tmp_path / "v3.pcds")
    blob = (tmp_path / "v3.pcds").read_bytes()
    n = len(seg_dataset.split) + 2
    (tmp_path / "v2.pcds").write_bytes(blob[:4] + struct.pack("<H", 2) + blob[6:14]
                                       + blob[14 + n:])
    with pytest.raises(ParseError, match="unsupported version 2"):
        load_dataset(tmp_path / "v2.pcds")


@pytest.mark.parametrize("split", ["train", "test", "", "välid"],
                         ids=["train", "test", "empty", "non-ascii"])
def test_binary_round_trip_keeps_split(tmp_path, small_dataset, split):
    save_dataset(replace(small_dataset, split=split), tmp_path / "ds.pcds")
    assert load_dataset(tmp_path / "ds.pcds").split == split


def test_binary_parts_map_out_of_range(tmp_path, seg_dataset):
    """A file whose parts map names a part >= num_parts; save_dataset will
    not write one, so class 0's second part is patched in the bytes."""
    save_dataset(seg_dataset, tmp_path / "ds.pcds")
    blob = bytearray((tmp_path / "ds.pcds").read_bytes())
    assert seg_dataset.parts_per_class[0] == [0, 1]
    # magic, version, header, split, map class count, class 0 and its part count, part 0
    at = 4 + 2 + 8 + 2 + len(seg_dataset.split.encode()) + 2 + 4 + 2
    blob[at:at + 2] = struct.pack("<H", seg_dataset.num_parts)
    (tmp_path / "bad.pcds").write_bytes(bytes(blob))
    with pytest.raises(ParseError, match="parts map"):
        load_dataset(tmp_path / "bad.pcds")


@pytest.mark.parametrize("change, message", [
    ({"parts_per_class": {0: [0, 5]}}, "parts map: class 0: part 5 out of range [0, 2)"),
    ({"parts_per_class": {3: [0, 1]}}, "parts map: class 3 out of range [0, 1)"),
    ({"parts_per_class": {0: [-1, 1]}}, "parts map: class 0: part -1 out of range [0, 2)"),
    ({"num_classes": 70000}, "num_classes 70000 out of range [0, 65536)"),
    ({"num_parts": 1 << 16}, "num_parts 65536 out of range [0, 65536)"),
], ids=["part-too-large", "class-too-large", "part-negative", "num-classes-u16",
        "num-parts-u16"])
def test_save_rejects_a_header_or_parts_map_it_cannot_write(tmp_path, seg_dataset,
                                                            change, message):
    """One class of valid clouds (parts 0 and 1) with one bad header field
    or parts-map entry: the save raises before the file is opened and
    leaves no file and no .tmp. Unchanged, the same set saves and loads."""
    good = pcm.Dataset(samples=seg_dataset.samples[:10], num_classes=1, num_parts=2,
                       parts_per_class={0: [0, 1]})
    assert {p.class_label for p in good.samples} == {0}
    with pytest.raises(ValueError, match=re.escape(message)):
        save_dataset(replace(good, **change), tmp_path / "ds.pcds")
    assert list(tmp_path.iterdir()) == []
    save_dataset(good, tmp_path / "ds.pcds")
    assert load_dataset(tmp_path / "ds.pcds").parts_per_class == {0: [0, 1]}
