import struct

import numpy as np
import pytest

from pointcl import pointcloud as pcm
from pointcl.pointcloud import (PointCloud, SyntheticSpec, ParseError,
                                generate_synthetic_dataset, load_dataset,
                                normalize_unit_sphere, sample_points,
                                save_dataset)

from oracles import reference_gen_cube


def test_normalize_symmetric_pair():
    p = PointCloud(points=[[2, 0, 0], [-2, 0, 0]])
    out = normalize_unit_sphere(p)
    assert np.allclose(sorted(out.points[:, 0]), [-1, 1])


def test_normalize_single_point_degenerate():
    out = normalize_unit_sphere(PointCloud(points=[[5, 5, 5]]))
    assert np.allclose(out.points, 0.0)


def test_normalize_postconditions(rng):
    p = PointCloud(points=rng.normal(size=(50, 3)) * 7 + 3)
    out = normalize_unit_sphere(p)
    norms = np.linalg.norm(out.points, axis=1)
    assert abs(norms.max() - 1.0) < 1e-6
    assert np.allclose(out.points.mean(axis=0), 0.0, atol=1e-6)


def test_normalize_idempotent(rng):
    p = PointCloud(points=rng.normal(size=(30, 3)))
    once = normalize_unit_sphere(p)
    twice = normalize_unit_sphere(once)
    assert np.allclose(once.points, twice.points, atol=1e-6)


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


def test_point_labels_length_checked():
    with pytest.raises(ValueError):
        PointCloud(points=np.zeros((3, 3)), point_labels=[0, 1])


def test_synthetic_sphere_unit_norms(rng):
    pts, _ = pcm._gen_sphere(200, rng)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-3)


def test_synthetic_counts_balanced(rng):
    spec = SyntheticSpec(classes=["sphere", "cube", "cylinder", "torus"], per_class=50)
    ds = generate_synthetic_dataset(spec, rng)
    assert len(ds) == 200
    labels = [p.class_label for p in ds.samples]
    assert all(labels.count(c) == 50 for c in range(4))


def test_synthetic_cylinder_cap_labels(rng):
    pts, labels = pcm._gen_cylinder(500, rng, half_height=1.0, radius=0.5)
    caps = pts[labels == 1]
    assert caps.shape[0] > 0
    assert np.allclose(np.abs(caps[:, 2]), 1.0, atol=1e-6)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_gen_cube_equals_per_point_loop(seed):
    pts, labels = pcm._gen_cube(300, np.random.default_rng(seed))
    want_pts, want_labels = reference_gen_cube(300, np.random.default_rng(seed))
    assert np.array_equal(pts, want_pts)
    assert np.array_equal(labels, want_labels)


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


def test_binary_bad_magic(tmp_path):
    (tmp_path / "bad.pcds").write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ParseError):
        load_dataset(tmp_path / "bad.pcds")


def test_xyz_text_round_trip(tmp_path, small_dataset):
    path = tmp_path / "ds.xyz"
    save_dataset(small_dataset, path, format="xyz-text")
    back = load_dataset(path, format="xyz-text")
    assert len(back) == len(small_dataset)
    for a, b in zip(small_dataset.samples, back.samples):
        assert a.class_label == b.class_label
        # 6 significant digits
        assert np.allclose(a.points, b.points, rtol=1e-5, atol=1e-7)


def test_xyz_single_line(tmp_path):
    (tmp_path / "one.xyz").write_text("1.0 2.0 3.0\n")
    ds = load_dataset(tmp_path / "one.xyz", format="xyz-text")
    assert len(ds) == 1
    assert np.allclose(ds.samples[0].points, [[1, 2, 3]])


def test_xyz_malformed_line(tmp_path):
    (tmp_path / "bad.xyz").write_text("1.0 2.0\n")
    with pytest.raises(ParseError) as ei:
        load_dataset(tmp_path / "bad.xyz", format="xyz-text")
    assert "line 1" in str(ei.value)


def test_xyz_malformed_line_names_file(tmp_path):
    path = tmp_path / "two.xyz"
    path.write_text("1.0 2.0 3.0\n4.0 5.0\n")
    with pytest.raises(ParseError) as ei:
        load_dataset(path, format="xyz-text")
    assert str(ei.value) == f"{path}: line 2: expected 3 coordinates, got 2"


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
    save_dataset(seg_dataset, tmp_path / "v2.pcds")
    blob = (tmp_path / "v2.pcds").read_bytes()
    (tmp_path / "v1.pcds").write_bytes(blob[:4] + struct.pack("<H", 1) + blob[6:])
    with pytest.raises(ParseError, match="unsupported version 1"):
        load_dataset(tmp_path / "v1.pcds")


def test_binary_parts_map_out_of_range(tmp_path, seg_dataset):
    ds = pcm.Dataset(samples=seg_dataset.samples, num_classes=seg_dataset.num_classes,
                     num_parts=seg_dataset.num_parts,
                     parts_per_class={0: [0, seg_dataset.num_parts]})
    save_dataset(ds, tmp_path / "bad.pcds")
    with pytest.raises(ParseError, match="parts map"):
        load_dataset(tmp_path / "bad.pcds")
