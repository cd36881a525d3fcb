import copy
import json
import struct
import tracemalloc

import numpy as np
import pytest

from pointcl import evaluation, models, tensor as T
from pointcl.models import (CheckpointError, ModelParams, encode, load_checkpoint,
                            project, save_checkpoint, segment_embed)
from pointcl.training import AdamState, TrainConfig, save_train_checkpoint

from oracles import finite_difference_grads, max_rel_error, mul, tsum


@pytest.fixture
def model():
    return ModelParams.create(np.random.default_rng(0), encoder_widths=[8, 16],
                              head_widths=[8, 4], seg_widths=[8, 4], with_seg=True)


def test_encoder_permutation_invariant(model, rng):
    pts = rng.normal(size=(1, 20, 3)).astype(np.float32)
    perm = rng.permutation(20)
    g1, _ = encode(pts, model.encoder, training=False)
    g2, _ = encode(pts[:, perm], model.encoder, training=False)
    assert (g1.data == g2.data).all()


def test_encoder_duplicate_point_invariant(model, rng):
    pts = rng.normal(size=(1, 10, 3)).astype(np.float32)
    dup = np.concatenate([pts, pts[:, :1]], axis=1)
    g1, _ = encode(pts, model.encoder, training=False)
    g2, _ = encode(dup, model.encoder, training=False)
    assert np.allclose(g1.data, g2.data, atol=1e-6)


def test_encoder_zero_weights_zero_feature(rng):
    m = ModelParams.create(np.random.default_rng(0), encoder_widths=[4, 8],
                           head_widths=[4])
    for layer in m.encoder.layers:
        layer.w.data[:] = 0.0
        layer.bn.beta.data[:] = 0.0
    g, _ = encode(rng.normal(size=(2, 6, 3)).astype(np.float32),
                  m.encoder, training=False)
    assert np.allclose(g.data, 0.0)


def test_encoder_shapes(model, rng):
    g, pp = encode(rng.normal(size=(3, 12, 3)), model.encoder, training=False)
    assert g.shape == (3, 16)
    assert pp.shape == (3, 12, 8)


def test_project_unit_rows(model, rng):
    g, _ = encode(rng.normal(size=(4, 10, 3)), model.encoder, training=False)
    z = project(g, model.head, training=False)
    assert np.allclose(np.linalg.norm(z.data, axis=1), 1.0, atol=1e-6)


def test_project_eval_deterministic(model, rng):
    g = T.Tensor(rng.normal(size=(4, 16)).astype(np.float32))
    z1 = project(g, model.head, training=False)
    z2 = project(g, model.head, training=False)
    assert (z1.data == z2.data).all()


def test_project_hand_matmul():
    m = ModelParams.create(np.random.default_rng(0), encoder_widths=[3, 4],
                           head_widths=[2])
    m.head.layers[0].w.data = np.array([[1, 0], [0, 1], [0, 0], [0, 0]],
                                       dtype=np.float32)
    m.head.layers[0].b.data = np.zeros(2, dtype=np.float32)
    g = T.Tensor(np.array([[3.0, 4.0, 9.0, 9.0]]))
    z = project(g, m.head, training=False)
    assert np.allclose(z.data, [[0.6, 0.8]], atol=1e-6)


def test_project_unnormalized_switch(model, rng):
    g = T.Tensor(rng.normal(size=(2, 16)).astype(np.float32))
    z = project(g, model.head, training=False, normalize=False)
    assert not np.allclose(np.linalg.norm(z.data, axis=1), 1.0, atol=1e-3)


def test_project_training_dropout_needs_an_rng(model, rng):
    """Training-mode dropout draws its masks from rng: without one it raises,
    naming the rng. At rate 0 it draws nothing and needs none."""
    g = T.Tensor(rng.normal(size=(2, 16)).astype(np.float32))
    assert model.head.dropout_rate > 0
    with pytest.raises(ValueError, match="needs an rng"):
        project(g, model.head, training=True, rng=None)
    model.head.dropout_rate = 0.0
    z = project(g, model.head, training=True, rng=None)
    assert (z.data == project(g, model.head, training=False).data).all()


def test_segment_rows_unit_norm(model, rng):
    g, pp = encode(rng.normal(size=(2, 8, 3)), model.encoder, training=False)
    Z = segment_embed(pp, g, model.seg, training=False)
    assert np.allclose(np.linalg.norm(Z.data, axis=2), 1.0, atol=1e-6)


def test_segment_permutation_equivariant(model, rng):
    pts = rng.normal(size=(1, 10, 3)).astype(np.float32)
    perm = rng.permutation(10)
    g1, pp1 = encode(pts, model.encoder, training=False)
    Z1 = segment_embed(pp1, g1, model.seg, training=False)
    g2, pp2 = encode(pts[:, perm], model.encoder, training=False)
    Z2 = segment_embed(pp2, g2, model.seg, training=False)
    assert np.allclose(Z1.data[:, perm], Z2.data, atol=1e-6)


def test_segment_global_ablation(model, rng):
    """With the global feature zeroed, embeddings depend only on the
    per-point features."""
    g, pp = encode(rng.normal(size=(1, 6, 3)), model.encoder, training=False)
    zero_g = T.Tensor(np.zeros_like(g.data))
    Z1 = segment_embed(pp, zero_g, model.seg, training=False)
    pp2 = T.Tensor(pp.data.copy())
    Z2 = segment_embed(pp2, T.Tensor(np.zeros_like(g.data)), model.seg,
                       training=False)
    assert np.allclose(Z1.data, Z2.data)


@pytest.mark.parametrize("widths", [[4, 8, 16], [8, 16]])
def test_encode_pools_the_last_layer(rng, widths):
    """Global features are the max over points of the last layer, fused
    with it into one node; the per-point feature is the layer before it."""
    enc = ModelParams.create(np.random.default_rng(0), encoder_widths=widths).encoder
    ref = copy.deepcopy(enc)
    pts = rng.normal(size=(2, 6, 3)).astype(np.float32)
    g, pp = encode(pts, enc, training=True)
    h = T.Tensor(pts.reshape(12, 3))
    outs = []
    for layer in ref.layers:
        h = T.shared_mlp(h, layer.w, layer.bn, 0.9, True)
        outs.append(h.data.reshape(2, 6, -1))
    assert np.array_equal(g.data, outs[-1].max(axis=1))
    assert np.array_equal(pp.data, outs[-2])
    assert g._op == "shared_mlp_max_pool"


@pytest.mark.parametrize("seg_widths", [[5, 3], [3]])
def test_segment_embed_finite_differences(rng, seg_widths):
    m = ModelParams.create(np.random.default_rng(2), encoder_widths=[4, 6],
                           head_widths=[4, 2], seg_widths=seg_widths, with_seg=True,
                           dtype=np.float64)
    pp = T.Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
    g = T.Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    r = T.Tensor(rng.normal(size=(2, 4, seg_widths[-1])))
    params = [pp, g] + m.seg.params()

    def forward():
        return tsum(mul(segment_embed(pp, g, m.seg, training=True), r))

    T.backward(forward())
    grads = [p.grad.copy() for p in params]
    fd = finite_difference_grads(lambda: forward().item(), params, h=1e-6)
    assert max_rel_error(grads, fd) < 1e-6


def test_probe_zero_weights_uniform(rng):
    feats = rng.normal(size=(5, 8)).astype(np.float32)
    labels = [0, 1, 2, 3, 0]
    probe, _, _ = evaluation.fit_probe(feats, labels, 4, epochs=0)
    assert isinstance(probe, models.DenseLayer)
    assert probe.w.shape == (8, 4) and not probe.w.data.any() and not probe.b.data.any()
    loss = T.linear_cross_entropy(T.Tensor(feats), probe.w, probe.b, labels)
    assert abs(loss.item() - np.log(4)) < 1e-6


def test_probe_identity_block():
    probe, _, _ = evaluation.fit_probe(np.zeros((1, 4), np.float32), [0], 4, epochs=0)
    probe.w.data = np.eye(4, dtype=np.float32)
    feats = np.eye(4, dtype=np.float32)[[2, 0, 3]]
    assert (evaluation.probe_predict(probe, feats) == [2, 0, 3]).all()


def test_no_alignment_subnetwork(model):
    """The encoder is a plain shared MLP stack: it has exactly one weight
    matrix per declared width and nothing else."""
    assert len(model.encoder.layers) == len(model.encoder.widths)
    for layer, width in zip(model.encoder.layers, model.encoder.widths):
        assert layer.w.data.shape[1] == width


def test_checkpoint_round_trip(tmp_path, model, rng):
    # dirty the running stats so they round-trip too
    pts = rng.normal(size=(4, 8, 3))
    encode(pts, model.encoder, training=True, bn_momentum=0.5)
    path = tmp_path / "m.pclm"
    save_checkpoint(model, path, extra={"note": 1})
    back, extra = load_checkpoint(path)
    assert extra == {"note": 1}
    for a, b in zip(model.params(), back.params()):
        assert (a.data == b.data).all()
    for la, lb in zip(model.encoder.layers, back.encoder.layers):
        assert (la.bn.running_mean == lb.bn.running_mean).all()
        assert (la.bn.running_var == lb.bn.running_var).all()


def test_checkpoint_round_trip_after_encoder_swap(tmp_path, model, rng):
    """The header's widths are read off the layers, so a model whose encoder
    was replaced by one of other widths saves the widths it has."""
    model.encoder = ModelParams.create(np.random.default_rng(1),
                                       encoder_widths=[5, 8, 16]).encoder
    encode(rng.normal(size=(4, 8, 3)), model.encoder, training=True, bn_momentum=0.5)
    path = tmp_path / "m.pclm"
    save_checkpoint(model, path)
    back, _ = load_checkpoint(path)
    assert back.config == model.config
    assert back.encoder.widths == [5, 8, 16]
    for a, b in zip(model.params(), back.params(), strict=True):
        assert a.data.tobytes() == b.data.tobytes()
    for la, lb in zip(model.encoder.layers, back.encoder.layers):
        assert la.bn.running_mean.tobytes() == lb.bn.running_mean.tobytes()
        assert la.bn.running_var.tobytes() == lb.bn.running_var.tobytes()


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "x.pclm"
    p.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_default_widths():
    m = ModelParams.create(np.random.default_rng(0))
    assert m.encoder.widths == models.DESK_ENCODER_WIDTHS
    assert m.head.layers[0].w.shape[0] == 128  # the head reads the global feature


@pytest.mark.parametrize("version", [1, 2])
def test_checkpoint_v1_rejected(tmp_path, version):
    p = tmp_path / f"v{version}.pclm"
    p.write_bytes(b"PCLM" + struct.pack("<HI", version, 2) + b"{}")
    with pytest.raises(CheckpointError, match=f"version {version}"):
        load_checkpoint(p)


def _header(**fields):
    h = {"encoder_widths": [4, 8], "head_widths": [4, 2], "seg_widths": None,
         "dropout_rate": 0.5, "extra": {}, "tensors": 0}
    h.update(fields)
    return {k: v for k, v in h.items() if v != "missing"}


@pytest.mark.parametrize("header, field", [
    ({}, "'encoder_widths'"),
    ([1, 2], "not a JSON object"),
    (_header(tensors="missing"), "no 'tensors'"),
    (_header(encoder_widths=[0]), "'encoder_widths' is [0]"),
    (_header(encoder_widths=[8]), "'encoder_widths' is [8]"),
    (_header(encoder_widths=[]), "'encoder_widths'"),
    (_header(encoder_widths=8), "'encoder_widths'"),
    (_header(head_widths=[4, 1]), "'head_widths'"),
    (_header(seg_widths=["8"]), "'seg_widths'"),
    (_header(dropout_rate=1.0), "'dropout_rate'"),
    (_header(extra=[]), "'extra'"),
    (_header(tensors=-1), "'tensors'"),
    (_header(tensors=1.5), "'tensors'"),
], ids=["empty", "list", "no-tensors", "zero-width", "one-width", "no-widths", "int-widths",
        "head-width-1", "str-seg-width", "dropout-1", "list-extra",
        "negative-tensors", "float-tensors"])
def test_checkpoint_malformed_header(tmp_path, header, field):
    """A header that is valid JSON but not a model config raises
    CheckpointError naming the file and the bad field."""
    p = tmp_path / "bad.pclm"
    blob = json.dumps(header).encode()
    p.write_bytes(b"PCLM" + struct.pack("<HI", models._CKPT_VERSION, len(blob)) + blob)
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(p)
    assert str(info.value).startswith(f"{p}: bad header: ")
    assert field in str(info.value)


def test_checkpoint_huge_tensor_count_is_truncation(tmp_path, model):
    """A caller-tensor count beyond the file's bytes reads as truncation,
    without building a list of that length."""
    p = tmp_path / "m.pclm"
    save_checkpoint(model, p)
    raw = p.read_bytes()
    (hlen,) = struct.unpack("<I", raw[6:10])
    header = json.loads(raw[10:10 + hlen])
    header["tensors"] = 10 ** 15
    blob = json.dumps(header).encode()
    p.write_bytes(raw[:6] + struct.pack("<I", len(blob)) + blob + raw[10 + hlen:])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(p)


def test_checkpoint_huge_widths_is_truncation_before_allocation(tmp_path):
    """A short file whose header asks for a large model raises truncation
    before any of that model is allocated."""
    p = tmp_path / "big.pclm"
    blob = json.dumps(_header(encoder_widths=[4096, 4096])).encode()
    p.write_bytes(b"PCLM" + struct.pack("<HI", models._CKPT_VERSION, len(blob)) + blob)
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match=f"truncated at byte {p.stat().st_size}$"):
            load_checkpoint(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 21


def test_load_checkpoint_peaks_near_the_file_size(tmp_path):
    """A full-preset training checkpoint is read tensor by tensor into the
    arrays it returns: the traced peak of the load stays within 1.25x the
    file's size. Reading the whole file, then copying each tensor out of it,
    peaks at about 2.5x."""
    model = ModelParams.create(np.random.default_rng(0),
                               encoder_widths=models.FULL_ENCODER_WIDTHS,
                               head_widths=[512, 256])
    path = tmp_path / "train.pclm"
    save_train_checkpoint(model, AdamState(model.params()), np.random.default_rng(1), 0, path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded, extra = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(extra["tensors"]) == 2 * len(model.params())
    assert peak <= 1.25 * path.stat().st_size, peak / path.stat().st_size


@pytest.mark.parametrize("widths", [[8, 16], [5, 7, 3]])
@pytest.mark.parametrize("with_seg", [False, True])
def test_checkpoint_size_check_is_exact(tmp_path, widths, with_seg):
    """The bytes the header's widths imply are the bytes save_checkpoint
    writes after the header, so the check rejects no whole file."""
    m = ModelParams.create(np.random.default_rng(0), encoder_widths=widths,
                           head_widths=[8, 4], seg_widths=[8, 4], with_seg=with_seg)
    p = tmp_path / "m.pclm"
    save_checkpoint(m, p)
    raw = p.read_bytes()
    (hlen,) = struct.unpack("<I", raw[6:10])
    assert models._model_nbytes(m.config) == len(raw) - 10 - hlen


@pytest.mark.parametrize("widths", [[8], [8, 0]])
def test_encoder_needs_two_widths(widths):
    """An encoder of one layer has no per-point feature beside its pooled
    last layer. create and TrainConfig reject it, naming the field, as
    load_checkpoint does (test_checkpoint_malformed_header[one-width])."""
    with pytest.raises(ValueError, match="encoder_widths"):
        ModelParams.create(np.random.default_rng(0), encoder_widths=widths)
    with pytest.raises(ValueError, match="encoder_widths"):
        TrainConfig(encoder_widths=widths)


@pytest.mark.parametrize("field,value", [("head_widths", [0, 4]), ("seg_widths", [0, 4]),
                                         ("dropout_rate", 1.0)])
def test_create_rejects_what_load_checkpoint_rejects(field, value):
    """A model whose checkpoint would read back as a bad header is never built."""
    with pytest.raises(ValueError, match=f"^{field} must be "):
        ModelParams.create(np.random.default_rng(0), with_seg=True, **{field: value})


@pytest.mark.parametrize("empty", [[], ()], ids=["list", "tuple"])
@pytest.mark.parametrize("field", ["encoder_widths", "head_widths", "seg_widths"])
def test_create_rejects_empty_widths(field, empty):
    """An empty stack is a bad width like any other, not a cue for the
    default widths."""
    with pytest.raises(ValueError, match=f"^{field} must be "):
        ModelParams.create(np.random.default_rng(0), with_seg=True, **{field: empty})


def test_create_seg_branch_needs_seg_widths():
    with pytest.raises(ValueError, match="^seg_widths must be "):
        ModelParams.create(np.random.default_rng(0), with_seg=True, seg_widths=None)
    assert ModelParams.create(np.random.default_rng(0), seg_widths=None).seg is None


def test_create_draws_one_glorot_matrix_per_layer():
    """Initialization draws only the weight matrices, in layer order; biases,
    gamma and beta are constants. So a fixed seed gives the same weights
    whichever layer kinds carry a bias."""
    m = ModelParams.create(np.random.default_rng(5), encoder_widths=[8, 16],
                           head_widths=[8, 4], seg_widths=[8, 4], with_seg=True)
    rng = np.random.default_rng(5)
    for layer in m.encoder.layers + m.head.layers + m.seg.layers:
        din, dout = layer.w.shape
        limit = np.sqrt(6.0 / (din + dout))
        want = rng.uniform(-limit, limit, size=(din, dout)).astype(np.float32)
        assert np.array_equal(layer.w.data, want)
    for layer in m.encoder.layers:
        assert layer.params() == [layer.w, layer.bn.gamma, layer.bn.beta]
        assert (layer.bn.gamma.data == 1).all() and (layer.bn.beta.data == 0).all()
