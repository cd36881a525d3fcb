import numpy as np
import pytest

from pointcl import tensor as T
from pointcl.losses import LossConfig, contrastive_loss_cls, contrastive_loss_seg
from pointcl.tensor import Tensor

from oracles import (brute_force_infonce, brute_force_pointwise,
                     finite_difference_grads, max_rel_error)


def unit_rows(a):
    a = np.asarray(a, dtype=np.float64)
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


def test_cls_identical_embeddings_ln_n():
    z = Tensor(np.tile(unit_rows([[1.0, 0.0]]), (16, 1)))
    loss = contrastive_loss_cls(z, Tensor(z.data.copy()), LossConfig(tau=0.1))
    assert abs(loss.item() - np.log(16)) < 1e-6


def test_cls_hand_two_pairs():
    z_o = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    z_t = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    loss = contrastive_loss_cls(z_o, z_t, LossConfig(tau=1.0))
    assert abs(loss.item() - np.log(1 + np.exp(-1))) < 1e-6


def test_cls_matches_brute_force(rng):
    z_o = Tensor(unit_rows(rng.normal(size=(16, 8))))
    z_t = Tensor(unit_rows(rng.normal(size=(16, 8))))
    cfg = LossConfig(tau=0.1)
    ours = contrastive_loss_cls(z_o, z_t, cfg).item()
    oracle = brute_force_infonce(z_o.data, z_t.data, 0.1)
    assert abs(ours - oracle) < 1e-6


def test_cls_exclude_positive_variant(rng):
    z_o = Tensor(unit_rows(rng.normal(size=(8, 4))))
    z_t = Tensor(unit_rows(rng.normal(size=(8, 4))))
    ours = contrastive_loss_cls(z_o, z_t, LossConfig(tau=0.5, exclude_positive=True)).item()
    oracle = brute_force_infonce(z_o.data, z_t.data, 0.5, exclude_positive=True)
    assert abs(ours - oracle) < 1e-6


def test_cls_symmetric_averages_directions(rng):
    z_o = Tensor(unit_rows(rng.normal(size=(6, 4))))
    z_t = Tensor(unit_rows(rng.normal(size=(6, 4))))
    a = contrastive_loss_cls(z_o, z_t, LossConfig(tau=0.2)).item()
    b = contrastive_loss_cls(z_t, z_o, LossConfig(tau=0.2)).item()
    s = contrastive_loss_cls(z_o, z_t, LossConfig(tau=0.2, symmetric=True)).item()
    assert abs(s - 0.5 * (a + b)) < 1e-6


def test_cls_too_few_pairs():
    z = Tensor(np.ones((1, 4)))
    with pytest.raises(ValueError):
        contrastive_loss_cls(z, Tensor(np.ones((1, 4))), LossConfig())


def test_cls_pair_relabeling_invariant(rng):
    z_o = unit_rows(rng.normal(size=(10, 6)))
    z_t = unit_rows(rng.normal(size=(10, 6)))
    cfg = LossConfig(tau=0.1)
    a = contrastive_loss_cls(Tensor(z_o), Tensor(z_t), cfg).item()
    perm = rng.permutation(10)
    b = contrastive_loss_cls(Tensor(z_o[perm]), Tensor(z_t[perm]), cfg).item()
    assert abs(a - b) < 1e-6


def test_cls_sharpening_with_smaller_tau(rng):
    # positives strictly most similar: smaller tau must decrease the loss
    base = unit_rows(rng.normal(size=(8, 8)))
    z_o = Tensor(base)
    noise = unit_rows(base + 0.05 * rng.normal(size=base.shape))
    z_t = Tensor(noise)
    losses = [contrastive_loss_cls(z_o, z_t, LossConfig(tau=t)).item()
              for t in (1.0, 0.5, 0.2, 0.1)]
    assert all(losses[i + 1] < losses[i] for i in range(3))


def test_cls_nonnegative(rng):
    for _ in range(10):
        z_o = Tensor(unit_rows(rng.normal(size=(5, 3))))
        z_t = Tensor(unit_rows(rng.normal(size=(5, 3))))
        assert contrastive_loss_cls(z_o, z_t, LossConfig(tau=0.3)).item() >= 0


def test_seg_identical_embeddings_ln_n():
    row = unit_rows(np.ones((1, 1, 4)))
    Z = Tensor(np.tile(row, (2, 8, 1)))
    loss = contrastive_loss_seg(Z, Tensor(Z.data.copy()), LossConfig(tau=0.1))
    assert abs(loss.item() - np.log(8)) < 1e-6


def test_seg_orthonormal_two_points():
    Z = Tensor(np.eye(2)[None].repeat(1, axis=0))
    loss = contrastive_loss_seg(Z, Tensor(Z.data.copy()), LossConfig(tau=1.0))
    assert abs(loss.item() - np.log(1 + np.exp(-1))) < 1e-6


def test_seg_matches_brute_force(rng):
    Z_o = Tensor(unit_rows(rng.normal(size=(3, 32, 8))))
    Z_t = Tensor(unit_rows(rng.normal(size=(3, 32, 8))))
    ours = contrastive_loss_seg(Z_o, Z_t, LossConfig(tau=0.1)).item()
    oracle = brute_force_pointwise(Z_o.data, Z_t.data, 0.1)
    assert abs(ours - oracle) < 1e-6


def test_seg_too_few_points():
    Z = Tensor(np.ones((2, 1, 4)))
    with pytest.raises(ValueError):
        contrastive_loss_seg(Z, Tensor(np.ones((2, 1, 4))), LossConfig())


def test_seg_shape_mismatch():
    with pytest.raises(ValueError):
        contrastive_loss_seg(Tensor(np.ones((2, 4, 3))),
                             Tensor(np.ones((2, 5, 3))), LossConfig())


def test_seg_refill_labels(rng):
    """With an explicit slot -> source map the positives follow the map."""
    Z_o = Tensor(unit_rows(rng.normal(size=(1, 4, 6))))
    perm = np.array([2, 0, 3, 1])
    # transformed cloud got permuted: slot j sourced from perm[j]
    Z_t = Tensor(Z_o.data[:, perm].copy())
    aligned = contrastive_loss_seg(Z_o, Z_t, LossConfig(tau=0.1),
                                   point_labels=perm[None]).item()
    identity = contrastive_loss_seg(Z_o, Tensor(Z_o.data.copy()),
                                    LossConfig(tau=0.1)).item()
    assert abs(aligned - identity) < 1e-6


# A crop-like slot -> source map: cloud 0 sources slots 0 and 2 from point 3
# and loses points 1 and 4; cloud 1 loses points 2, 3 and 5.
CROP_MAP = np.array([[3, 0, 3, 5, 0, 2], [1, 1, 4, 4, 4, 0]])


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("exclude_positive", [False, True])
def test_seg_source_map_matches_brute_force(rng, symmetric, exclude_positive):
    Z_o = unit_rows(rng.normal(size=(2, 6, 5)))
    Z_t = unit_rows(rng.normal(size=(2, 6, 5)))
    cfg = LossConfig(tau=0.2, symmetric=symmetric, exclude_positive=exclude_positive)
    ours = contrastive_loss_seg(Tensor(Z_o), Tensor(Z_t), cfg,
                                point_labels=CROP_MAP).item()
    oracle = brute_force_pointwise(Z_o, Z_t, 0.2, src=CROP_MAP, symmetric=symmetric,
                                   exclude_positive=exclude_positive)
    assert abs(ours - oracle) < 1e-9


def test_seg_point_labels_checked():
    Z = Tensor(np.ones((2, 6, 5)))
    for bad in (CROP_MAP[:1], CROP_MAP + 1, CROP_MAP - 1):
        with pytest.raises(ValueError):
            contrastive_loss_seg(Z, Tensor(np.ones((2, 6, 5))), LossConfig(),
                                 point_labels=bad)


def test_tau_must_be_positive():
    with pytest.raises(ValueError):
        LossConfig(tau=0.0)


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), -float("inf")])
def test_tau_must_be_finite(tau):
    """An inf tau makes every logit 0: a constant ln(n) loss."""
    with pytest.raises(ValueError, match="^tau must be finite and > 0"):
        LossConfig(tau=tau)


def _embedding_pair(rng, grouping, dtype=np.float64):
    """Unit-row embeddings for a loss: cls [5, 4] pairs, or seg [2, 6, 4]."""
    shape = (5, 4) if grouping == "cls" else (*CROP_MAP.shape, 4)
    return (Tensor(unit_rows(rng.normal(size=shape)), dtype=dtype, requires_grad=True),
            Tensor(unit_rows(rng.normal(size=shape)), dtype=dtype, requires_grad=True))


def _loss(grouping, z_o, z_t, cfg):
    if grouping == "cls":
        return contrastive_loss_cls(z_o, z_t, cfg)
    return contrastive_loss_seg(z_o, z_t, cfg, point_labels=(
        CROP_MAP if grouping == "seg-crop-map" else None))


GROUPINGS = ["cls", "seg", "seg-crop-map"]


@pytest.mark.parametrize("grouping", GROUPINGS)
@pytest.mark.parametrize("exclude_positive", [False, True])
@pytest.mark.parametrize("symmetric", [False, True])
def test_loss_gradients_match_finite_differences(rng, grouping, symmetric,
                                                 exclude_positive):
    """float64 gradients of both embeddings against central differences, in
    every loss setting. Under CROP_MAP some original points have no slot, so
    their rows carry weight 0."""
    z_o, z_t = _embedding_pair(rng, grouping)
    cfg = LossConfig(tau=0.2, symmetric=symmetric, exclude_positive=exclude_positive)
    T.backward(_loss(grouping, z_o, z_t, cfg))
    grads = [z_o.grad.copy(), z_t.grad.copy()]
    fd = finite_difference_grads(lambda: _loss(grouping, z_o, z_t, cfg).item(),
                                 [z_o, z_t], h=1e-5)
    assert max_rel_error(grads, fd) < 1e-6


@pytest.mark.parametrize("grouping", GROUPINGS)
def test_each_loss_is_one_tape_node(rng, grouping):
    z_o, z_t = _embedding_pair(rng, grouping, np.float32)
    for cfg in (LossConfig(), LossConfig(symmetric=True, exclude_positive=True)):
        loss = _loss(grouping, z_o, z_t, cfg)
        assert loss._op == "info_nce" and loss._parents == (z_o, z_t)
