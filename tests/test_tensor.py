import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pointcl import models, tensor as T, training
from pointcl.losses import LossConfig
from pointcl.tensor import Tensor
from pointcl.training import TrainConfig, pretrain

from oracles import (finite_difference_grads, max_rel_error, reference_accum,
                     reference_cross_entropy, reference_encoder_layer)


def test_linear_identity_weights():
    x = Tensor([[1.0, 2.0]])
    w = Tensor([[1.0, 0.0], [0.0, 1.0]])
    b = Tensor([0.0, 0.0])
    assert np.allclose(T.linear_forward(x, w, b).data, [[1.0, 2.0]])


def test_linear_zero_weights_pass_bias():
    out = T.linear_forward(Tensor([[1.0, 2.0]]), Tensor(np.zeros((2, 2))),
                           Tensor([3.0, 4.0]))
    assert np.allclose(out.data, [[3.0, 4.0]])


def test_linear_hand_product():
    out = T.linear_forward(Tensor([[1.0, 2.0]]), Tensor([[1.0, 1.0], [1.0, 1.0]]),
                           Tensor([1.0, 0.0]))
    assert np.allclose(out.data, [[4.0, 3.0]])


def test_linear_shape_mismatch():
    with pytest.raises(T.ShapeError):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    w = Tensor(np.ones((3, 2)))
    with pytest.raises(T.ShapeError, match="linear_forward"):
        T.linear_forward(Tensor(np.ones((4, 3))), w, Tensor(np.ones(3)))  # bias width
    with pytest.raises(T.ShapeError, match="linear_forward"):
        T.linear_forward(Tensor(np.ones((2, 4, 3))), w, Tensor(np.ones(2)))  # 3-d x


def _linear_inputs(rng, dtype, frozen_x=False, rows=7, din=4, dout=3):
    return (Tensor(rng.normal(size=(rows, din)), dtype=dtype, requires_grad=not frozen_x),
            Tensor(rng.normal(size=(din, dout)), dtype=dtype, requires_grad=True),
            Tensor(rng.normal(size=dout), dtype=dtype, requires_grad=True))


@pytest.mark.parametrize("frozen_x", [False, True])
def test_linear_finite_differences(rng, frozen_x):
    """frozen_x is the probe: fixed features, trained w and b."""
    x, w, b = _linear_inputs(rng, np.float64, frozen_x)
    r = Tensor(rng.normal(size=(7, 3)), dtype=np.float64)
    params = [w, b] if frozen_x else [x, w, b]

    def forward():
        return T.tsum(T.mul(T.linear_forward(x, w, b), r))

    T.backward(forward())
    assert (x.grad is None) == frozen_x
    grads = [p.grad.copy() for p in params]
    fd = finite_difference_grads(lambda: forward().item(), params, h=1e-5)
    assert max_rel_error(grads, fd) < 1e-6


def test_linear_float32_equals_numpy(rng):
    x, w, b = _linear_inputs(rng, np.float32, rows=64, din=16, dout=9)
    r = rng.normal(size=(64, 9)).astype(np.float32)
    out = T.linear_forward(x, w, b)
    assert out.dtype == np.float32
    assert np.array_equal(out.data, x.data @ w.data + b.data)
    T.backward(T.tsum(T.mul(out, Tensor(r))))
    assert np.array_equal(x.grad, r @ w.data.T)
    assert np.array_equal(w.grad, x.data.T @ r)
    assert np.array_equal(b.grad, np.ones(64, np.float32) @ r)
    np.testing.assert_allclose(b.grad, r.sum(axis=0), rtol=1e-5, atol=1e-5)


def test_linear_is_one_tape_node(rng):
    x, w, b = _linear_inputs(rng, np.float32)
    out = T.linear_forward(x, w, b)
    assert out._op == "linear" and out._parents == (x, w, b)
    assert all(p._backward is None for p in out._parents)


def test_relu_values():
    assert np.allclose(T.relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])
    x = np.array([0.5, 1.0, 7.0])
    assert np.allclose(T.relu(Tensor(x)).data, x)


def test_relu_gradient():
    x = Tensor([-1.0, 2.0], requires_grad=True)
    T.backward(T.tsum(T.relu(x)))
    assert np.allclose(x.grad, [0.0, 1.0])


def test_relu_tie_gradient_zero():
    x = Tensor([0.0], requires_grad=True)
    T.backward(T.tsum(T.relu(x)))
    assert x.grad[0] == 0.0


def test_max_pool_values():
    x = Tensor([[[1.0, 5.0], [3.0, 2.0]]])
    assert np.allclose(T.max_pool_points(x).data, [[3.0, 5.0]])


def test_max_pool_single_point():
    x = Tensor(np.arange(4, dtype=np.float32).reshape(1, 1, 4))
    assert np.allclose(T.max_pool_points(x).data, [[0, 1, 2, 3]])


def test_max_pool_permutation_invariant(rng):
    x = rng.normal(size=(2, 9, 5)).astype(np.float32)
    perm = rng.permutation(9)
    a = T.max_pool_points(Tensor(x)).data
    b = T.max_pool_points(Tensor(x[:, perm])).data
    assert (a == b).all()


def test_max_pool_empty_cloud():
    with pytest.raises(T.ShapeError):
        T.max_pool_points(Tensor(np.zeros((1, 0, 3))))


def test_max_pool_tie_routes_first():
    x = Tensor(np.array([[[2.0], [2.0]]]), requires_grad=True)
    T.backward(T.tsum(T.max_pool_points(x)))
    assert np.allclose(x.grad[0, :, 0], [1.0, 0.0])


def _bn_layer(x, state, momentum, training):
    """shared_mlp with an identity weight: relu(batch_norm(x))."""
    x = np.asarray(x, dtype=np.float64)
    return T.shared_mlp(Tensor(x), Tensor(np.eye(x.shape[1])), state, momentum, training)


def test_batch_norm_zero_variance_column():
    state = T.BNState(2)
    out = _bn_layer([[3.0, 1.0], [3.0, 2.0]], state, 0.9, training=True)
    assert np.allclose(out.data[:, 0], 0.0, atol=1e-3)


def test_batch_norm_standardized_input_unchanged():
    state = T.BNState(1)
    state.beta.data[:] = 2.0  # keeps both rows above the relu kink
    x = np.array([[1.0], [-1.0]])  # mean 0, var 1
    out = _bn_layer(x, state, 0.9, training=True)
    assert np.allclose(out.data, x + 2.0, atol=1e-4)


def test_batch_norm_running_update():
    state = T.BNState(1)
    state.running_mean[:] = 0.0
    _bn_layer([[1.0], [3.0]], state, 0.5, training=True)  # batch mean 2
    assert np.allclose(state.running_mean, [1.0])


def test_batch_norm_small_batch_error():
    with pytest.raises(T.ShapeError):
        _bn_layer(np.ones((1, 2)), T.BNState(2), 0.9, True)


def test_batch_norm_eval_uses_running_stats():
    state = T.BNState(1)
    state.running_mean[:] = 5.0
    state.running_var[:] = 4.0
    out = _bn_layer([[7.0]], state, 0.9, False)
    assert np.allclose(out.data, [[1.0]], atol=1e-3)


def test_softmax_ce_uniform():
    logits = Tensor(np.zeros((3, 16)))
    loss = T.softmax_cross_entropy(logits, [0, 5, 15])
    assert abs(loss.item() - np.log(16)) < 1e-6


def test_softmax_ce_saturated():
    logits = np.zeros((1, 4))
    logits[0, 2] = 1000.0
    assert T.softmax_cross_entropy(Tensor(logits), [2]).item() < 1e-6


def test_softmax_ce_hand_value():
    loss = T.softmax_cross_entropy(Tensor([[1.0, 0.0]]), [0])
    assert abs(loss.item() - np.log(1 + np.exp(-1))) < 1e-6


def test_softmax_ce_label_out_of_range():
    with pytest.raises(IndexError):
        T.softmax_cross_entropy(Tensor(np.zeros((1, 3))), [3])


def test_softmax_ce_nonnegative(rng):
    for _ in range(20):
        logits = Tensor(rng.normal(size=(4, 6)))
        labels = rng.integers(0, 6, size=4)
        assert T.softmax_cross_entropy(logits, labels).item() >= 0.0


def test_softmax_ce_empty_batch_names_shape():
    with pytest.raises(T.ShapeError, match=r"\(0, 3\)"):
        T.softmax_cross_entropy(Tensor(np.zeros((0, 3))), [])


@pytest.mark.parametrize("K", [2, 8, 128])
def test_softmax_ce_finite_differences(rng, K):
    logits = Tensor(2.0 * rng.normal(size=(5, K)), dtype=np.float64, requires_grad=True)
    labels = rng.integers(0, K, size=5)

    def f():
        return T.softmax_cross_entropy(logits, labels)

    T.backward(f())
    grad = logits.grad.copy()
    logits.grad = None
    fd = finite_difference_grads(lambda: f().item(), [logits])
    assert max_rel_error([grad], fd) < 1e-5


def test_softmax_ce_float32_matches_reference(rng):
    """Loss and gradient against a float64 oracle, with saturated rows; a
    second backward through the same node adds the same gradient again."""
    data = 4.0 * rng.normal(size=(6, 9))
    data[0, 3] = 1e4     # one dominant logit, the label
    data[1, 5] = 1e4     # one dominant logit, not the label
    data[2] = -1e4       # every logit very negative
    data[2, 7] = 1e4
    data[3, :4] = 1e4    # a four-way tie at the top
    labels = np.array([3, 0, 2, 1, 8, 4])
    logits = Tensor(data.astype(np.float32), requires_grad=True)
    loss = T.softmax_cross_entropy(logits, labels)
    ref_loss, ref_grad = reference_cross_entropy(logits.data, labels)
    assert loss.dtype == np.float32
    assert np.isclose(loss.item(), ref_loss, rtol=1e-6, atol=1e-3)
    T.backward(loss)
    assert logits.grad.dtype == np.float32
    assert np.allclose(logits.grad, ref_grad, rtol=1e-5, atol=1e-7)
    first = logits.grad.copy()
    T.backward(loss)
    assert np.array_equal(logits.grad, 2 * first)


@pytest.mark.parametrize("frozen", ["a", "b"])
def test_matmul_frozen_operand(rng, frozen):
    """The frozen side gets no gradient; the other side's equals the
    two-sided product's bit for bit."""
    def operands(a_grad, b_grad):
        r = np.random.default_rng(3)
        return (Tensor(r.normal(size=(6, 4)), requires_grad=a_grad),
                Tensor(r.normal(size=(4, 5)), requires_grad=b_grad))

    weights = Tensor(rng.normal(size=(6, 5)))
    a2, b2 = operands(True, True)
    T.backward(T.tsum(T.mul(T.matmul(a2, b2), weights)))
    a, b = operands(frozen != "a", frozen != "b")
    T.backward(T.tsum(T.mul(T.matmul(a, b), weights)))
    frozen_t, live, live2 = (a, b, b2) if frozen == "a" else (b, a, a2)
    assert frozen_t.grad is None
    assert np.array_equal(live.grad, live2.grad)


def test_backward_sum_all_ones():
    x = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
    T.backward(T.tsum(x))
    assert (x.grad == 1.0).all()


def test_backward_square():
    x = Tensor([1.0, 2.0], requires_grad=True)
    T.backward(T.tsum(T.mul(x, x)))
    assert np.allclose(x.grad, [2.0, 4.0])


def test_backward_nonscalar_rejected():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        T.backward(T.relu(x))


def test_composed_net_matches_finite_differences(rng):
    """A small MLP with batch norm, relu, pooling and cross-entropy."""
    w1 = Tensor(rng.normal(size=(3, 5)), dtype=np.float64, requires_grad=True)
    w2 = Tensor(rng.normal(size=(5, 4)), dtype=np.float64, requires_grad=True)
    b2 = Tensor(np.zeros(4), dtype=np.float64, requires_grad=True)
    state = T.BNState(5, dtype=np.float64)
    x = rng.normal(size=(2, 6, 3))
    labels = [1, 3]
    params = [w1, state.gamma, state.beta, w2, b2]

    def forward():
        h = T.shared_mlp(Tensor(x.reshape(12, 3), dtype=np.float64), w1, state,
                         0.9, training=True)
        pooled = T.max_pool_points(T.reshape(h, (2, 6, 5)))
        logits = T.linear_forward(pooled, w2, b2)
        return T.softmax_cross_entropy(logits, labels)

    loss = forward()
    T.backward(loss)
    grads = [p.grad.copy() for p in params]
    for p in params:
        p.grad = None
    fd = finite_difference_grads(lambda: forward().item(), params, h=1e-4)
    assert max_rel_error(grads, fd) < 1e-4


def test_dropout_rate_zero_is_identity(rng):
    x = Tensor(rng.normal(size=(4, 4)))
    assert (T.dropout(x, 0.0, True, rng).data == x.data).all()


def test_dropout_eval_is_identity(rng):
    x = Tensor(rng.normal(size=(4, 4)))
    assert (T.dropout(x, 0.9, False, rng).data == x.data).all()


def test_dropout_rate_one_rejected(rng):
    with pytest.raises(ValueError):
        T.dropout(Tensor(np.ones(3)), 1.0, True, rng)


def test_dropout_empirical_zero_fraction():
    rng = np.random.default_rng(99)
    x = Tensor(np.ones(100_000))
    out = T.dropout(x, 0.5, True, rng)
    frac = (out.data == 0).mean()
    assert abs(frac - 0.5) < 0.01
    survivors = out.data[out.data != 0]
    assert np.allclose(survivors, 2.0)


def test_forward_backward_deterministic(rng):
    x = rng.normal(size=(3, 4)).astype(np.float32)

    def run():
        t = Tensor(x.copy(), requires_grad=True)
        d = T.dropout(T.relu(t), 0.3, True, np.random.default_rng(5))
        T.backward(T.tsum(d))
        return t.grad.copy()

    assert (run() == run()).all()


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=10_000))
@example(seed=8607)
def test_matmul_grad_property(seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(2, 3)), dtype=np.float64, requires_grad=True)
    b = Tensor(rng.normal(size=(3, 2)), dtype=np.float64, requires_grad=True)
    # A pre-activation within the finite-difference step of the relu kink
    # makes the numeric gradient straddle it (seed 8607 has one at -1.5e-4).
    assume(np.abs(a.data @ b.data).min() > 1e-3)

    def forward():
        return T.tsum(T.relu(T.matmul(a, b))).item()

    loss = T.tsum(T.relu(T.matmul(a, b)))
    T.backward(loss)
    grads = [a.grad.copy(), b.grad.copy()]
    a.grad = b.grad = None
    fd = finite_difference_grads(forward, [a, b])
    assert max_rel_error(grads, fd) < 1e-4


def test_batched_matmul_transpose_finite_differences(rng):
    """a[B,N,d] @ transpose(b[B,M,d]) -> [B,N,M], one product per batch entry."""
    a = Tensor(rng.normal(size=(3, 4, 2)), dtype=np.float64, requires_grad=True)
    b = Tensor(rng.normal(size=(3, 5, 2)), dtype=np.float64, requires_grad=True)
    weights = Tensor(rng.normal(size=(3, 4, 5)), dtype=np.float64)

    def forward():
        return T.tsum(T.relu(T.mul(T.matmul(a, T.transpose(b)), weights)))

    out = T.matmul(a, T.transpose(b)).data
    assert np.allclose(out, [x @ y.T for x, y in zip(a.data, b.data)], atol=1e-12)
    T.backward(forward())
    grads = [a.grad.copy(), b.grad.copy()]
    a.grad = b.grad = None
    fd = finite_difference_grads(lambda: forward().item(), [a, b], h=1e-5)
    assert max_rel_error(grads, fd) < 1e-6


def test_batched_matmul_shape_errors():
    with pytest.raises(T.ShapeError):
        T.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 5))))
    with pytest.raises(T.ShapeError):
        T.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((4, 5))))
    with pytest.raises(T.ShapeError):
        T.transpose(Tensor(np.ones(3)))


@pytest.mark.parametrize("key", [1, slice(1, 3), (np.array([0, 2, 2]), np.array([1, 0, 0]))])
def test_index_gradient_finite_differences(key):
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
    assert np.array_equal(T.index(x, key).data, x.data[key])
    w = Tensor(rng.normal(size=x.data[key].shape))

    def f():
        return T.tsum(T.mul(T.index(x, key), w))

    T.backward(f())
    grad = x.grad.copy()
    x.grad = None
    fd = finite_difference_grads(lambda: f().item(), [x])
    assert max_rel_error([grad], fd) < 1e-6


def test_logsumexp_values_and_gradient():
    rng = np.random.default_rng(1)
    x = Tensor(5.0 * rng.normal(size=(4, 6)), requires_grad=True)
    assert np.allclose(T.logsumexp(x).data, np.log(np.exp(x.data).sum(axis=-1)))
    assert np.isclose(T.logsumexp(Tensor([[1000.0, 1000.0]])).data[0], 1000.0 + np.log(2))
    w = Tensor(rng.normal(size=4))

    def f():
        return T.tsum(T.mul(T.logsumexp(x), w))

    T.backward(f())
    grad = x.grad.copy()
    x.grad = None
    fd = finite_difference_grads(lambda: f().item(), [x])
    assert max_rel_error([grad], fd) < 1e-6


def test_logsumexp_3d_finite_differences(rng):
    x = Tensor(2.0 * rng.normal(size=(2, 3, 7)), dtype=np.float64, requires_grad=True)
    w = Tensor(rng.normal(size=(2, 3)), dtype=np.float64)
    assert np.allclose(T.logsumexp(x).data, np.log(np.exp(x.data).sum(axis=-1)))

    def f():
        return T.tsum(T.mul(T.logsumexp(x), w))

    T.backward(f())
    grad = x.grad.copy()
    x.grad = None
    fd = finite_difference_grads(lambda: f().item(), [x])
    assert max_rel_error([grad], fd) < 1e-6


def _shared_mlp_inputs(rng, dtype, rows=12, din=4, dout=5):
    x = Tensor(rng.normal(size=(rows, din)), dtype=dtype, requires_grad=True)
    w = Tensor(rng.normal(size=(din, dout)), dtype=dtype, requires_grad=True)
    bn = T.BNState(dout, dtype=dtype)
    bn.gamma.data = rng.uniform(0.5, 1.5, size=dout).astype(dtype)
    bn.beta.data = rng.normal(scale=0.3, size=dout).astype(dtype)
    bn.running_mean = rng.normal(size=dout).astype(dtype)
    bn.running_var = rng.uniform(0.5, 2.0, size=dout).astype(dtype)
    return x, w, bn


@pytest.mark.parametrize("training", [True, False])
def test_shared_mlp_matches_finite_differences(rng, training):
    x, w, bn = _shared_mlp_inputs(rng, np.float64)
    r = Tensor(rng.normal(size=(12, 5)), dtype=np.float64)
    params = [x, w, bn.gamma, bn.beta]

    def forward():
        return T.tsum(T.mul(T.shared_mlp(x, w, bn, 0.9, training), r))

    T.backward(forward())
    grads = [p.grad.copy() for p in params]
    fd = finite_difference_grads(lambda: forward().item(), params, h=1e-5)
    assert max_rel_error(grads, fd) < 1e-6


@pytest.mark.parametrize("training", [True, False])
def test_shared_mlp_equals_unfused_chain_float32(rng, training):
    """The fused float32 layer agrees with the unfused float64 numpy
    reference, which shares no code with it."""
    x, w, bn = _shared_mlp_inputs(rng, np.float32, rows=256, din=16, dout=32)
    r = rng.normal(size=(256, 32)).astype(np.float32)
    want, want_grads, want_mean, want_var = reference_encoder_layer(
        x.data, w.data, bn.gamma.data, bn.beta.data,
        bn.running_mean.astype(np.float64), bn.running_var.astype(np.float64),
        0.8, training, r)

    out = T.shared_mlp(x, w, bn, 0.8, training)
    assert out._op == "shared_mlp" and out._parents == (x, w, bn.gamma, bn.beta)
    T.backward(T.tsum(T.mul(out, Tensor(r))))
    np.testing.assert_allclose(out.data, want, rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(bn.running_mean, want_mean, rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(bn.running_var, want_var, rtol=1e-5)
    for name, p in zip(("x", "w", "gamma", "beta"), (x, w, bn.gamma, bn.beta)):
        scale = np.abs(want_grads[name]).max()
        np.testing.assert_allclose(p.grad, want_grads[name], rtol=1e-4,
                                   atol=1e-5 * scale, err_msg=name)


def test_shared_mlp_shape_errors():
    x = Tensor(np.ones((4, 3)))
    w = Tensor(np.ones((3, 2)))
    with pytest.raises(T.ShapeError):
        T.shared_mlp(x, Tensor(np.ones((2, 2))), T.BNState(2), 0.9, True)
    with pytest.raises(T.ShapeError):
        T.shared_mlp(Tensor(np.ones((4, 3, 3))), w, T.BNState(2), 0.9, True)
    for width in (1, 3):  # batch norm narrower and wider than w
        with pytest.raises(T.ShapeError, match=f"width {width}"):
            T.shared_mlp(x, w, T.BNState(width), 0.9, True)
    with pytest.raises(T.ShapeError, match="batch of 1"):
        T.shared_mlp(Tensor(np.ones((1, 3))), w, T.BNState(2), 0.9, True)
    assert T.shared_mlp(Tensor(np.ones((1, 3))), w, T.BNState(2), 0.9, False).shape == (1, 2)


def test_max_pool_forward_is_np_max_without_argmax(rng, monkeypatch):
    x = np.maximum(rng.normal(size=(3, 7, 5)), 0)  # relu zeros tie
    t = Tensor(x, requires_grad=True)

    def no_argmax(*args, **kwargs):
        raise AssertionError("forward pass called argmax")

    monkeypatch.setattr(np, "argmax", no_argmax)
    out = T.max_pool_points(t)
    assert (out.data == np.max(x, axis=1)).all()
    monkeypatch.undo()
    T.backward(T.tsum(out))
    want = np.zeros_like(x)
    idx = np.argmax(x, axis=1)
    for bi in range(3):
        for d in range(5):
            want[bi, idx[bi, d], d] = 1.0
    assert (t.grad == want).all()


def test_shared_gradient_is_not_aliased():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    T.backward(T.tsum(T.add(T.add(a, b), a)))
    assert (a.grad == 2.0).all()
    assert (b.grad == 1.0).all()


def _tape(loss):
    """Every tensor reachable from loss, loss included."""
    seen, stack = {}, [loss]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t._parents)
    return list(seen.values())


@pytest.mark.parametrize("objective", ["cls", "seg"])
def test_stored_gradients_are_read_only(objective):
    rng = np.random.default_rng(5)
    cfg = TrainConfig(pairs_per_batch=3, points_per_cloud=6, encoder_widths=[6, 8, 10],
                      head_widths=[6, 4], seg_widths=[6, 4], dropout_rate=0.5,
                      loss=LossConfig(symmetric=True, exclude_positive=True))
    model = models.ModelParams.create(rng, encoder_widths=cfg.encoder_widths,
                                      head_widths=cfg.head_widths,
                                      seg_widths=cfg.seg_widths, with_seg=True,
                                      dropout_rate=cfg.dropout_rate)
    loss = training._forward_loss(model, rng.normal(size=(3, 6, 3)),
                                  rng.normal(size=(3, 6, 3)), cfg, rng, objective)
    T.backward(loss)
    stored = [t for t in _tape(loss) if t.grad is not None]
    assert len(stored) > 20
    assert [t._op for t in stored if t.grad.flags.writeable] == []


def test_first_gradient_is_not_copied():
    x = Tensor(np.arange(6.0), requires_grad=True)
    y = T.reshape(x, (2, 3))
    T.backward(T.tsum(T.scale(y, 3.0)))
    assert np.shares_memory(x.grad, y.grad)
    assert (x.grad == 3.0).all()


def test_backward_writing_its_incoming_gradient_raises():
    x = Tensor(np.ones(3), requires_grad=True)

    def bw(g):
        g *= 2
        T._accum(x, g)

    doubled = T._result(x.data * 2, (x,), bw, "double_in_place")
    with pytest.raises(ValueError, match="read-only"):
        T.backward(T.tsum(T.scale(doubled, 1.0)))


@pytest.mark.parametrize("objective, transform, loss, pairs, epochs", [
    ("cls", "rotate:y:180", LossConfig(), 8, 5),
    ("cls", "rotate:y:180", LossConfig(symmetric=True, exclude_positive=True), 8, 5),
    ("seg", "smooth", LossConfig(), 4, 10),
], ids=["cls", "cls-symmetric-exclude-positive", "seg-smooth"])
def test_accum_matches_copying_reference_bytes(tmp_path, monkeypatch, small_dataset,
                                               seg_dataset, objective, transform, loss,
                                               pairs, epochs):
    """A fixed-seed 50-step pretrain writes the same bytes with the copy-free
    _accum as with the copying reference."""
    ds = small_dataset if objective == "cls" else seg_dataset
    cfg = TrainConfig(pairs_per_batch=pairs, epochs=epochs, points_per_cloud=32,
                      encoder_widths=[8, 16], head_widths=[8, 4], seg_widths=[8, 4],
                      seed=7, dropout_rate=0.5, transform=transform, loss=loss)
    _, records = pretrain(ds, cfg, objective, out_dir=str(tmp_path / "kept"))
    assert len(records) == 50
    monkeypatch.setattr(T, "_accum", reference_accum)
    pretrain(ds, cfg, objective, out_dir=str(tmp_path / "reference"))
    for name in ("checkpoint_final.pclm", "loss_curve.csv"):
        assert ((tmp_path / "kept" / name).read_bytes()
                == (tmp_path / "reference" / name).read_bytes()), name


def _copy_layer(x, w, bn):
    """Fresh leaves with the values of x, w and bn, for a second tape."""
    x2, w2 = (Tensor(t.data.copy(), requires_grad=True) for t in (x, w))
    bn2 = T.BNState(bn.dim, dtype=w.dtype)
    bn2.gamma.data, bn2.beta.data = bn.gamma.data.copy(), bn.beta.data.copy()
    bn2.running_mean, bn2.running_var = bn.running_mean.copy(), bn.running_var.copy()
    return x2, w2, bn2


def _unfused_pool(x, w, bn, momentum, training, n_points):
    out = T.shared_mlp(x, w, bn, momentum, training)
    return T.max_pool_points(T.reshape(out, (x.shape[0] // n_points, n_points, w.shape[1])))


@pytest.mark.parametrize("training", [True, False])
def test_shared_mlp_max_pool_finite_differences(rng, training):
    x, w, bn = _shared_mlp_inputs(rng, np.float64)  # 12 rows: 3 clouds of 4 points
    r = Tensor(rng.normal(size=(3, 5)), dtype=np.float64)
    params = [x, w, bn.gamma, bn.beta]

    def forward():
        return T.tsum(T.mul(T.shared_mlp_max_pool(x, w, bn, 0.9, training, 4), r))

    T.backward(forward())
    grads = [p.grad.copy() for p in params]
    fd = finite_difference_grads(lambda: forward().item(), params, h=1e-5)
    assert max_rel_error(grads, fd) < 1e-6


@pytest.mark.parametrize("training", [True, False])
def test_shared_mlp_max_pool_equals_unfused_chain_float32(rng, training):
    """Values, BN running statistics and gradients of the fused node against
    shared_mlp -> reshape -> max_pool_points on the same float32 inputs."""
    B, N = 8, 32
    x, w, bn = _shared_mlp_inputs(rng, np.float32, rows=B * N, din=16, dout=32)
    r = rng.normal(size=(B, 32)).astype(np.float32)
    x2, w2, bn2 = _copy_layer(x, w, bn)

    out = T.shared_mlp_max_pool(x, w, bn, 0.8, training, N)
    want = _unfused_pool(x2, w2, bn2, 0.8, training, N)
    assert np.array_equal(out.data, want.data)
    assert np.array_equal(bn.running_mean, bn2.running_mean)
    assert np.array_equal(bn.running_var, bn2.running_var)
    T.backward(T.tsum(T.mul(out, Tensor(r))))
    T.backward(T.tsum(T.mul(want, Tensor(r))))
    for name, p, q in zip(("x", "w", "gamma", "beta"), (x, w, bn.gamma, bn.beta),
                          (x2, w2, bn2.gamma, bn2.beta)):
        np.testing.assert_allclose(p.grad, q.grad, rtol=1e-4,
                                   atol=1e-5 * np.abs(q.grad).max(), err_msg=name)


def _exact_layer_inputs(rng, B, N, din=3, dout=4):
    """Small-integer x and half-integer w: every product and sum is exact,
    so equal rows of x give bit-equal rows of the layer output."""
    x = Tensor(rng.integers(-3, 4, size=(B * N, din)), dtype=np.float64,
               requires_grad=True)
    w = Tensor(rng.integers(-4, 5, size=(din, dout)) / 2, dtype=np.float64,
               requires_grad=True)
    bn = T.BNState(dout, dtype=np.float64)
    bn.beta.data = np.full(dout, 0.5)
    return x, w, bn


@pytest.mark.parametrize("training", [True, False])
def test_shared_mlp_max_pool_ties_route_to_first_point(rng, training):
    """Every cloud is one point repeated: each channel's maximum ties over
    all its points, and the pooled gradient goes to the first of them."""
    B, N = 3, 5
    x, w, bn = _exact_layer_inputs(rng, B, N)
    x.data = np.repeat(x.data[::N], N, axis=0)
    x2, w2, bn2 = _copy_layer(x, w, bn)
    T.backward(T.tsum(T.shared_mlp_max_pool(x, w, bn, 0.9, training, N)))
    T.backward(T.tsum(_unfused_pool(x2, w2, bn2, 0.9, training, N)))
    np.testing.assert_allclose(x.grad, x2.grad, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(w.grad, w2.grad, rtol=1e-12, atol=1e-12)
    first, rest = x.grad.reshape(B, N, 3)[:, 0], x.grad.reshape(B, N, 3)[:, 1:]
    assert np.abs(first[:, None] - rest).max(axis=(0, 2)).min() > 0  # first != each tie
    if not training:  # no batch-norm term: only the first point has a gradient
        assert (rest == 0).all() and (first != 0).any()


@pytest.mark.parametrize("training", [True, False])
def test_shared_mlp_max_pool_dead_channel_gets_no_gradient(rng, training):
    x, w, bn = _exact_layer_inputs(rng, 3, 4)
    bn.beta.data[2] = -100.0  # relu(.) is 0 at every point of channel 2
    r = Tensor(rng.normal(size=(3, 4)))
    out = T.shared_mlp_max_pool(x, w, bn, 0.9, training, 4)
    assert (out.data[:, 2] == 0).all()
    T.backward(T.tsum(T.mul(out, r)))
    assert bn.gamma.grad[2] == 0 and bn.beta.grad[2] == 0
    assert (w.grad[:, 2] == 0).all()
    assert (bn.beta.grad[[0, 1, 3]] != 0).any()


def test_shared_mlp_max_pool_forward_calls_no_argmax(rng, monkeypatch):
    x, w, bn = _shared_mlp_inputs(rng, np.float32, rows=12)

    def no_argmax(*args, **kwargs):
        raise AssertionError("forward pass called argmax")

    for training in (True, False):
        monkeypatch.setattr(np, "argmax", no_argmax)
        out = T.shared_mlp_max_pool(x, w, bn, 0.9, training, 4)
        monkeypatch.undo()
        T.backward(T.tsum(out))


def test_shared_mlp_max_pool_is_one_tape_node(rng):
    x, w, bn = _shared_mlp_inputs(rng, np.float32)
    out = T.shared_mlp_max_pool(x, w, bn, 0.9, True, 3)
    assert out.shape == (4, 5)
    assert out._op == "shared_mlp_max_pool"
    assert out._parents == (x, w, bn.gamma, bn.beta)


def test_shared_mlp_max_pool_shape_errors():
    x = Tensor(np.ones((6, 3)))
    w = Tensor(np.ones((3, 2)))
    for n_points in (4, 0, 7):  # 6 rows are not clouds of 4, 0 or 7 points
        with pytest.raises(T.ShapeError, match=f"N = {n_points}"):
            T.shared_mlp_max_pool(x, w, T.BNState(2), 0.9, True, n_points)
    with pytest.raises(T.ShapeError):
        T.shared_mlp_max_pool(Tensor(np.ones((2, 3, 3))), w, T.BNState(2), 0.9, True, 3)
    with pytest.raises(T.ShapeError, match="width 3"):
        T.shared_mlp_max_pool(x, w, T.BNState(3), 0.9, True, 3)
    with pytest.raises(T.ShapeError, match="batch of 1"):
        T.shared_mlp_max_pool(Tensor(np.ones((1, 3))), w, T.BNState(2), 0.9, True, 1)
    assert T.shared_mlp_max_pool(Tensor(np.ones((1, 3))), w, T.BNState(2), 0.9,
                                 False, 1).shape == (1, 2)


def _points_global_inputs(rng, dtype, B=3, N=5, dp=4, dg=6, K=3):
    return (Tensor(rng.normal(size=(B, N, dp)), dtype=dtype, requires_grad=True),
            Tensor(rng.normal(size=(B, dg)), dtype=dtype, requires_grad=True),
            Tensor(rng.normal(size=(dp + dg, K)), dtype=dtype, requires_grad=True),
            Tensor(rng.normal(size=K), dtype=dtype, requires_grad=True))


def test_linear_points_global_equals_concatenated_float64(rng):
    """[p, g repeated] @ w + b and its gradients, formed with the
    concatenation in plain numpy."""
    p, g, w, b = _points_global_inputs(rng, np.float64)
    B, N, dp = p.shape
    r = rng.normal(size=(B * N, 3))
    cat = np.concatenate([p.data, np.repeat(g.data[:, None], N, axis=1)], axis=2)
    cat = cat.reshape(B * N, -1)
    out = T.linear_points_global(p, g, w, b)
    assert out._op == "linear_points_global" and out._parents == (p, g, w, b)
    np.testing.assert_allclose(out.data, cat @ w.data + b.data, rtol=1e-12, atol=1e-12)
    T.backward(T.tsum(T.mul(out, Tensor(r))))
    dcat = (r @ w.data.T).reshape(B, N, -1)
    for got, want in ((p.grad, dcat[..., :dp]), (g.grad, dcat[..., dp:].sum(axis=1)),
                      (w.grad, cat.T @ r), (b.grad, r.sum(axis=0))):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_linear_points_global_shape_errors():
    p, g, w, b = _points_global_inputs(np.random.default_rng(0), np.float32)
    bad = [(Tensor(np.ones((15, 4))), g, w, b),            # p not [B, N, Dp]
           (p, Tensor(np.ones((2, 6))), w, b),             # other cloud count
           (p, Tensor(np.ones((3, 5))), w, b),             # Dp + Dg != rows of w
           (p, g, w, Tensor(np.ones(4)))]                  # bias width
    for args in bad:
        with pytest.raises(T.ShapeError, match="linear_points_global"):
            T.linear_points_global(*args)
