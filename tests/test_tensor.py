import tracemalloc
import weakref

import numpy as np
import pytest

from pointcl import models, tensor as T, training
from pointcl.losses import LossConfig
from pointcl.tensor import Tensor
from pointcl.training import TrainConfig, pretrain

from oracles import (finite_difference_grads, max_rel_error, mul, reference_accum,
                     reference_cross_entropy, reference_encoder_layer,
                     reference_shared_mlp_max_pool, scale, tsum)


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
        return tsum(mul(T.linear_forward(x, w, b), r))

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
    T.backward(tsum(mul(out, Tensor(r))))
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
    T.backward(tsum(T.relu(x)))
    assert np.allclose(x.grad, [0.0, 1.0])


def test_relu_tie_gradient_zero():
    x = Tensor([0.0], requires_grad=True)
    T.backward(tsum(T.relu(x)))
    assert x.grad[0] == 0.0


def _max_pool(x):
    """The max over the points of x [B, N, D] through shared_mlp_max_pool,
    with an identity weight and, in eval mode, a batch norm whose inv is
    exactly 1: the pool and a relu that leaves positive values as they are.
    Eval mode records no node; _routes takes the pool's gradient."""
    B, N, D = x.shape
    bn = T.BNState(D, dtype=x.dtype)
    bn.running_var[:] = 1.0 - T._BN_EPS
    return T.shared_mlp_max_pool(T.reshape(x, (B * N, D)), Tensor(np.eye(D, dtype=x.dtype)),
                                 bn, 0.9, False, N)


def _routes(clouds):
    """Where training mode's pool sends each gradient, as 0/1 arrays [B, N, D]:
    for the clouds [B, N, D], and for their copies with the points reversed,
    in the copies' own point order.

    Both run as one batch through shared_mlp_max_pool with an identity
    weight, the copies' pooled gradient -1 against the clouds' +1. Each
    column's maxima then cancel in dgamma and dbeta, and with them batch
    norm's statistics terms, exactly when every centred value is exact:
    clouds of quarter-integers whose 2 * B * N rows are a power of 2. So x's
    gradient is a_j at each cloud's routed point, -a_j at each copy's and 0
    elsewhere."""
    B, N, D = clouds.shape
    both = np.concatenate([clouds, clouds[:, ::-1]])
    x = Tensor(both.reshape(2 * B * N, D), dtype=np.float64, requires_grad=True)
    bn = T.BNState(D, dtype=np.float64)
    bn.beta.data[:] = 10.0  # every pooled value above the relu kink
    sign = Tensor(np.repeat([1.0, -1.0], B)[:, None] * np.ones(D))
    T.backward(tsum(mul(T.shared_mlp_max_pool(x, Tensor(np.eye(D)), bn, 0.9, True, N), sign)))
    r = x.grad.reshape(2, B, N, D) / x.grad.max(axis=0)  # a_j: the clouds' routed value
    assert np.isin(r, (-1.0, 0.0, 1.0)).all()
    return r[0], -r[1]


def test_max_pool_values():
    x = Tensor([[[1.0, 5.0], [3.0, 2.0]]])
    assert np.array_equal(_max_pool(x).data, [[3.0, 5.0]])


def test_max_pool_single_point():
    x = Tensor(np.arange(4, dtype=np.float32).reshape(1, 1, 4))
    assert np.array_equal(_max_pool(x).data, [[0, 1, 2, 3]])


def test_max_pool_permutation_invariant(rng):
    x = rng.normal(size=(2, 9, 5)).astype(np.float32)
    perm = rng.permutation(9)
    a = _max_pool(Tensor(x)).data
    b = _max_pool(Tensor(x[:, perm])).data
    assert (a == b).all()


def test_max_pool_empty_cloud():
    with pytest.raises(T.ShapeError, match="N = 0"):
        _max_pool(Tensor(np.zeros((1, 0, 3))))


def test_max_pool_tie_routes_first():
    """The cloud [2, 2, 0, 0] ties at its max: its gradient goes to point 0,
    and its reversed copy's to point 2, the first of the tie there."""
    route, copy = _routes(np.array([[[2.0], [2.0], [0.0], [0.0]]]))
    assert np.array_equal(route[0, :, 0], [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(copy[0, :, 0], [0.0, 0.0, 1.0, 0.0])


def test_max_pool_gradient_goes_to_argmax_on_finite_ties():
    r = np.random.default_rng(0).integers(1, 4, size=(4, 8, 5)).astype(float)
    for clouds, got in zip((r, r[:, ::-1]), _routes(r)):
        want = np.zeros_like(r)
        np.put_along_axis(want, clouds.argmax(axis=1)[:, None], 1.0, axis=1)
        assert np.array_equal(got, want)


def _assert_inference(out, op, params):
    """An eval-mode encoder op records no node: its output keeps the op's
    name but has no parents and no backward, and a backward through it
    leaves every parameter's gradient None."""
    assert (out._op, out._parents, out._backward) == (op, (), None)
    T.backward(tsum(out))
    assert all(p.grad is None for p in params)


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


def _logit_ce(logits, labels):
    """linear_cross_entropy of raw logits: an identity weight and a zero bias
    leave the logits, and the logits' gradient, exact."""
    K = logits.shape[1]
    return T.linear_cross_entropy(logits, Tensor(np.eye(K), dtype=logits.dtype),
                                  Tensor(np.zeros(K), dtype=logits.dtype), labels)


def test_softmax_ce_uniform():
    logits = Tensor(np.zeros((3, 16)))
    loss = _logit_ce(logits, [0, 5, 15])
    assert abs(loss.item() - np.log(16)) < 1e-6


def test_softmax_ce_saturated():
    logits = np.zeros((1, 4))
    logits[0, 2] = 1000.0
    assert _logit_ce(Tensor(logits), [2]).item() < 1e-6


def test_softmax_ce_hand_value():
    loss = _logit_ce(Tensor([[1.0, 0.0]]), [0])
    assert abs(loss.item() - np.log(1 + np.exp(-1))) < 1e-6


def test_softmax_ce_label_out_of_range():
    with pytest.raises(IndexError):
        _logit_ce(Tensor(np.zeros((1, 3))), [3])


def test_softmax_ce_nonnegative(rng):
    for _ in range(20):
        logits = Tensor(rng.normal(size=(4, 6)))
        labels = rng.integers(0, 6, size=4)
        assert _logit_ce(logits, labels).item() >= 0.0


def test_softmax_ce_empty_batch_names_shape():
    with pytest.raises(T.ShapeError, match=r"\(0, 3\)"):
        _logit_ce(Tensor(np.zeros((0, 3))), [])


@pytest.mark.parametrize("K", [2, 8, 128])
def test_softmax_ce_finite_differences(rng, K):
    logits = Tensor(2.0 * rng.normal(size=(5, K)), dtype=np.float64, requires_grad=True)
    labels = rng.integers(0, K, size=5)

    def f():
        return _logit_ce(logits, labels)

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
    loss = _logit_ce(logits, labels)
    ref_loss, ref_grad = reference_cross_entropy(logits.data, labels)
    assert loss.dtype == np.float32
    assert np.isclose(loss.item(), ref_loss, rtol=1e-6, atol=1e-3)
    T.backward(loss)
    assert logits.grad.dtype == np.float32
    assert np.allclose(logits.grad, ref_grad, rtol=1e-5, atol=1e-7)
    first = logits.grad.copy()
    T.backward(loss)
    assert np.array_equal(logits.grad, 2 * first)


@pytest.mark.parametrize("frozen_x", [False, True])
def test_linear_cross_entropy_finite_differences(rng, frozen_x):
    """frozen_x is the probe. The loss is scaled by 2.5 above the node, so
    the backward must scale the gradients it kept from the forward."""
    x, w, b = _linear_inputs(rng, np.float64, frozen_x, rows=11, din=4, dout=5)
    labels = rng.integers(0, 5, size=11)
    params = [w, b] if frozen_x else [x, w, b]

    def forward():
        return scale(T.linear_cross_entropy(x, w, b, labels), 2.5)

    T.backward(forward())
    assert (x.grad is None) == frozen_x
    grads = [p.grad.copy() for p in params]
    fd = finite_difference_grads(lambda: forward().item(), params, h=1e-5)
    assert max_rel_error(grads, fd) < 1e-6


def test_linear_cross_entropy_float32_matches_two_ops(rng):
    """Loss and gradients equal the float64 oracle's on linear_forward's
    logits, with the chain rule through the affine layer, on float32 logits
    with a saturated row."""
    x, w, b = _linear_inputs(rng, np.float32, rows=300, din=16, dout=9)
    x.data[0] *= 1e3
    labels = rng.integers(0, 9, size=300)
    loss = T.linear_cross_entropy(x, w, b, labels)
    assert loss._op == "linear_cross_entropy" and loss._parents == (x, w, b)
    assert loss.dtype == np.float32
    T.backward(loss)
    x64, w64 = x.data.astype(np.float64), w.data.astype(np.float64)
    ref_loss, gl = reference_cross_entropy(x64 @ w64 + b.data, labels)
    assert np.isclose(loss.item(), ref_loss, rtol=1e-6)
    for p, ref in zip((x, w, b), (gl @ w64.T, x64.T @ gl, gl.sum(axis=0))):
        assert p.grad.dtype == np.float32 and p.grad.shape == p.shape
        np.testing.assert_allclose(p.grad, ref, rtol=1e-4, atol=1e-6)


def test_linear_cross_entropy_second_backward_doubles(rng):
    """The node keeps its gradients and changes none of them in backward, so
    a second call on the same graph adds the same leaf gradients again."""
    x, w, b = _linear_inputs(rng, np.float64, rows=9)
    loss = T.linear_cross_entropy(x, w, b, rng.integers(0, 3, size=9))
    T.backward(loss)
    first = [p.grad.copy() for p in (x, w, b)]
    T.backward(loss)
    for p, g in zip((x, w, b), first):
        assert np.array_equal(p.grad, 2 * g)


def test_linear_cross_entropy_runs_the_probe_kernel(rng):
    """The node is one call of the probe's kernel: on float32 inputs with a
    saturated row, its loss and its w and b gradients are the bits of the
    kernel's grads."""
    x, w, b = _linear_inputs(rng, np.float32, rows=300, din=16, dout=9)
    x.data[0] *= 1e3
    labels = rng.integers(0, 9, size=300)
    loss = T.linear_cross_entropy(x, w, b, labels)
    T.backward(loss)
    kernel = T._SoftmaxCE(x.data, labels, 9, "linear_cross_entropy")
    g, want = kernel.grads(w.data, b.data, with_loss=True)
    assert np.array_equal(loss.data, np.float32(want))
    assert np.array_equal(w.grad, g[:-1]) and np.array_equal(b.grad, g[-1])


def test_linear_cross_entropy_checks_like_softmax_cross_entropy():
    """Raw logits (through _logit_ce) and an affine layer's input fail the
    same checks with the same messages."""
    w, b = Tensor(np.zeros((4, 3))), Tensor(np.zeros(3))
    for op in (lambda x, y: _logit_ce(T.linear_forward(x, w, b), y),
               lambda x, y: T.linear_cross_entropy(x, w, b, y)):
        with pytest.raises(T.ShapeError, match=r"empty batch, logits \(0, 3\)"):
            op(Tensor(np.zeros((0, 4))), [])
        with pytest.raises(T.ShapeError, match=r"2 rows but \(3,\) labels"):
            op(Tensor(np.zeros((2, 4))), [0, 1, 2])
        for bad in ([0, 3], [-1, 0]):
            with pytest.raises(IndexError, match=r"label out of range \[0, 3\)"):
                op(Tensor(np.zeros((2, 4))), bad)
    with pytest.raises(T.ShapeError, match="linear_cross_entropy"):
        T.linear_cross_entropy(Tensor(np.zeros((2, 5))), w, b, [0, 1])


@pytest.mark.parametrize("frozen", ["a", "b"])
def test_matmul_frozen_operand(rng, frozen):
    """In linear_forward's product x @ w, the frozen side (a = x, b = w)
    gets no gradient; the other side's equals the two-sided product's bit
    for bit."""
    def operands(a_grad, b_grad):
        r = np.random.default_rng(3)
        return (Tensor(r.normal(size=(6, 4)), requires_grad=a_grad),
                Tensor(r.normal(size=(4, 5)), requires_grad=b_grad))

    weights = Tensor(rng.normal(size=(6, 5)))
    bias = Tensor(np.zeros(5))
    a2, b2 = operands(True, True)
    T.backward(tsum(mul(T.linear_forward(a2, b2, bias), weights)))
    a, b = operands(frozen != "a", frozen != "b")
    T.backward(tsum(mul(T.linear_forward(a, b, bias), weights)))
    frozen_t, live, live2 = (a, b, b2) if frozen == "a" else (b, a, a2)
    assert frozen_t.grad is None
    assert np.array_equal(live.grad, live2.grad)


def test_backward_sum_all_ones():
    x = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
    T.backward(tsum(x))
    assert (x.grad == 1.0).all()


def test_backward_square():
    x = Tensor([1.0, 2.0], requires_grad=True)
    T.backward(tsum(mul(x, x)))
    assert np.allclose(x.grad, [2.0, 4.0])


def _record_grads(monkeypatch):
    """Every gradient _accum stores, in store order, as (tensor, stored
    array): backward drops an interior gradient once it is spent, so a test
    reads interior gradients here, captured while backward runs."""
    stored, accum = [], T._accum

    def recording(t, g):
        accum(t, g)
        if t.grad is not None:
            stored.append((t, t.grad))

    monkeypatch.setattr(T, "_accum", recording)
    return stored


def _last_grads(stored, tensors):
    """Each tensor's last stored gradient, from _record_grads's list."""
    last = {id(t): g for t, g in stored}
    return [last[id(t)] for t in tensors]


@pytest.mark.parametrize("depth", [1, 3])
def test_second_backward_doubles_leaf_gradient(monkeypatch, depth):
    """Leaf gradients add up over two calls on one graph; the intermediate
    ones start from nothing in each call, so a chain of one or three nodes
    below the loss adds the first call's gradient once, not again on the
    way down: each call stores the same gradient at every chain node."""
    x = Tensor(np.array([-1.0, 0.5, 2.0]), dtype=np.float64, requires_grad=True)
    chain = [T.relu(x)]
    if depth == 3:
        chain.append(scale(chain[-1], 3.0))
        chain.append(mul(chain[-1], Tensor(np.array([0.5, -2.0, 1.5]))))
    loss = tsum(chain[-1])
    stored = _record_grads(monkeypatch)
    T.backward(loss)
    first = x.grad.copy()
    inner = _last_grads(stored, chain)
    assert first[0] == 0 and (first[1:] != 0).all()
    del stored[:]
    T.backward(loss)
    assert np.array_equal(x.grad, 2 * first)
    assert all(np.array_equal(g, h) for g, h in zip(_last_grads(stored, chain), inner))
    assert all(t.grad is None for t in chain)


def test_interior_node_is_handed_its_gradient(rng):
    """backward clears an interior node's .grad before it calls the node's
    backward and keeps the gradient in no local of its own: while the call
    runs the node reads .grad None, and the call's argument is the only
    reference to its gradient, so dropping it frees the array."""
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    seen = []

    def bw(g):
        seen.append(node.grad is None)
        gone = weakref.ref(g)
        del g
        seen.append(gone() is None)
        T._accum(x, np.full(x.shape, 2.0))

    node = T._result(x.data * 2, (x,), bw, "double")
    T.backward(tsum(node))
    assert seen == [True, True]
    assert node.grad is None and (x.grad == 2.0).all()


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
        pooled = T.shared_mlp_max_pool(Tensor(x.reshape(12, 3), dtype=np.float64), w1,
                                       state, 0.9, True, 6)
        return T.linear_cross_entropy(pooled, w2, b2, labels)

    loss = forward()
    T.backward(loss)
    grads = [p.grad.copy() for p in params]
    for p in params:
        p.grad = None
    fd = finite_difference_grads(lambda: forward().item(), params, h=1e-4)
    assert max_rel_error(grads, fd) < 1e-4


def test_dropout_rate_zero_is_identity(rng):
    x = Tensor(rng.normal(size=(4, 4)))
    assert (T.dropout(x, 0.0, rng).data == x.data).all()


def test_dropout_rate_one_rejected(rng):
    with pytest.raises(ValueError):
        T.dropout(Tensor(np.ones(3)), 1.0, rng)


def test_dropout_empirical_zero_fraction():
    rng = np.random.default_rng(99)
    x = Tensor(np.ones(100_000))
    out = T.dropout(x, 0.5, rng)
    frac = (out.data == 0).mean()
    assert abs(frac - 0.5) < 0.01
    survivors = out.data[out.data != 0]
    assert np.allclose(survivors, 2.0)


def test_forward_backward_deterministic(rng):
    x = rng.normal(size=(3, 4)).astype(np.float32)

    def run():
        t = Tensor(x.copy(), requires_grad=True)
        d = T.dropout(T.relu(t), 0.3, np.random.default_rng(5))
        T.backward(tsum(d))
        return t.grad.copy()

    assert (run() == run()).all()


@pytest.mark.parametrize("key", [1, slice(1, 3), (2, slice(0, 3, 2))])
def test_index_gradient_finite_differences(key):
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
    assert np.array_equal(T.index(x, key).data, x.data[key])
    w = Tensor(rng.normal(size=x.data[key].shape))

    def f():
        return tsum(mul(T.index(x, key), w))

    T.backward(f())
    grad = x.grad.copy()
    x.grad = None
    fd = finite_difference_grads(lambda: f().item(), [x])
    assert max_rel_error([grad], fd) < 1e-6


@pytest.mark.parametrize("key", [np.array([0, 2]), [0, 2], (slice(None), np.array([1, 1])),
                                 np.array([True, False, True])])
def test_index_rejects_index_arrays(key):
    with pytest.raises(T.ShapeError, match="not ints and slices"):
        T.index(Tensor(np.ones((3, 4)), requires_grad=True), key)


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
    if not training:  # inference: no gradient to difference
        _assert_inference(T.shared_mlp(x, w, bn, 0.9, False), "shared_mlp", params)
        return

    def forward():
        return tsum(mul(T.shared_mlp(x, w, bn, 0.9, training), r))

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
    np.testing.assert_allclose(out.data, want, rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(bn.running_mean, want_mean, rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(bn.running_var, want_var, rtol=1e-5)
    if not training:
        _assert_inference(out, "shared_mlp", (x, w, bn.gamma, bn.beta))
        return
    assert out._op == "shared_mlp" and out._parents == (x, w, bn.gamma, bn.beta)
    T.backward(tsum(mul(out, Tensor(r))))
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
    """Eval mode's values are np.max's, and training mode routes each
    gradient to np.argmax's point; neither calls argmax."""
    x = np.round(np.maximum(rng.normal(size=(4, 8, 5)), 0) * 4) / 4 + 1.0  # relu's zeros tie, at 1

    def no_argmax(*args, **kwargs):
        raise AssertionError("forward pass called argmax")

    monkeypatch.setattr(np, "argmax", no_argmax)
    out = _max_pool(Tensor(x))
    route, _ = _routes(x)
    monkeypatch.undo()
    assert (out.data == np.max(x, axis=1)).all()
    want = np.zeros_like(x)
    idx = np.argmax(x, axis=1)
    for bi in range(4):
        for d in range(5):
            want[bi, idx[bi, d], d] = 1.0
    assert (route == want).all()


def test_shared_gradient_is_not_aliased(monkeypatch):
    """One leaf read through two views: the second gradient adds out of
    place, so the first view's stored gradient keeps its value."""
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    u, v = T.reshape(x, (3, 1)), T.reshape(x, (3, 1))
    stored = _record_grads(monkeypatch)
    T.backward(tsum(mul(u, v)))
    gu, gv = _last_grads(stored, [u, v])
    assert np.array_equal(x.grad, [2.0, 4.0, 6.0])
    assert np.array_equal(gu, [[1.0], [2.0], [3.0]])
    assert np.array_equal(gv, [[1.0], [2.0], [3.0]])


def _tape(loss):
    """Every tensor reachable from loss, loss included."""
    seen, stack = {}, [loss]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t._parents)
    return list(seen.values())


def _small_step(objective):
    """A model and the loss of one training step of objective on it, with
    dropout and every loss option on."""
    rng = np.random.default_rng(5)
    cfg = TrainConfig(pairs_per_batch=3, points_per_cloud=6, encoder_widths=[6, 8, 10],
                      head_widths=[6, 4], seg_widths=[6, 4], dropout_rate=0.5,
                      loss=LossConfig(symmetric=True, exclude_positive=True))
    model = models.ModelParams.create(rng, encoder_widths=cfg.encoder_widths,
                                      head_widths=cfg.head_widths,
                                      seg_widths=cfg.seg_widths, with_seg=True,
                                      dropout_rate=cfg.dropout_rate)
    return model, training._forward_loss(model, rng.normal(size=(3, 6, 3)),
                                         rng.normal(size=(3, 6, 3)), cfg, rng, objective)


@pytest.mark.parametrize("objective", ["cls", "seg"])
def test_stored_gradients_are_read_only(monkeypatch, objective):
    _, loss = _small_step(objective)
    stored = _record_grads(monkeypatch)
    T.backward(loss)
    assert len({id(t) for t, _ in stored}) > 20
    assert [t._op for t, g in stored if g.flags.writeable] == []


@pytest.mark.parametrize("objective", ["cls", "seg"])
def test_backward_keeps_leaf_gradients_only(objective):
    """After backward every interior node's gradient is spent and dropped,
    the loss's included, and every trainable leaf the step reaches holds
    its gradient: the encoder's and the head's (cls) or the seg branch's."""
    model, loss = _small_step(objective)
    T.backward(loss)
    tape = _tape(loss)
    interior = [t for t in tape if t._backward is not None]
    trained = model.encoder.params() + (model.head if objective == "cls" else model.seg).params()
    assert len(interior) > 10 and loss in interior
    assert [t._op for t in interior if t.grad is not None] == []
    assert {id(t) for t in tape if t._backward is None and t.requires_grad} == {
        id(p) for p in trained}
    assert all(p.grad is not None for p in trained)


def test_first_gradient_is_not_copied(monkeypatch):
    x = Tensor(np.arange(6.0), requires_grad=True)
    y = T.reshape(x, (2, 3))
    stored = _record_grads(monkeypatch)
    T.backward(tsum(scale(y, 3.0)))
    assert np.shares_memory(x.grad, _last_grads(stored, [y])[0])
    assert (x.grad == 3.0).all()


def test_walk_that_raised_leaves_no_stale_gradient():
    """A backward that raised after it stored an interior gradient, before
    that node ran, leaves the gradient behind; the next call resets it
    before its walk, so the leaf gets one call's gradient, not two."""
    x = Tensor(np.arange(3.0), requires_grad=True)
    y = T.reshape(x, (3, 1))
    raises = [True]

    def bw(g):
        T._accum(y, g * 2)
        if raises.pop():
            raise RuntimeError("injected")

    loss = tsum(T._result(y.data * 2, (y,), bw, "double_then_raise"))
    with pytest.raises(RuntimeError, match="injected"):
        T.backward(loss)
    assert x.grad is None and y.grad is not None
    raises.append(False)
    T.backward(loss)
    assert (x.grad == 2.0).all() and y.grad is None


def test_backward_writing_its_incoming_gradient_raises():
    x = Tensor(np.ones(3), requires_grad=True)

    def bw(g):
        g *= 2
        T._accum(x, g)

    doubled = T._result(x.data * 2, (x,), bw, "double_in_place")
    with pytest.raises(ValueError, match="read-only"):
        T.backward(tsum(scale(doubled, 1.0)))


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


def _mix_gamma_signs(bn):
    """Negate gamma in every third channel and zero it in channel 1. Its
    beta < 0 keeps channel 1 dead: at gamma = 0 a live channel's pool has a
    kink in gamma (the max of t on one side, the min on the other)."""
    bn.gamma.data[::3] *= -1
    bn.gamma.data[1] = 0
    bn.beta.data[1] = -0.5


@pytest.mark.parametrize("pooled", [False, True], ids=["shared_mlp", "shared_mlp_max_pool"])
def test_eval_mode_fold_matches_unfolded_float64(rng, pooled):
    """Eval mode folds batch norm into the weight. Its values, with negative
    and zero gamma channels, equal the unfolded
    relu((x @ w - running_mean) * inv * gamma + beta), which for the pooled
    op is taken over every point and then maxed."""
    B, N = 8, 32
    x, w, bn = _shared_mlp_inputs(rng, np.float64, rows=B * N, din=16, dout=32)
    _mix_gamma_signs(bn)
    inv = 1.0 / np.sqrt(bn.running_var + T._BN_EPS)
    want = np.maximum((x.data @ w.data - bn.running_mean) * inv * bn.gamma.data
                      + bn.beta.data, 0)
    if pooled:
        out = T.shared_mlp_max_pool(x, w, bn, 0.9, False, N)
        want = want.reshape(B, N, -1).max(axis=1)
    else:
        out = T.shared_mlp(x, w, bn, 0.9, False)
    np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("training", [True, False])
def test_shared_mlp_max_pool_finite_differences(rng, training):
    """With gamma in [0.5, 1.5], then with negative and zero gamma channels,
    whose pool takes the min of the pre-activation (or nothing)."""
    for mixed in (False, True):
        x, w, bn = _shared_mlp_inputs(rng, np.float64)  # 12 rows: 3 clouds of 4 points
        if mixed:
            _mix_gamma_signs(bn)
        r = Tensor(rng.normal(size=(3, 5)), dtype=np.float64)
        params = [x, w, bn.gamma, bn.beta]
        if not training:  # inference: no gradient to difference
            _assert_inference(T.shared_mlp_max_pool(x, w, bn, 0.9, False, 4),
                              "shared_mlp_max_pool", params)
            continue

        def forward():
            return tsum(mul(T.shared_mlp_max_pool(x, w, bn, 0.9, training, 4), r))

        T.backward(forward())
        grads = [p.grad.copy() for p in params]
        fd = finite_difference_grads(lambda: forward().item(), params, h=1e-5)
        assert max_rel_error(grads, fd) < 1e-6, mixed


@pytest.mark.parametrize("training", [True, False])
def test_shared_mlp_max_pool_equals_unfused_chain_float32(rng, training):
    """Values, BN running statistics and gradients of the fused node against
    the dense reference (the affine and relu over every point, then the max)
    on the same float32 inputs, also with negative and zero gamma channels.
    Both modes fold batch norm into the weight, and training mode takes its
    statistics from x's Gram matrix: each rounds unlike the reference."""
    B, N = 8, 32
    for mixed in (False, True):
        x, w, bn = _shared_mlp_inputs(rng, np.float32, rows=B * N, din=16, dout=32)
        if mixed:
            _mix_gamma_signs(bn)
        r = rng.normal(size=(B, 32)).astype(np.float32)
        x2, w2, bn2 = _copy_layer(x, w, bn)

        out = T.shared_mlp_max_pool(x, w, bn, 0.8, training, N)
        want = reference_shared_mlp_max_pool(x2, w2, bn2, 0.8, training, N)
        for got, ref in ((out.data, want.data), (bn.running_mean, bn2.running_mean),
                         (bn.running_var, bn2.running_var)):
            np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5 * np.abs(ref).max())
        if not training:
            _assert_inference(out, "shared_mlp_max_pool", (x, w, bn.gamma, bn.beta))
            continue
        T.backward(tsum(mul(out, Tensor(r))))
        T.backward(tsum(mul(want, Tensor(r))))
        for name, p, q in zip(("x", "w", "gamma", "beta"), (x, w, bn.gamma, bn.beta),
                              (x2, w2, bn2.gamma, bn2.beta)):
            np.testing.assert_allclose(p.grad, q.grad, rtol=1e-4,
                                       atol=1e-5 * np.abs(q.grad).max(),
                                       err_msg=f"{name}, mixed={mixed}")


@pytest.mark.parametrize("training", [True, False])
def test_shared_mlp_max_pool_keeps_one_layer_array(rng, training):
    """After the forward, the node keeps the centred pre-activation and
    [B, D] arrays only: at most 1.25 x R*D*itemsize bytes. A dense forward
    that keeps xhat and the relu output holds over 2x."""
    B, N, D = 8, 64, 256
    x, w, bn = _shared_mlp_inputs(rng, np.float32, rows=B * N, din=16, dout=D)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = T.shared_mlp_max_pool(x, w, bn, 0.9, training, N)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert (out._backward is not None) == training  # eval mode records no node
    assert kept <= 1.25 * B * N * D * 4, kept / (B * N * D * 4)


def test_shared_mlp_eval_keeps_one_layer_array(rng):
    """Eval mode builds relu(x @ (w * a) + c) in one [R, D] array and keeps
    nothing else that size: at most 1.25 x R*D*itemsize bytes after the
    forward. Keeping xhat beside the output holds over 2x."""
    R, D = 512, 256
    x, w, bn = _shared_mlp_inputs(rng, np.float32, rows=R, din=16, dout=D)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = T.shared_mlp(x, w, bn, 0.9, False)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out._backward is None
    assert kept <= 1.25 * R * D * 4, kept / (R * D * 4)


def test_eval_pool_peaks_near_one_block(rng):
    """Eval mode pools in blocks of clouds as training mode does, and drops
    each block's product before it forms the next: the traced peak of a
    [32*128, 128] -> 1024 call stays within two blocks of the product (one
    block plus w * a and the pooled outputs, about 1.45 blocks), where the
    whole-batch [4096, 1024] product alone is 16.8 MB."""
    B, N, D = 32, 128, 1024
    x, w, bn = _shared_mlp_inputs(rng, np.float32, rows=B * N, din=128, dout=D)
    x.requires_grad = False
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        T.shared_mlp_max_pool(x, w, bn, 0.9, False, N)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2 * T._POOL_BLOCK * 4, peak / (T._POOL_BLOCK * 4)


def test_seg_step_backward_drops_spent_gradients():
    """One desk seg step (16 pairs of 128 points, encoder 32,64,128, seg
    branch 64,32): backward drops each interior gradient once its node has
    run, so its traced peak above the tape it starts from is 5.1 MiB.
    Keeping every interior gradient until the tape was freed peaked at
    8.6 MiB; the bound sits between the two."""
    rng = np.random.default_rng(0)
    cfg = TrainConfig(pairs_per_batch=16, points_per_cloud=128,
                      encoder_widths=[32, 64, 128], dropout_rate=0.0, transform="smooth")
    model = models.ModelParams.create(rng, encoder_widths=cfg.encoder_widths,
                                      head_widths=cfg.head_widths,
                                      seg_widths=cfg.seg_widths, with_seg=True)
    orig = rng.normal(size=(16, 128, 3)).astype(np.float32)
    trans = orig + np.float32(0.01) * rng.normal(size=orig.shape).astype(np.float32)
    loss = training._forward_loss(model, orig, trans, cfg, rng, "seg")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        T.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 6.8 * 2**20, peak / 2**20


def _full_cls_step_peak():
    """The traced forward-plus-backward peak, above its start, of one
    full-preset cls step: 16 pairs of 128 points, encoder
    64,64,64,128,1024, head 512,256, dropout 0.7."""
    rng = np.random.default_rng(0)
    cfg = TrainConfig(pairs_per_batch=16, points_per_cloud=128,
                      encoder_widths=list(models.FULL_ENCODER_WIDTHS), head_widths=[512, 256],
                      dropout_rate=0.7, transform="rotate:y:180")
    model = models.ModelParams.create(rng, encoder_widths=cfg.encoder_widths,
                                      head_widths=cfg.head_widths,
                                      dropout_rate=cfg.dropout_rate)
    orig = rng.normal(size=(16, 128, 3)).astype(np.float32)
    trans = orig + np.float32(0.01) * rng.normal(size=orig.shape).astype(np.float32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        T.backward(training._forward_loss(model, orig, trans, cfg, rng, "cls"))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak


def test_full_cls_step_keeps_no_centred_pool_input():
    """One full-preset cls step (16 pairs of 128 points, encoder
    64,64,64,128,1024, head 512,256, dropout 0.7; the pooled layer runs 8
    blocks of 4 clouds): the pooled layer keeps no centred input xs on the
    tape, and shared_mlp's backward drops gh before its [R, Din] correction,
    so the forward-plus-backward traced peak above the step's start was 16.8
    MiB (13.74 MiB with the cuts of the next test). Keeping xs on the tape
    until backward peaked at 19.0 MiB; the bound sits between the two."""
    peak = _full_cls_step_peak()
    assert peak <= 17.9 * 2**20, peak / 2**20


def test_full_cls_step_backward_hands_off_and_recomputes():
    """The full-preset cls step of the test above: backward hands each
    gradient to its node, shared_mlp's backward masks it a block of rows at
    a time and drops it once gh is formed, batch norm keeps its [Din, Din]
    Gram matrix rather than C @ w, and the pooled node forms w * a again in
    backward, gathers the winners' rows of x rather than forming its
    centred input whole and runs its correction over its blocks of clouds.
    The traced peak above the step's start is 13.74 MiB, down from 16.77.
    Keeping C @ w on the node peaked at 14.19 MiB, keeping w * a at 14.24,
    and binding the gradient in backward's loop at 14.08; the bound sits
    below all three."""
    peak = _full_cls_step_peak()
    assert peak <= 13.9 * 2**20, peak / 2**20


def test_shared_mlp_backward_drops_gh_before_its_correction(rng):
    """A training-mode [4096, 64] -> 128 layer: the backward drops gh, the
    [R, D] gradient at the batch norm's output, once xs^T gh and colsum(gh)
    are formed, so its traced peak above its start is 2.02 x R*D*itemsize
    bytes. Keeping gh through _layer_backward's [R, Din] correction peaked
    at 2.54; the bound sits between the two."""
    R, D = 4096, 128
    x, w, bn = _shared_mlp_inputs(rng, np.float32, rows=R, din=64, dout=D)
    out = T.shared_mlp(x, w, bn, 0.9, True)
    g = np.ones_like(out.data)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out._backward(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * R * D * 4, peak / (R * D * 4)


def test_eval_pool_blocks_equal_one_block(rng, monkeypatch):
    """Pooled in 4 blocks of 3, 3, 3 and 1 clouds, eval mode's values equal
    those of the whole batch in one block, bit for bit."""
    B, N, D = 10, 16, 64
    x, w, bn = _shared_mlp_inputs(rng, np.float32, rows=B * N, din=32, dout=D)
    monkeypatch.setattr(T, "_POOL_BLOCK", 3 * N * D)
    blocked = T.shared_mlp_max_pool(x, w, bn, 0.9, False, N).data
    monkeypatch.setattr(T, "_POOL_BLOCK", B * N * D)
    whole = T.shared_mlp_max_pool(x, w, bn, 0.9, False, N).data
    assert np.array_equal(blocked, whole)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_shared_mlp_mask_blocks_equal_one_block(rng, monkeypatch, dtype):
    """shared_mlp's backward masks g a block of about _GRAD_BLOCK entries at
    a time: in blocks of 3 rows (53 of them, then 1 row) every gradient
    equals, bit for bit, the one from gh masked whole."""
    R, D = 160, 64
    x, w, bn = _shared_mlp_inputs(rng, dtype, rows=R, din=32, dout=D)
    r = Tensor(rng.normal(size=(R, D)), dtype=dtype)
    grads = []
    for block in (3 * D, R * D):
        monkeypatch.setattr(T, "_GRAD_BLOCK", block)
        for p in (x, w, bn.gamma, bn.beta):
            p.grad = None
        T.backward(tsum(mul(T.shared_mlp(x, w, bn, 0.9, True), r)))
        grads.append([p.grad for p in (x, w, bn.gamma, bn.beta)])
    for blocked, whole in zip(*grads):
        assert np.array_equal(blocked, whole)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("din, dout", [(128, 1024), (64, 128)], ids=["full", "desk"])
def test_layer_backward_blocks_equal_one_block(rng, din, dout, dtype):
    """_layer_backward's correction dx -= xs @ K, run over the 8 row blocks
    of 4 clouds that the full preset's pooled layer forms from 32 clouds of
    128 points, gives the bits of the whole-array xs @ K, at the full
    [4096, 128] -> 1024 layer and at the desk [4096, 64] -> 128 one."""
    B, N = 32, 128
    assert max(1, T._POOL_BLOCK // (N * 1024)) == 4
    x, w, bn = _shared_mlp_inputs(rng, dtype, rows=B * N, din=din, dout=dout)
    xs, a, _, stats = T._bn_affine(x.data, w.data, bn, 0.9, True)
    xg = rng.normal(size=(din, dout)).astype(dtype)
    dbeta = rng.normal(size=dout).astype(dtype)
    dx0 = rng.normal(size=(B * N, din)).astype(dtype)
    grads = []
    for blocks in ([slice(s, s + 4 * N) for s in range(0, B * N, 4 * N)], [slice(None)]):
        x.grad = w.grad = bn.gamma.grad = bn.beta.grad = None
        T._layer_backward(x, w, bn, a, stats, xg, dbeta, dx0.copy(), blocks)
        grads.append([p.grad for p in (x, w, bn.gamma, bn.beta)])
    inv = stats[0]
    dgamma = inv * np.einsum("ij,ij->j", w.data, xg)
    want = dx0 - xs @ ((w.data * (inv * a * dgamma / len(xs))) @ w.data.T)
    want -= w.data @ (a * dbeta / len(xs))
    assert np.array_equal(grads[0][0], want)
    for blocked, whole in zip(*grads):
        assert np.array_equal(blocked, whole)


def _layer(pooled, x, w, bn, momentum, training, n_points):
    if pooled:
        return T.shared_mlp_max_pool(x, w, bn, momentum, training, n_points)
    return T.shared_mlp(x, w, bn, momentum, training)


@pytest.mark.parametrize("pooled, bound", [(False, 1.25), (True, 0.25)],
                         ids=["shared_mlp", "shared_mlp_max_pool"])
def test_training_forward_keeps_no_pre_activation(rng, pooled, bound):
    """Training mode keeps no [R, D] array besides shared_mlp's output: after
    the forward, at most bound x R*D*itemsize bytes. Keeping x @ w (or its
    normalized form) beside them holds 1x more."""
    B, N, D = 8, 64, 256
    x, w, bn = _shared_mlp_inputs(rng, np.float32, rows=B * N, din=16, dout=D)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = _layer(pooled, x, w, bn, 0.9, True, N)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out._backward is not None
    assert kept <= bound * B * N * D * 4, kept / (B * N * D * 4)


@pytest.mark.parametrize("pooled", [False, True], ids=["shared_mlp", "shared_mlp_max_pool"])
def test_training_mode_on_shifted_input_matches_reference(rng, pooled):
    """Float32 input columns whose mean is 100x their spread: training mode's
    values, running_var and gradients agree with the unfused float64
    reference to rtol 1e-4; for the pooled op, the reference's output is
    maxed over the points and its gradient routed to the max. Statistics from
    the uncentred Gram matrix x^T x / R - xm xm^T miss the batch variance of
    such input by up to 1.7e-2."""
    B, N, D = 8, 32, 32
    x, w, bn = _shared_mlp_inputs(rng, np.float32, rows=B * N, din=16, dout=D)
    x.data = x.data + np.float32(100)
    r = rng.normal(size=(B if pooled else B * N, D)).astype(np.float32)
    args = (x.data, w.data, bn.gamma.data, bn.beta.data,
            bn.running_mean.astype(np.float64), bn.running_var.astype(np.float64), 0.8, True)
    want, gout = reference_encoder_layer(*args, np.zeros((B * N, D)))[0], r
    if pooled:
        win = want.reshape(B, N, D).argmax(axis=1) + N * np.arange(B)[:, None]
        gout = np.zeros((B * N, D))
        gout[win, np.arange(D)] = r
        want = want.reshape(B, N, D).max(axis=1)
    _, want_grads, _, want_var = reference_encoder_layer(*args, gout)

    out = _layer(pooled, x, w, bn, 0.8, True, N)
    T.backward(tsum(mul(out, Tensor(r))))
    np.testing.assert_allclose(out.data, want, rtol=1e-4, atol=1e-4 * np.abs(want).max())
    np.testing.assert_allclose(bn.running_var, want_var, rtol=1e-4)
    for name, p in zip(("x", "w", "gamma", "beta"), (x, w, bn.gamma, bn.beta)):
        np.testing.assert_allclose(p.grad, want_grads[name], rtol=1e-4,
                                   atol=1e-4 * np.abs(want_grads[name]).max(), err_msg=name)


@pytest.mark.parametrize("clouds", [1, 2])
def test_shared_mlp_max_pool_blocks_match_one_block(rng, monkeypatch, clouds):
    """Training mode in blocks of 1 or 2 clouds (5 clouds leave a short
    last block) gives one block's values, running statistics and gradients
    to float64 rounding."""
    B, N, D = 5, 8, 5
    r, results = Tensor(rng.normal(size=(B, D))), []
    for block in (T._POOL_BLOCK, clouds * N * D):
        monkeypatch.setattr(T, "_POOL_BLOCK", block)
        x, w, bn = _shared_mlp_inputs(np.random.default_rng(3), np.float64, rows=B * N, dout=D)
        out = T.shared_mlp_max_pool(x, w, bn, 0.9, True, N)
        T.backward(tsum(mul(out, r)))
        results.append([out.data, bn.running_mean, bn.running_var, x.grad, w.grad,
                        bn.gamma.grad, bn.beta.grad])
    for got, want in zip(*results):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("pooled", [False, True], ids=["shared_mlp", "shared_mlp_max_pool"])
def test_training_mode_zero_variance_column_stays_finite(rng, pooled):
    """Input column 0 holds one value at every row and output channel 0
    reads it alone, so that channel's batch variance is 0 up to rounding:
    the output and every gradient stay finite, and with momentum 0 the
    running variance, the batch one, is not negative."""
    x, w, bn = _shared_mlp_inputs(rng, np.float32)  # 12 rows: 3 clouds of 4 points
    x.data[:, 0] = 0.7
    w.data[:, 0] = 0
    w.data[0, 0] = 1.3
    out = _layer(pooled, x, w, bn, 0.0, True, 4)
    T.backward(tsum(mul(out, Tensor(rng.normal(size=out.shape).astype(np.float32)))))
    assert np.isfinite(out.data).all() and (bn.running_var >= 0).all()
    for p in (x, w, bn.gamma, bn.beta):
        assert np.isfinite(p.grad).all()


def test_first_at_max_takes_the_min_where_neg():
    """Channel 0 routes to its first max and channel 2, a NaN column, to
    point 0. Channel 1's m is its min: only point 0 is not below it."""
    x = np.array([[[1.0, 2.0, 1.0], [3.0, 0.0, np.nan], [3.0, 0.0, 0.0]]])
    m = np.array([[3.0, 0.0, np.nan]])
    np.testing.assert_array_equal(T._first_at_max(x, m), [[1, 0, 0]])


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
    for gamma in ([1.0] * 4, [-1.0, 1.0, -1.0, 1.0]):  # ties at the min where gamma < 0
        x, w, bn = _exact_layer_inputs(rng, B, N)
        bn.gamma.data = np.array(gamma)
        x.data = np.repeat(x.data[::N], N, axis=0)
        x2, w2, bn2 = _copy_layer(x, w, bn)
        out = T.shared_mlp_max_pool(x, w, bn, 0.9, training, N)
        ref = reference_shared_mlp_max_pool(x2, w2, bn2, 0.9, training, N)
        np.testing.assert_allclose(out.data, ref.data, rtol=1e-12, atol=1e-12)
        if not training:  # inference: the tied values, and no gradient to route
            _assert_inference(out, "shared_mlp_max_pool", (x, w, bn.gamma, bn.beta))
            continue
        T.backward(tsum(out))
        T.backward(tsum(ref))
        np.testing.assert_allclose(x.grad, x2.grad, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(w.grad, w2.grad, rtol=1e-12, atol=1e-12)
        first, rest = x.grad.reshape(B, N, 3)[:, 0], x.grad.reshape(B, N, 3)[:, 1:]
        assert np.abs(first[:, None] - rest).max(axis=(0, 2)).min() > 0  # first != each tie


@pytest.mark.parametrize("training", [True, False])
def test_shared_mlp_max_pool_dead_channel_gets_no_gradient(rng, training):
    x, w, bn = _exact_layer_inputs(rng, 3, 4)
    bn.beta.data[2] = -100.0  # relu(.) is 0 at every point of channel 2
    r = Tensor(rng.normal(size=(3, 4)))
    out = T.shared_mlp_max_pool(x, w, bn, 0.9, training, 4)
    assert (out.data[:, 2] == 0).all()
    if not training:
        _assert_inference(out, "shared_mlp_max_pool", (x, w, bn.gamma, bn.beta))
        return
    T.backward(tsum(mul(out, r)))
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
        if training:
            T.backward(tsum(out))
            assert np.isfinite(x.grad).all() and (x.grad != 0).any()
        else:
            _assert_inference(out, "shared_mlp_max_pool", ())


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
    T.backward(tsum(mul(out, Tensor(r))))
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
