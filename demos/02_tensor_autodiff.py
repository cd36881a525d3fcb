"""The tape-based tensor engine: forward ops, reverse-mode gradients, and a
finite-difference sanity check.

Run:  python3 demos/02_tensor_autodiff.py
"""

import numpy as np

from pointcl import tensor as T
from pointcl.tensor import Tensor

# A tiny shared-MLP block: x @ w -> batch norm -> relu -> max pool over
# points, one tape node (the encoder's last layer), then an affine
# classifier and its softmax cross-entropy, one tape node too.
rng = np.random.default_rng(0)
w = Tensor(rng.normal(size=(3, 4)), dtype=np.float64, requires_grad=True)
bn = T.BNState(4, dtype=np.float64)  # learned gamma and beta, running stats
points = rng.normal(size=(2, 5, 3))  # 2 clouds, 5 points each
v = Tensor(rng.normal(size=(4, 4)), dtype=np.float64, requires_grad=True)
c = Tensor(np.zeros(4), dtype=np.float64, requires_grad=True)


def forward():
    x = Tensor(points.reshape(10, 3), dtype=np.float64)
    pooled = T.shared_mlp_max_pool(x, w, bn, momentum=0.9, training=True, n_points=5)
    return T.linear_cross_entropy(pooled, v, c, [1, 3])


loss = forward()
print(f"loss = {loss.item():.6f}")
T.backward(loss)
print("analytic dloss/dw:\n", w.grad)

# Central finite differences agree to ~1e-8 in 64-bit.
h = 1e-6
fd = np.zeros_like(w.data)
for i in range(3):
    for j in range(4):
        old = w.data[i, j]
        w.data[i, j] = old + h
        up = forward().item()
        w.data[i, j] = old - h
        down = forward().item()
        w.data[i, j] = old
        fd[i, j] = (up - down) / (2 * h)
print("max |analytic - numeric| =", np.abs(w.grad - fd).max())
