"""Built-in oracle suites, runnable from the CLI.

Each check recomputes a property of the numeric core against an
independent reference (matrix representation, block-real equivalence,
exhaustive path enumeration, finite differences, Monte Carlo statistics)
and reports pass/fail. These mirror the heavier pytest suite at a size
that runs in seconds.

``hamilton_conv2d`` and ``hamilton_dense`` are the reference route for the
quaternion layers: the Hamilton product written out as 16 real
convolutions (matrix products), one per weight plane and input plane.
"""

from __future__ import annotations

import itertools

import numpy as np

from .autodiff import Tensor, backward, conv2d, linear
from .ctc import collapse, ctc_loss
from .features import FeatureConfig, extract
from .gradcheck import check_gradients
from .qlayers import InitSpec, QConv2d, QDense, QTensor, block_weight_matrix, quaternion_init
from .quaternion import Quaternion, from_matrix_column, hamilton_product, to_real_matrix

__all__ = ["run_selftest", "hamilton_conv2d", "hamilton_dense"]


def _check_algebra(rng: np.random.Generator, n: int = 10_000) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(n):
        a = Quaternion(*rng.normal(size=4))
        b = Quaternion(*rng.normal(size=4))
        ref = from_matrix_column(to_real_matrix(a) @ to_real_matrix(b)[:, 0])
        got = hamilton_product(a, b)
        worst = max(worst, max(abs(g - r) for g, r in
                               zip(got.as_tuple(), ref.as_tuple())))
    i, j, k = Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 1)
    basis_ok = (hamilton_product(i, j) == k
                and hamilton_product(i, i) == Quaternion(-1, 0, 0, 0)
                and hamilton_product(j, j) == Quaternion(-1, 0, 0, 0)
                and hamilton_product(k, k) == Quaternion(-1, 0, 0, 0))
    ok = worst < 1e-12 and basis_ok
    return ok, f"max abs diff {worst:.2e} over {n} pairs, basis relations {'ok' if basis_ok else 'BAD'}"


def _hamilton(q: QTensor, w: QTensor, bias: QTensor | None, op) -> QTensor:
    r, x, y, z = q.components
    R, X, Y, Z = w.components
    out = QTensor(
        op(r, R) - op(x, X) - op(y, Y) - op(z, Z),
        op(x, R) + op(r, X) + op(z, Y) - op(y, Z),
        op(y, R) - op(z, X) + op(r, Y) + op(x, Z),
        op(z, R) + op(y, X) - op(x, Y) + op(r, Z),
    )
    if bias is not None:
        out = QTensor(*(p + b for p, b in zip(out.components, bias.components)))
    return out


def hamilton_conv2d(q: QTensor, w: QTensor, bias: QTensor | None,
                    padding: tuple[int, int]) -> QTensor:
    """Quaternion convolution (stride 1) as 16 real convolutions plus bias."""
    return _hamilton(q, w, bias, lambda t, k: conv2d(t, k, padding=padding))


def hamilton_dense(q: QTensor, w: QTensor, bias: QTensor | None) -> QTensor:
    """Quaternion dense layer as 16 real matrix products plus bias."""
    return _hamilton(q, w, bias, linear)


def _check_layer_equivalence(rng: np.random.Generator, n: int = 20) -> tuple[bool, str]:
    """QConv2d against the Hamilton expansion (outputs and gradients) and
    against a real convolution with the block weight matrix (outputs)."""
    worst = 0.0
    for trial in range(n):
        in_q, out_q = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        kernel = (3, 5) if trial % 2 else (3, 3)
        layer = QConv2d(in_q, out_q, kernel, rng)
        for b in layer.bias.components:
            b.data[:] = rng.normal(size=b.shape)
        q = QTensor.from_arrays(*rng.normal(size=(4, 2, in_q, 6, 5)), requires_grad=True)
        params = [*layer.w.components, *layer.bias.components, *q.components]
        routes = []
        for fn in (layer, lambda q: hamilton_conv2d(q, layer.w, layer.bias, layer.padding)):
            for t in params:
                t.grad = None
            out = fn(q)
            backward(sum((p * p).sum() for p in out.components))
            routes.append((out.numpy(), [t.grad.copy() for t in params]))
        (got, got_grads), (ref, ref_grads) = routes
        block = block_weight_matrix([p.data for p in layer.w.components])
        stacked = Tensor(np.concatenate([p.data for p in q.components], axis=1))
        real = conv2d(stacked, Tensor(block), padding=layer.padding).data
        real = real + np.concatenate([p.data for p in layer.bias.components])[None]
        block_ref = real.reshape(2, 4, out_q, 6, 5).transpose(1, 0, 2, 3, 4)
        worst = max(worst, float(np.abs(got - ref).max()),
                    float(np.abs(got - block_ref).max()),
                    *(float(np.abs(g - r).max() / max(1.0, np.abs(r).max()))
                      for g, r in zip(got_grads, ref_grads)))
    return worst < 1e-10, (f"max abs diff {worst:.2e} over {n} random conv layers "
                           f"(Hamilton expansion with gradients, block matrix)")


def _check_ctc(rng: np.random.Generator, n: int = 5) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(n):
        frames, n_sym = int(rng.integers(2, 6)), int(rng.integers(2, 4))
        blank = n_sym
        m = int(rng.integers(1, 3))
        target = rng.integers(0, n_sym, size=m).tolist()
        logits = rng.normal(size=(frames, n_sym + 1))
        try:
            loss, _ = ctc_loss(logits, target, blank)
        except ValueError:
            continue
        logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        total = -np.inf
        for path in itertools.product(range(n_sym + 1), repeat=frames):
            if collapse(path, blank) == target:
                total = np.logaddexp(total, sum(logp[t, c] for t, c in enumerate(path)))
        worst = max(worst, abs(loss - (-total)))
    return worst < 1e-8, f"max abs diff {worst:.2e} vs exhaustive enumeration"


def _check_gradients(rng: np.random.Generator) -> tuple[bool, str]:
    layer = QDense(3, 2, rng)
    q = QTensor.from_arrays(*rng.normal(size=(4, 5, 3)), requires_grad=True)
    wrt = list(layer.w.components) + list(q.components)
    err = check_gradients(lambda: sum((p * p).sum() for p in layer(q).components), wrt)
    return err < 1e-4, f"dense-layer rel. error {err:.2e}"


def _check_init(rng: np.random.Generator, n: int = 100_000) -> tuple[bool, str]:
    spec = InitSpec(n_in=128, n_out=128, criterion="he")
    planes = quaternion_init(spec, (n,), rng)
    w = np.stack(planes, axis=1)
    var = (w ** 2).sum(axis=1).mean() - (w.mean(axis=0) ** 2).sum()
    target = 4.0 / (2.0 * 128)
    ok = abs(var - target) / target < 0.03
    return ok, f"Var(W)={var:.6f}, target {target:.6f} (+-3%)"


def _check_features(rng: np.random.Generator) -> tuple[bool, str]:
    cfg = FeatureConfig()
    wave = rng.normal(size=cfg.sample_rate // 4)
    fs = extract(wave, cfg)
    zero_real = not np.any(fs.data[0])
    ok = zero_real and fs.width == 41
    return ok, f"width {fs.width}, real plane {'zero' if zero_real else 'NONZERO'}"


def run_selftest(seed: int = 0) -> bool:
    checks = [
        ("algebra-matrix-oracle", _check_algebra),
        ("conv-block-equivalence", _check_layer_equivalence),
        ("ctc-enumeration", _check_ctc),
        ("gradient-finite-diff", _check_gradients),
        ("init-statistics", _check_init),
        ("feature-pipeline", _check_features),
    ]
    all_ok = True
    for name, fn in checks:
        ok, detail = fn(np.random.default_rng(seed))
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return all_ok
