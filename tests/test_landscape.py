import numpy as np
import pytest

from conftest import model_loss, num_params

from sparselab.errors import ShapeError
from sparselab.landscape import PathSpec, hvp, interpolate_path, sharpness
from sparselab.models import build_model, mlp_spec
from sparselab.rng import Rng


def quadratic_grad_fn(diag):
    """Gradient of L = 0.5 * w^T diag(d) w."""
    d = np.asarray(diag, dtype=np.float64)

    def fn(params):
        return {"w": d * params["w"]}

    return fn


def test_hvp_zero_vector():
    fn = quadratic_grad_fn([3.0, 1.0])
    out = hvp(fn, {"w": np.array([0.5, -0.2])}, {"w": np.zeros(2)})
    assert np.allclose(out["w"], 0.0, atol=1e-12)


def test_hvp_diagonal_quadratic():
    fn = quadratic_grad_fn([3.0, 1.0])
    out = hvp(fn, {"w": np.array([0.5, -0.2])}, {"w": np.array([1.0, 0.0])})
    assert out["w"][0] == pytest.approx(3.0, abs=1e-4)
    assert out["w"][1] == pytest.approx(0.0, abs=1e-4)


def model_grad_fn(model, x, y):
    def fn(params):
        _, grads = model.loss_and_grad(x, y, params=params)
        return grads

    return fn


def test_hvp_symmetry_bilinear_form():
    model = build_model(mlp_spec((5, 6, 3)), Rng(3))
    assert num_params(model.store) <= 100
    x = Rng(4).normals(8 * 5).reshape(8, 5)
    y = np.arange(8) % 3
    fn = model_grad_fn(model, x, y)
    params = {n: e.weights.astype(np.float64) for n, e in model.store.items()}
    rng = Rng(5)
    u = {n: rng.normals(w.size).reshape(w.shape) for n, w in params.items()}
    v = {n: rng.normals(w.size).reshape(w.shape) for n, w in params.items()}
    hv = hvp(fn, params, v)
    hu = hvp(fn, params, u)
    uhv = sum(float((u[n] * hv[n]).sum()) for n in params)
    vhu = sum(float((v[n] * hu[n]).sum()) for n in params)
    assert uhv == pytest.approx(vhu, rel=1e-3)


def test_sharpness_diag_quadratic():
    fn = quadratic_grad_fn([3.0, 1.0])
    val = sharpness(fn, {"w": np.array([0.5, -0.2])}, Rng(0), power_iters=20)
    assert val == pytest.approx(3.0, rel=0.05)


def test_sharpness_masked_principal_submatrix():
    fn = quadratic_grad_fn([5.0, 1.0])
    support = {"w": np.array([0.0, 1.0])}
    val = sharpness(fn, {"w": np.array([0.5, -0.2])}, Rng(0), support=support, power_iters=20)
    assert val == pytest.approx(1.0, rel=0.05)


def test_sharpness_sign_flip_invariant():
    fn = quadratic_grad_fn([4.0, 2.0, 1.0])
    params = {"w": np.array([0.3, 0.1, -0.4])}

    class FlipRng(Rng):
        def normals(self, n):
            return -Rng(0).normals(n)

    a = sharpness(fn, params, Rng(0), power_iters=20)
    b = sharpness(fn, params, FlipRng(0), power_iters=20)
    assert a == pytest.approx(b, rel=1e-9)


def test_sharpness_zero_hessian_degenerate():
    fn = quadratic_grad_fn([0.0, 0.0])
    assert sharpness(fn, {"w": np.ones(2)}, Rng(0), power_iters=5) == 0.0


def fd_hessian(fn, params, eps=1e-4):
    """Explicit FD Hessian over flattened parameters (the oracle)."""
    names = list(params)
    sizes = [params[n].size for n in names]
    total = sum(sizes)
    H = np.zeros((total, total))

    def flat_grad(p_flat):
        p = {}
        ofs = 0
        for n, s in zip(names, sizes):
            p[n] = p_flat[ofs : ofs + s].reshape(params[n].shape)
            ofs += s
        g = fn(p)
        return np.concatenate([np.asarray(g[n]).reshape(-1) for n in names])

    base = np.concatenate([params[n].reshape(-1) for n in names]).astype(np.float64)
    for j in range(total):
        p = base.copy()
        p[j] += eps
        gp = flat_grad(p)
        p[j] -= 2 * eps
        gm = flat_grad(p)
        H[:, j] = (gp - gm) / (2 * eps)
    return (H + H.T) / 2


def test_sharpness_vs_explicit_hessian_on_small_net():
    model = build_model(mlp_spec((4, 4, 3)), Rng(7))
    assert num_params(model.store) <= 60
    x = Rng(8).normals(16 * 4).reshape(16, 4)
    y = np.arange(16) % 3
    fn = model_grad_fn(model, x, y)
    params = {n: e.weights.astype(np.float64) for n, e in model.store.items()}
    H = fd_hessian(fn, params)
    want = float(np.linalg.eigvalsh(H).max())
    got = sharpness(fn, params, Rng(9), power_iters=20)
    assert got == pytest.approx(want, rel=0.05)


def test_rayleigh_sequence_nondecreasing():
    model = build_model(mlp_spec((4, 4, 3)), Rng(17))
    x = Rng(18).normals(16 * 4).reshape(16, 4)
    y = np.arange(16) % 3
    fn = model_grad_fn(model, x, y)
    params = {n: e.weights.astype(np.float64) for n, e in model.store.items()}
    # re-run power iteration by hand, recording the Rayleigh quotient
    rng = Rng(19)
    v = {n: rng.normals(w.size).reshape(w.shape) for n, w in params.items()}
    norm = np.sqrt(sum((a * a).sum() for a in v.values()))
    v = {n: a / norm for n, a in v.items()}
    seq = []
    for _ in range(20):
        hv = hvp(fn, params, v)
        seq.append(sum(float((v[n] * hv[n]).sum()) for n in params))
        norm = np.sqrt(sum((a * a).sum() for a in hv.values()))
        v = {n: a / norm for n, a in hv.items()}
    for a, b in zip(seq, seq[1:]):
        assert b >= a - 1e-3 * abs(a) - 1e-9


# -- interpolation ----------------------------------------------------------------


def test_interpolate_endpoints_bit_exact():
    model = build_model(mlp_spec((6, 5, 3)), Rng(21))
    x = Rng(22).normals(20 * 6).reshape(20, 6).astype(np.float32)
    y = np.arange(20) % 3

    def loss_fn(params):
        return model_loss(model, x, y, params=params)

    a = {n: e.weights.copy() for n, e in model.store.items()}
    b = {n: e.weights + np.float32(0.3) for n, e in model.store.items()}
    rows = interpolate_path([a, b], {"val": loss_fn}, PathSpec(splits=("val",)))
    standalone_a = loss_fn(a)
    standalone_b = loss_fn(b)
    assert rows[0][2] == standalone_a  # bit-equal, not approx
    assert rows[-1][2] == standalone_b


def test_interpolate_identical_checkpoints_constant():
    model = build_model(mlp_spec((4, 3)), Rng(23))
    x = Rng(24).normals(10 * 4).reshape(10, 4).astype(np.float32)
    y = np.arange(10) % 3

    def loss_fn(params):
        return model_loss(model, x, y, params=params)

    a = {n: e.weights.copy() for n, e in model.store.items()}
    rows = interpolate_path([a, a], {"val": loss_fn}, PathSpec(splits=("val",)))
    losses = {r[2] for r in rows}
    assert len(losses) == 1


def test_interpolate_quadratic_midpoint_closed_form():
    # L(w) = mean((w*x - t)^2) is quadratic in w: blend loss has closed form
    x = np.array([1.0, 2.0, -1.0])
    t = np.array([0.5, -0.5, 1.0])

    def loss_fn(params):
        w = params["w"][0]
        return float(np.mean((w * x - t) ** 2))

    a = {"w": np.array([-1.0])}
    b = {"w": np.array([2.0])}
    rows = interpolate_path([a, b], {"val": loss_fn}, PathSpec(splits=("val",)))
    mid = [r for r in rows if r[0] == pytest.approx(0.5)][0]
    assert mid[2] == pytest.approx(loss_fn({"w": np.array([0.5])}), rel=1e-12)


def test_interpolate_three_checkpoints_21_points_per_split():
    params = [{"w": np.full(3, float(i))} for i in range(3)]

    def loss_fn(p):
        return float(p["w"].sum())

    rows = interpolate_path(
        params, {"train": loss_fn, "val": loss_fn}, PathSpec(splits=("train", "val"))
    )
    for split in ("train", "val"):
        alphas = [r[0] for r in rows if r[1] == split]
        assert len(alphas) == 21
        assert len(set(alphas)) == 21
        assert alphas[0] == 0.0 and alphas[-1] == 1.0


def test_interpolate_architecture_mismatch():
    with pytest.raises(ShapeError):
        interpolate_path(
            [{"w": np.ones(3)}, {"w": np.ones(4)}], {"val": lambda p: 0.0}, PathSpec(splits=("val",))
        )
    with pytest.raises(ShapeError):
        interpolate_path([{"w": np.ones(3)}], {"val": lambda p: 0.0})


def test_masked_sharpness_interlaces_below_full():
    # principal submatrix of the oracle Hessian has max eigenvalue no larger
    # than the full matrix; the estimator agrees within tolerance
    model = build_model(mlp_spec((4, 4, 3)), Rng(31))
    x = Rng(32).normals(16 * 4).reshape(16, 4)
    y = np.arange(16) % 3
    fn = model_grad_fn(model, x, y)
    params = {n: e.weights.astype(np.float64) for n, e in model.store.items()}
    H = fd_hessian(fn, params)
    mask = (Rng(33).uniforms(16) > 0.4).astype(np.float64).reshape(4, 4)
    names = list(params)
    keep = np.concatenate(
        [(mask.reshape(-1) != 0) if k == "fc1.weight" else np.ones(params[k].size, bool)
         for k in names]
    )
    full_want = float(np.linalg.eigvalsh(H).max())
    sub_want = float(np.linalg.eigvalsh(H[np.ix_(keep, keep)]).max())
    assert sub_want <= full_want + 1e-12
    full_got = sharpness(fn, params, Rng(34), power_iters=20)
    masked_got = sharpness(fn, params, Rng(34), support={"fc1.weight": mask}, power_iters=20)
    assert masked_got <= full_got + 0.05 * abs(full_got)
