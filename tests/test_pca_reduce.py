import numpy as np
import pytest

from seatcheck import store
from seatcheck.cli import main
from seatcheck.errors import DataError
from seatcheck.pca_reduce import PcaModel, fit_pca, project
from seatcheck.pipeline import PipelineConfig, describe
from seatcheck.synthetic import SyntheticSpec, generate_synthetic

# Bound on how far a block-wise fit may move from the whole-array fit.
ORACLE_TOL = 1e-12


def old_fit_pca(data, d_out):
    """The whole-array fit: one mean, one centered copy of the whole sample."""
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    mean = data.mean(axis=0)
    centered = data - mean
    cov = (centered.T @ centered) / n
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:d_out]
    ev = np.maximum(eigvals[order], 0.0)
    basis = eigvecs[:, order].T
    for i in range(d_out):
        j = int(np.argmax(np.abs(basis[i])))
        if basis[i, j] < 0:
            basis[i] = -basis[i]
    return PcaModel(mean=mean, basis=basis, eigenvalues=ev)


def assert_close_to_oracle(model, oracle):
    for name in ("mean", "basis", "eigenvalues"):
        np.testing.assert_allclose(getattr(model, name), getattr(oracle, name), rtol=0, atol=ORACLE_TOL,
                                   err_msg=name)


@pytest.fixture(scope="module")
def raw_sets():
    """Raw 128-D descriptor sets of 40 canonical-size images, one per image."""
    images = generate_synthetic(SyntheticSpec(count=40, seed=7))
    return [describe(im.image, PipelineConfig(), source_id=im.image_id) for im in images]


def power_iteration_oracle(data, d_out, iters=5000):
    """Top eigenpairs of the biased covariance via deflated power iteration."""
    data = np.asarray(data, dtype=np.float64)
    mean = data.mean(axis=0)
    c = data - mean
    cov = (c.T @ c) / data.shape[0]
    rng = np.random.default_rng(123)
    vecs, vals = [], []
    work = cov.copy()
    for _ in range(d_out):
        v = rng.normal(size=cov.shape[0])
        v /= np.linalg.norm(v)
        for _ in range(iters):
            v_new = work @ v
            n = np.linalg.norm(v_new)
            if n == 0:
                break
            v_new /= n
            if np.linalg.norm(v_new - v) < 1e-14:
                v = v_new
                break
            v = v_new
        lam = float(v @ work @ v)
        vals.append(lam)
        vecs.append(v)
        work = work - lam * np.outer(v, v)
    return mean, np.array(vecs), np.array(vals)


def test_rank_one_line_recovers_direction():
    rng = np.random.default_rng(0)
    x = rng.normal(size=200)
    data = np.stack([x, 2 * x], axis=1)
    m = fit_pca(data, 2)
    direction = np.array([1.0, 2.0]) / np.sqrt(5.0)
    np.testing.assert_allclose(np.abs(m.basis[0] @ direction), 1.0, atol=1e-12)
    assert m.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)


def test_full_rank_projection_is_isometry():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(500, 6))
    m = fit_pca(data, 6)
    x = rng.normal(size=6)
    np.testing.assert_allclose(
        np.linalg.norm(project(m, x)), np.linalg.norm(x - m.mean), atol=1e-9
    )


def test_matches_power_iteration_oracle_and_reconstruction_identity():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(200, 8)) @ np.diag([3.0, 2.5, 2.0, 1.0, 0.5, 0.3, 0.2, 0.1])
    m = fit_pca(data, 3)
    _, vecs, vals = power_iteration_oracle(data, 3)
    np.testing.assert_allclose(m.eigenvalues, vals, rtol=1e-8)
    for i in range(3):
        np.testing.assert_allclose(abs(float(m.basis[i] @ vecs[i])), 1.0, atol=1e-6)

    # Mean squared reconstruction error equals the sum of discarded eigenvalues.
    proj = project(m, data)
    recon = proj @ m.basis + m.mean
    err = np.mean(np.sum((data - recon) ** 2, axis=1))
    all_vals = np.linalg.eigvalsh(np.cov(data.T, bias=True))[::-1]
    np.testing.assert_allclose(err, all_vals[3:].sum(), rtol=1e-6)


def test_projecting_mean_gives_zero():
    rng = np.random.default_rng(3)
    m = fit_pca(rng.normal(size=(50, 4)), 2)
    np.testing.assert_allclose(project(m, m.mean), 0.0, atol=1e-12)


def test_projected_variance_reproduces_eigenvalues():
    rng = np.random.default_rng(4)
    data = rng.normal(size=(300, 5)) * np.array([4.0, 2.0, 1.0, 0.5, 0.25])
    m = fit_pca(data, 5)
    proj = project(m, data)
    var = proj.var(axis=0)  # biased, matching the covariance definition
    np.testing.assert_allclose(var, m.eigenvalues, rtol=1e-6)


def test_reconstruction_error_monotone_in_d_out():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(150, 7))
    errs = []
    for d_out in range(1, 8):
        m = fit_pca(data, d_out)
        recon = project(m, data) @ m.basis + m.mean
        errs.append(np.mean(np.sum((data - recon) ** 2, axis=1)))
    assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))


def test_basis_orthonormal_and_sign_convention_deterministic():
    rng = np.random.default_rng(6)
    data = rng.normal(size=(100, 6))
    m1 = fit_pca(data, 4)
    m2 = fit_pca(data.copy(), 4)
    assert np.array_equal(m1.basis, m2.basis)
    gram = m1.basis @ m1.basis.T
    assert np.abs(gram - np.eye(4)).max() <= 1e-8
    for row in m1.basis:
        assert row[np.argmax(np.abs(row))] > 0


def test_error_cases():
    rng = np.random.default_rng(7)
    with pytest.raises(DataError):
        fit_pca(rng.normal(size=(3, 8)), 5)  # too few samples
    with pytest.raises(DataError):
        fit_pca(np.array([[np.inf, 0.0], [0.0, 1.0]]), 1)
    for d_out in (2.5, 2.0, True):  # a PipelineConfig pca_dim or final_pca of 2.5 ends here
        with pytest.raises(DataError, match="integer"):
            fit_pca(rng.normal(size=(50, 4)), d_out)
    m = fit_pca(rng.normal(size=(50, 4)), 2)
    with pytest.raises(DataError):
        project(m, np.zeros(5))
    with pytest.raises(DataError):
        PcaModel(mean=np.zeros(2), basis=np.array([[1.0, 1.0]]), eigenvalues=np.array([1.0]))
    # a huge entry is refused before the Gram product, which would overflow with a RuntimeWarning
    with pytest.raises(DataError, match="orthonormal"):
        PcaModel(mean=np.zeros(2), basis=np.array([[1e308, 0.0]]), eigenvalues=np.array([1.0]))


def test_block_fit_matches_whole_array_oracle(raw_sets):
    pool = np.concatenate([d.vectors for d in raw_sets])
    oracle = old_fit_pca(pool, 64)
    assert_close_to_oracle(fit_pca([d.vectors for d in raw_sets], 64), oracle)
    uneven = np.split(pool, [1, 2, 7, 20000, pool.shape[0] - 3])
    assert_close_to_oracle(fit_pca(uneven, 64), oracle)
    # One block is the whole-array fit, bit for bit.
    for got in (fit_pca(pool, 64), fit_pca([pool], 64)):
        for name in ("mean", "basis", "eigenvalues"):
            assert np.array_equal(getattr(got, name), getattr(oracle, name)), name


def test_one_row_blocks_match_whole_array_oracle(raw_sets):
    rows = np.concatenate([d.vectors for d in raw_sets[:4]])
    assert_close_to_oracle(fit_pca(list(rows[:, None, :]), 64), old_fit_pca(rows, 64))


def test_block_fit_checks_every_block():
    rng = np.random.default_rng(8)
    good = rng.normal(size=(20, 4))
    bad = good.copy()
    bad[3, 2] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        fit_pca([good, good, bad], 2)
    with pytest.raises(DataError, match="same width"):
        fit_pca([good, good[:, :3]], 2)
    with pytest.raises(DataError):
        fit_pca([good, good[0]], 2)  # a 1-D block
    with pytest.raises(DataError):
        fit_pca([], 2)
    with pytest.raises(DataError, match="at least d_out"):
        fit_pca([good[:1], good[1:2]], 3)


def test_cli_train_pca_matches_whole_array_fit(raw_sets, tmp_path, capsys):
    sets = raw_sets[:8]
    desc = tmp_path / "desc.bin"
    store.save_descriptor_sets(sets, desc)
    pool = np.concatenate([d.vectors for d in sets])

    out = tmp_path / "pca.json"
    assert main(["train-pca", "--descriptors", str(desc), "--dim", "32", "--out", str(out)]) == 0
    assert f"fitted on {pool.shape[0]} descriptors" in capsys.readouterr().out
    assert_close_to_oracle(store.load_pca(out), old_fit_pca(pool, 32))

    # --sample draws from the whole corpus and fits one block: the old bits.
    assert main(["train-pca", "--descriptors", str(desc), "--dim", "32", "--out", str(out),
                 "--sample", "3000", "--sample-seed", "5"]) == 0
    assert "fitted on 3000 descriptors" in capsys.readouterr().out
    sample = pool[np.random.default_rng(5).choice(pool.shape[0], size=3000, replace=False)]
    got, oracle = store.load_pca(out), old_fit_pca(sample, 32)
    for name in ("mean", "basis", "eigenvalues"):
        assert np.array_equal(getattr(got, name), getattr(oracle, name)), name
