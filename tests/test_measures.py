from fractions import Fraction

import numpy as np
import pytest

import momentdist as md


def _unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def test_two_by_two_closed_form():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    rng = np.random.default_rng(0)
    for _ in range(10):
        xi = _unit(rng, 2)
        mu = md.spectral_measure(a, xi)
        w_plus = 0.5 + xi[0] * xi[1]
        w_minus = 0.5 - xi[0] * xi[1]
        expected = [(1.0, w_minus), (3.0, w_plus)]
        got = {round(l, 9): w for l, w in mu.atoms}
        for lam, w in expected:
            if w > 1e-12:
                assert got[lam] == pytest.approx(w, abs=1e-10)


def test_special_states_are_point_masses():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    mu = md.spectral_measure(a, np.array([1.0, 1.0]) / np.sqrt(2))
    assert mu.num_atoms == 1 and mu.lambdas[0] == pytest.approx(3.0)
    mu = md.spectral_measure(a, np.array([-1.0, 1.0]) / np.sqrt(2))
    assert mu.num_atoms == 1 and mu.lambdas[0] == pytest.approx(1.0)


def test_complete_graph_point_mass():
    for n in range(2, 9):
        mu = md.graph_spectral_measure(md.complete_graph(n))
        assert mu.num_atoms == 1
        assert mu.lambdas[0] == pytest.approx(n - 1, abs=1e-9)
        assert mu.omegas[0] == pytest.approx(1.0, abs=1e-12)


def test_regular_graph_point_mass():
    for g, d in [(md.cycle_graph(7), 2), (md.complete_bipartite_graph(3, 3), 3)]:
        mu = md.graph_spectral_measure(g)
        assert mu.num_atoms == 1 and mu.lambdas[0] == pytest.approx(d, abs=1e-9)


def test_complete_bipartite_weights():
    for m, n in [(1, 4), (2, 3), (3, 3)]:
        mu = md.graph_spectral_measure(md.complete_bipartite_graph(m, n))
        lam = np.sqrt(m * n)
        w_plus = (np.sqrt(m) + np.sqrt(n)) ** 2 / (2 * (m + n))
        w_minus = (np.sqrt(m) - np.sqrt(n)) ** 2 / (2 * (m + n))
        atoms = {round(l, 8): w for l, w in mu.atoms}
        assert atoms[round(lam, 8)] == pytest.approx(w_plus, abs=1e-10)
        if w_minus > 1e-12:
            assert atoms[round(-lam, 8)] == pytest.approx(w_minus, abs=1e-10)
        # the zero eigenvalue carries no weight in the uniform state
        assert all(abs(l) > 1e-6 for l in atoms)


def test_cospectral_pair_distinguished():
    mu1 = md.graph_spectral_measure(md.named_graph("C4uK1"))
    mu2 = md.graph_spectral_measure(md.named_graph("S5"))
    a1 = [(round(l, 6), round(w, 6)) for l, w in mu1.atoms]
    a2 = [(round(l, 6), round(w, 6)) for l, w in mu2.atoms]
    assert a1 == [(0.0, 0.2), (2.0, 0.8)]
    assert a2 == [(-2.0, 0.1), (2.0, 0.9)]
    # trace-state distributions agree, so only the vector state separates them
    t1 = md.trace_moments(md.named_graph("C4uK1"), 5)
    t2 = md.trace_moments(md.named_graph("S5"), 5)
    assert np.array_equal(t1.values, t2.values)


def test_measure_moment_examples():
    delta3 = md.DiscreteMeasure(np.array([3.0]), np.array([1.0]))
    assert md.measure_moment(delta3, 2) == 9.0
    star = md.DiscreteMeasure(np.array([-2.0, 2.0]), np.array([0.1, 0.9]))
    assert md.measure_moment(star, 1) == pytest.approx(1.6)
    assert md.measure_moment(star, 0) == 1.0


def test_moment_agreement_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 13))
        a = rng.uniform(-1, 1, (n, n))
        a = (a + a.T) / 2
        xi = _unit(rng, n)
        mu = md.spectral_measure(a, xi)
        ms = md.xi_state_moments(a, xi, 8)
        for k in range(9):
            assert abs(mu.moment(k) - ms[k]) <= 1e-8


def test_round_trip_from_atoms():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        lam = np.sort(rng.uniform(-5, 5, n))
        while np.any(np.diff(lam) < 1e-3):
            lam = np.sort(rng.uniform(-5, 5, n))
        w = rng.dirichlet(np.ones(n))
        xi = _unit(rng, n)
        v = np.sqrt(w)
        # reflection mapping v to xi keeps everything orthonormal
        diff = v - xi
        if np.linalg.norm(diff) > 1e-12:
            h = diff / np.linalg.norm(diff)
            u = np.eye(n) - 2.0 * np.outer(h, h)
        else:
            u = np.eye(n)
        a = u @ np.diag(lam) @ u.T
        a = (a + a.T) / 2
        mu = md.spectral_measure(a, xi, weight_floor=0.0)
        assert np.allclose(mu.lambdas, lam, atol=1e-8)
        assert np.allclose(mu.omegas, w, atol=1e-8)


def test_atom_count_matches_hankel_rank():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 13))
        a = rng.uniform(-1, 1, (n, n))
        a = (a + a.T) / 2
        xi = _unit(rng, n)
        mu = md.spectral_measure(a, xi)
        exact = [
            sum(Fraction(float(w)) * Fraction(float(l)) ** k
                for w, l in zip(mu.omegas, mu.lambdas))
            for k in range(2 * n + 1)
        ]
        s, _ = md.hankel_rank(exact, n)
        assert s == mu.num_atoms


def test_eigenvector_state_single_atom():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(7, 7))
    a = (a + a.T) / 2
    w, u = np.linalg.eigh(a)
    mu = md.spectral_measure(a, u[:, 3])
    assert mu.num_atoms == 1
    assert mu.lambdas[0] == pytest.approx(w[3], abs=1e-9)


def test_merge_tol_clusters_close_eigenvalues():
    a = np.diag([1.0, 1.0 + 1e-12, 5.0])
    xi = np.ones(3) / np.sqrt(3)
    mu = md.spectral_measure(a, xi)
    assert mu.num_atoms == 2  # the two nearly equal eigenvalues merge
    wide = md.spectral_measure(a, xi, merge_tol=10.0)
    assert wide.num_atoms == 1


def test_validation_errors(monkeypatch):
    with pytest.raises(ValueError):
        md.spectral_measure(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        md.spectral_measure(np.eye(2), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        md.graph_spectral_measure(md.empty_graph(0))
    monkeypatch.setattr(md.measures, "DENSE_MEASURE_N", 5)
    with pytest.raises(ValueError, match="dense threshold"):
        md.graph_spectral_measure(md.cycle_graph(10))


def test_csv_export():
    mu = md.graph_spectral_measure(md.named_graph("C4uK1"))
    text = mu.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "lambda,omega"
    assert len(lines) == 1 + mu.num_atoms
