"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines stream; every criterion also asserts its runtime budget.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import networkx as nx
import numpy as np

import momentdist as md
from oracles import random_graph

TABLE4V_NAMES = [
    "4K1", "K4", "co-diamond", "diamond", "co-paw", "paw",
    "2K2", "C4", "claw", "co-claw", "P4",
]

# printed pairwise degree-2 Frobenius distances between the 11 four-vertex
# graphs, row/column order as in TABLE4V_NAMES (4 decimals)
TABLE4V_DISTANCES = np.array([
    [0, 90.9945, 1.4142, 49.8999, 5.0744, 26.2726, 2.8284, 20.9762, 12.3693, 15.7321, 9.8742],
    [90.9945, 0, 90.0777, 41.4970, 86.6646, 65.3854, 89.1740, 70.8802, 79.4292, 75.8650, 82.0945],
    [1.4142, 90.0777, 0, 48.9081, 3.7749, 25.1942, 1.4142, 19.8494, 11.1803, 14.6116, 8.6313],
    [49.8999, 41.4970, 48.9081, 0, 45.3900, 23.9322, 47.9375, 29.4279, 38.0657, 34.4891, 40.7247],
    [5.0744, 86.6646, 3.7749, 45.3900, 0, 21.5754, 2.5981, 16.1787, 7.4666, 10.9659, 4.8734],
    [26.2726, 65.3854, 25.1942, 23.9322, 21.5754, 0, 24.1506, 5.5000, 14.1863, 10.6184, 16.8300],
    [2.8284, 89.1740, 1.4142, 47.9375, 2.5981, 24.1506, 0, 18.7617, 10.0499, 13.5462, 7.4498],
    [20.9762, 70.8802, 19.8494, 29.4279, 16.1787, 5.5000, 18.7617, 0, 8.7750, 5.2440, 11.3798],
    [12.3693, 79.4292, 11.1803, 38.0657, 7.4666, 14.1863, 10.0499, 8.7750, 0, 3.6742, 2.7386],
    [15.7321, 75.8650, 14.6116, 34.4891, 10.9659, 10.6184, 13.5462, 5.2440, 3.6742, 0, 6.2450],
    [9.8742, 82.0945, 8.6313, 40.7247, 4.8734, 16.8300, 7.4498, 11.3798, 2.7386, 6.2450, 0],
])


@contextmanager
def criterion(num, name, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds budget {budget_s}s"


def test_criterion_1_four_vertex_table():
    with criterion(1, "four-vertex golden table", 1.0):
        gs = [md.named_graph(n) for n in TABLE4V_NAMES]
        cfg = md.DistanceConfig(degree=2, metric="frobenius")
        dm = md.pairwise_distance_matrix(gs, cfg, labels=TABLE4V_NAMES, threads=1)
        assert np.max(np.abs(dm.entries - TABLE4V_DISTANCES)) <= 5e-4
        # independently hand-derivable anchors
        idx = {n: i for i, n in enumerate(TABLE4V_NAMES)}
        assert abs(dm.entries[idx["4K1"], idx["K4"]] - 90.9945) <= 5e-4
        assert abs(dm.entries[idx["4K1"], idx["2K2"]] - 2.8284) <= 5e-4
        assert abs(dm.entries[idx["K4"], idx["2K2"]] - 89.1740) <= 5e-4


def test_criterion_2_cospectral_separation():
    with criterion(2, "cospectral separation", 1.0):
        c4k1, s5 = md.named_graph("C4uK1"), md.named_graph("S5")
        # trace moments agree exactly for k = 0..5
        assert np.array_equal(
            md.trace_moments(c4k1, 5).values, md.trace_moments(s5, 5).values
        )
        # uniform-vector moments differ at k = 2: 3.2 vs 4
        va, vb = md.vector_state_moments(c4k1, 2), md.vector_state_moments(s5, 2)
        assert va[2] == 3.2 and vb[2] == 4.0
        # degree-1 moment matrices equal the printed ones exactly
        ma = md.build_moment_matrix(va, 1).entries
        mb = md.build_moment_matrix(vb, 1).entries
        assert ma.tolist() == [[1, 1.6], [1.6, 3.2]]
        assert mb.tolist() == [[1, 1.6], [1.6, 4]]
        # spectral baselines cannot separate the pair
        nclm = np.linalg.norm(md.nclm_vector(c4k1).values - md.nclm_vector(s5).values)
        eigs = np.linalg.norm(
            md.top_k_eigenvalues(c4k1).values - md.top_k_eigenvalues(s5).values
        )
        assert nclm == 0.0
        assert eigs <= 1e-10
        # ... while the moment distance does, at every degree >= 1
        for degree in (1, 2, 3):
            cfg = md.DistanceConfig(degree=degree, metric="frobenius")
            assert md.graph_distance(c4k1, s5, cfg) > 0.5


def test_criterion_3_spectral_measure_oracle():
    with criterion(3, "spectral-measure oracle suite", 10.0):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            a = rng.uniform(-1, 1, (n, n))
            a = (a + a.T) / 2
            xi = rng.normal(size=n)
            xi /= np.linalg.norm(xi)
            mu = md.spectral_measure(a, xi)
            ms = md.xi_state_moments(a, xi, 8)
            for k in range(9):
                assert abs(mu.moment(k) - ms[k]) <= 1e-8
            # rank check on the measure's exact moment sequence
            exact = [
                sum(Fraction(float(w)) * Fraction(float(l)) ** k
                    for w, l in zip(mu.omegas, mu.lambdas))
                for k in range(2 * n + 1)
            ]
            s, _ = md.hankel_rank(exact, n)
            assert s == mu.num_atoms

        # closed form for the 2x2 example, 20 random states
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        for _ in range(20):
            xi = rng.normal(size=2)
            xi /= np.linalg.norm(xi)
            mu = md.spectral_measure(a, xi)
            expected = {1.0: 0.5 - xi[0] * xi[1], 3.0: 0.5 + xi[0] * xi[1]}
            got = {round(l, 9): w for l, w in mu.atoms}
            for lam, w in expected.items():
                if w > 1e-12:
                    assert abs(got[lam] - w) <= 1e-10
            s, _ = md.hankel_rank(
                md.xi_state_moments(a, xi, 8), 4
            )
            assert s == mu.num_atoms

        # complete graphs: point mass at n-1
        for n in range(2, 9):
            mu = md.graph_spectral_measure(md.complete_graph(n))
            assert mu.num_atoms == 1 and abs(mu.lambdas[0] - (n - 1)) <= 1e-9
            s, _ = md.hankel_rank(md.vector_state_moments(md.complete_graph(n), 8), 4)
            assert s == 1
        # regular graphs: point mass at the degree
        for g, d in [(md.cycle_graph(9), 2), (md.complete_bipartite_graph(4, 4), 4),
                     (md.named_graph("2K2"), 1)]:
            mu = md.graph_spectral_measure(g)
            assert mu.num_atoms == 1 and abs(mu.lambdas[0] - d) <= 1e-9
            s, _ = md.hankel_rank(md.vector_state_moments(g, 8), 4)
            assert s == 1


def _exact_trace_moments(g, order):
    """Trace moments as exact rationals tr(A^k)/n via int64 matrix powers."""
    a = g.to_dense().astype(np.int64)
    p = np.eye(g.n, dtype=np.int64)
    out = [Fraction(1)]
    for _ in range(order):
        p = p @ a
        out.append(Fraction(int(np.trace(p)), g.n))
    return out


def _check_diameter_bound_all_graphs_up_to_8():
    # every isomorphism class with n <= 7 comes straight from the atlas
    atlas = nx.graph_atlas_g()
    for nxg in atlas:
        n = nxg.number_of_nodes()
        if n < 2 or not nx.is_connected(nxg):
            continue
        g = md.Graph.from_edges(n, list(nxg.edges()))
        diam = md.diameter(g)
        s, _ = md.hankel_rank(_exact_trace_moments(g, 2 * n), n)
        assert s >= diam + 1, (g.edge_array().tolist(), s, diam)

    # every 8-vertex class arises by attaching one vertex to some 7-vertex
    # class; duplicates are harmless. The bound depends only on the spectrum
    # and the diameter, so candidates are deduplicated on that key.
    seven = [g for g in atlas if g.number_of_nodes() == 7]
    bases = np.zeros((len(seven), 8, 8))
    for i, nxg in enumerate(seven):
        for u, v in nxg.edges():
            bases[i, u, v] = bases[i, v, u] = 1.0
    stack = np.repeat(bases, 128, axis=0)
    masks = np.array([[(b >> j) & 1 for j in range(7)] for b in range(128)],
                     dtype=np.float64)
    masks = np.tile(masks, (len(seven), 1))
    stack[:, 7, :7] = masks
    stack[:, :7, 7] = masks

    reach = stack + np.eye(8)
    diam8 = np.zeros(len(stack), dtype=np.int64)
    undecided = np.ones(len(stack), dtype=bool)
    power = reach.copy()
    for k in range(1, 8):
        allpos = (power > 0).all(axis=(1, 2))
        newly = undecided & allpos
        diam8[newly] = k
        undecided &= ~allpos
        if k < 7:
            power = np.matmul(power, reach)
            np.clip(power, 0.0, 1e12, out=power)
    connected = ~undecided

    eigs = np.linalg.eigvalsh(stack[connected])
    keys = np.concatenate([np.round(eigs, 6), diam8[connected][:, None]], axis=1)
    _, first = np.unique(keys, axis=0, return_index=True)
    reps = np.flatnonzero(connected)[first]
    for pos in reps:
        a = stack[pos]
        g = md.Graph.from_edges(
            8, [(i, j) for i in range(8) for j in range(i + 1, 8) if a[i, j] > 0]
        )
        diam = md.diameter(g)
        s, _ = md.hankel_rank(_exact_trace_moments(g, 16), 8)
        assert s >= diam + 1, (g.edge_array().tolist(), s, diam)


def test_criterion_4_invariance_suite():
    with criterion(4, "invariance suite", 60.0):
        rng = np.random.default_rng(1)

        # permutation invariance in all three states, 100 random graphs
        for _ in range(100):
            n = int(rng.integers(2, 201))
            g = random_graph(rng, n, rng.uniform(0.02, 0.4))
            h = md.permute(g, md.Permutation.random(n, rng.integers(2**32)))
            params = md.DensityParams(0.5 / n, 0.5 / n)
            for extract in (
                lambda x: md.vector_state_moments(x, 8).values,
                lambda x: md.trace_moments(x, 8).values,
                lambda x: md.density_state_moments(x, params, 8).values,
            ):
                a, b = extract(g), extract(h)
                assert np.all(np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.abs(a)))

        # sub-structure invariance and the union mixture law
        for _ in range(25):
            g = random_graph(rng, int(rng.integers(1, 80)), rng.uniform(0, 0.5))
            a = md.moment_matrix_of_graph(g, 4).entries
            b = md.moment_matrix_of_graph(md.disjoint_union([g, g]), 4).entries
            assert np.all(np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.abs(a)))
        for _ in range(25):
            parts = [random_graph(rng, int(rng.integers(1, 51)), rng.uniform(0, 0.5))
                     for _ in range(int(rng.integers(2, 5)))]
            total = sum(p.n for p in parts)
            union = md.moment_matrix_of_graph(md.disjoint_union(parts), 4).entries
            mixed = md.mix(
                [(md.moment_matrix_of_graph(p, 4), p.n / total) for p in parts]
            ).entries
            assert np.all(np.abs(union - mixed) <= 1e-9 * np.maximum(1.0, np.abs(union)))

        # walk-moment inequality families on 100 random graphs
        for _ in range(100):
            n = int(rng.integers(2, 101))
            g = random_graph(rng, n, rng.uniform(0.02, 0.6))
            ms = md.vector_state_moments(g, 16).values
            degs = g.degrees.astype(np.float64)
            dmax = float(degs.max())

            def le(lhs, rhs):
                assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))

            for k in range(1, 5):
                le(ms[k], float((degs**k).sum()) / n)
                le(ms[k], dmax**k)
                le(ms[1] ** k, ms[k])
            for k in range(2, 5):
                le(ms[k], 2.0 * ms[1] * dmax ** (k - 1))
            for a_exp in range(5):
                for b_exp in range(5):
                    le(ms[2 * a_exp + b_exp] * ms[b_exp], ms[2 * a_exp + 2 * b_exp])
                    le(ms[a_exp + b_exp] ** 2, ms[2 * a_exp] * ms[2 * b_exp])

        # connected-graph diameter bound on every class with n <= 8
        _check_diameter_bound_all_graphs_up_to_8()


def test_criterion_5_metric_axioms():
    with criterion(5, "metric axioms", 30.0):
        rng = np.random.default_rng(2)
        corpora = [
            [md.named_graph(n) for n in TABLE4V_NAMES],
            [random_graph(rng, int(rng.integers(4, 31)), rng.uniform(0.1, 0.7))
             for _ in range(30)],
        ]
        for gs in corpora:
            # a ridge of 1e-6 of the largest trace keeps every matrix above
            # the singularity threshold, so no pair falls back and the whole
            # matrix is measured with one metric
            traces = [float(np.trace(md.moment_matrix_of_graph(g, 4).entries)) for g in gs]
            eps = 1e-6 * float(np.max(traces))
            for cfg in (
                md.DistanceConfig(degree=4, metric="frobenius"),
                md.DistanceConfig(degree=4, metric="affine-invariant", eps=eps),
            ):
                dm = md.pairwise_distance_matrix(gs, cfg, threads=1)
                d = dm.entries
                n = len(gs)
                assert np.all(d >= 0)
                assert np.array_equal(d, d.T)
                assert np.all(np.diag(d) == 0)
                scale = max(1.0, float(d.max()))
                for i in range(n):
                    for j in range(n):
                        for k in range(n):
                            assert d[i, k] <= d[i, j] + d[j, k] + 1e-9 * scale
                if cfg.metric == "affine-invariant":
                    assert dm.metadata["fallback_pairs"] == 0

        # affine invariance of the geodesic under congruence, random 5x5 pairs
        for _ in range(50):
            x = rng.normal(size=(5, 5))
            while abs(np.linalg.det(x)) < 1e-2:
                x = rng.normal(size=(5, 5))
            a = rng.normal(size=(5, 5))
            a = a @ a.T + 0.5 * np.eye(5)
            b = rng.normal(size=(5, 5))
            b = b @ b.T + 0.5 * np.eye(5)
            d1 = md.affine_invariant_dist(a, b)
            d2 = md.affine_invariant_dist(x @ a @ x.T, x @ b @ x.T)
            assert abs(d1 - d2) <= 1e-8 * max(1.0, d1)


DESK_SETTINGS = [
    {"nv": 200, "ne": 2000, "rho": 0.1, "count": 15},
    {"nv": 200, "ne": 2000, "rho": 0.9, "count": 15},
    {"nv": 200, "ne": 4000, "rho": 0.1, "count": 15},
    {"nv": 200, "ne": 4000, "rho": 0.9, "count": 15},
]


def _desk_eps(gs, degree=4):
    traces = [float(np.trace(md.moment_matrix_of_graph(g, degree).entries)) for g in gs]
    return 1e-6 * float(np.median(traces))


def test_criterion_6_desk_scale_clustering():
    with criterion(6, "desk-scale clustering and classification", 300.0):
        moment_accs, gk3_accs = [], []
        first_corpus = None
        for seed in range(5):
            gs, labels = md.make_rewired_corpus(DESK_SETTINGS, seed=seed)
            if first_corpus is None:
                first_corpus = (gs, labels)
            eps = _desk_eps(gs)
            dm_m = md.method_distance_matrix(
                gs, "moment", degree=4, metric="affine-invariant", eps=eps
            )
            dm_g = md.method_distance_matrix(gs, "gk3")
            for dm, accs in ((dm_m, moment_accs), (dm_g, gk3_accs)):
                kernel = md.kernel_from_distances(dm)
                assignment = md.kernel_kmeans(kernel, 4, restarts=20, seed=seed)
                accs.append(md.clustering_accuracy(assignment, labels))
        moment_mean = float(np.mean(moment_accs))
        gk3_mean = float(np.mean(gk3_accs))
        print(f"  moment accuracy {moment_mean:.3f} {moment_accs}")
        print(f"  gk3 accuracy    {gk3_mean:.3f} {gk3_accs}")
        assert moment_mean >= 0.9
        assert gk3_mean < moment_mean  # graphlets lag on same-size settings

        # classification harness validation: separable synthetic corpus
        gs, labels = first_corpus
        eps = _desk_eps(gs)
        report = md.classify_experiment(
            gs, labels,
            method="moment",
            method_params={"metric": "affine-invariant", "eps": eps},
            degrees=[2, 3, 4],
            knn_k=[1, 3, 5],
            folds=10,
            seed=0,
        )
        print(f"  knn accuracy    {report['accuracy_mean']:.3f} best={report['best']}")
        assert report["accuracy_mean"] >= 0.95


def test_criterion_7_moment_scaling():
    with criterion(7, "moment extraction scaling", 300.0):
        sizes = [(2000, 200000), (2000, 400000), (2000, 800000)]
        rows = md.bench_moment_scaling(sizes, count=3, repeats=5, seed=0)
        times = np.array([r["moment_extract_s"] for r in rows])
        edges = np.array([r["ne"] for r in rows], dtype=np.float64)
        exponent = float(np.polyfit(np.log(edges), np.log(times), 1)[0])
        print(f"  extract times {times.tolist()} exponent {exponent:.3f}")
        assert 0.8 <= exponent <= 1.3
