"""Explicit discrete spectral distributions in a vector state.

For a symmetric matrix A and unit vector xi, the spectral distribution is the
discrete probability measure whose atoms sit at the distinct eigenvalues of A
with weights equal to the squared direction cosines of xi against the
corresponding eigenspaces. It reproduces every moment xi^T A^k xi exactly, so
at desk scale it serves as the ground-truth oracle for the sparse moment
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph

__all__ = [
    "DiscreteMeasure",
    "spectral_measure",
    "measure_moment",
    "graph_spectral_measure",
]

DENSE_MEASURE_N = 4096


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Probability measure with finitely many atoms (lambda_i, omega_i)."""

    lambdas: np.ndarray
    omegas: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=np.float64)
        om = np.asarray(self.omegas, dtype=np.float64)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "omegas", om)
        if lam.shape != om.shape or lam.ndim != 1:
            raise ValueError("lambdas and omegas must be 1-d arrays of equal length")
        if np.any(om < 0):
            raise ValueError("atom weights must be nonnegative")
        if om.size and abs(om.sum() - 1.0) > 1e-10:
            raise ValueError(f"weights must sum to 1, got {om.sum()}")
        if lam.size > 1 and np.any(np.diff(lam) <= 0):
            raise ValueError("atom locations must be strictly increasing")
        lam.flags.writeable = False
        om.flags.writeable = False

    @property
    def num_atoms(self) -> int:
        return self.lambdas.size

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return [(float(l), float(w)) for l, w in zip(self.lambdas, self.omegas)]

    def moment(self, k: int) -> float:
        return measure_moment(self, k)

    def to_csv(self) -> str:
        """Stem-plot data: CSV with columns lambda, omega."""
        lines = ["lambda,omega"]
        lines += [f"{l!r},{w!r}" for l, w in self.atoms]
        return "\n".join(lines) + "\n"

    def __repr__(self):
        body = " + ".join(f"{w:g}*d[{l:g}]" for l, w in self.atoms[:4])
        if self.num_atoms > 4:
            body += " + ..."
        return f"DiscreteMeasure({body})"


def spectral_measure(
    a: np.ndarray,
    xi: np.ndarray,
    merge_tol: float | None = None,
    weight_floor: float = 1e-12,
) -> DiscreteMeasure:
    """Spectral distribution of symmetric ``a`` in the vector state of ``xi``.

    Eigenvalues within ``merge_tol`` of each other are clustered into one
    atom (default tolerance: 1e-8 relative to the spectral radius); the
    cluster weight is the summed squared overlap of ``xi`` with the cluster's
    orthonormal eigenvectors. Atoms with weight at or below ``weight_floor``
    are dropped from the support.
    """
    a = np.asarray(a, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if xi.shape != (a.shape[0],):
        raise ValueError("state vector length must match matrix size")
    if a.size == 0:
        raise ValueError("matrix must be nonempty")
    if np.max(np.abs(a - a.T)) > 1e-10:
        raise ValueError("matrix is not symmetric within 1e-10")
    if abs(np.linalg.norm(xi) - 1.0) > 1e-10:
        raise ValueError("state vector is not unit norm within 1e-10")

    eigs, vecs = np.linalg.eigh(a)
    if merge_tol is None:
        merge_tol = 1e-8 * float(np.max(np.abs(eigs)))
    amps2 = (vecs.T @ xi) ** 2

    lambdas: list[float] = []
    omegas: list[float] = []
    start = 0
    for i in range(1, eigs.size + 1):
        if i == eigs.size or eigs[i] - eigs[i - 1] > merge_tol:
            w = float(amps2[start:i].sum())
            lam = float(np.mean(eigs[start:i]))
            if w > weight_floor:
                lambdas.append(lam)
                omegas.append(w)
            start = i
    om = np.asarray(omegas)
    total = om.sum()
    if total <= 0:
        raise ValueError("all spectral weight fell below the weight floor")
    return DiscreteMeasure(np.asarray(lambdas), om / total)


def measure_moment(mu: DiscreteMeasure, k: int) -> float:
    """k-th moment of the measure: sum of omega_i * lambda_i**k."""
    if k < 0:
        raise ValueError("order must be nonnegative")
    return float(np.sum(mu.omegas * mu.lambdas**k))


def graph_spectral_measure(g: Graph, merge_tol: float | None = None) -> DiscreteMeasure:
    """Spectral distribution of a graph in the uniform vector state.

    Dense-eigendecomposition oracle; raises for graphs above
    ``DENSE_MEASURE_N`` vertices, where the sparse moment pipeline is the
    intended path.
    """
    if g.n == 0:
        raise ValueError("spectral measure of the empty graph is undefined")
    if g.n > DENSE_MEASURE_N:
        raise ValueError(
            f"n={g.n} exceeds the dense threshold {DENSE_MEASURE_N}; "
            "use the moment pipeline for large graphs"
        )
    xi = np.full(g.n, 1.0 / np.sqrt(g.n))
    return spectral_measure(g.to_dense(), xi, merge_tol=merge_tol)
