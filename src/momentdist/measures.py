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

from .graphs import ConfigError, Graph
from .moments import EmptyGraphError, _vector_state

__all__ = [
    "DiscreteMeasure",
    "spectral_measure",
    "graph_spectral_measure",
]

DENSE_MEASURE_N = 4096

# eigenvalues this close, relative to the spectral radius, share one atom
MERGE_REL_TOL = 1e-8
# atoms with at most this much weight are dropped from the support
WEIGHT_FLOOR = 1e-12


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
        if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(om))):
            raise ValueError("atom locations and weights must be finite")
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
        """k-th moment of the measure: sum of omega_i * lambda_i**k."""
        if k < 0:
            raise ValueError("order must be nonnegative")
        return float(np.sum(self.omegas * self.lambdas**k))

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


def spectral_measure(a: np.ndarray, xi: np.ndarray) -> DiscreteMeasure:
    """Spectral distribution of symmetric ``a`` in the vector state of ``xi``.

    Eigenvalues within ``MERGE_REL_TOL`` times the spectral radius of each
    other are clustered into one atom; the cluster weight is the summed
    squared overlap of ``xi`` with the cluster's orthonormal eigenvectors.
    Atoms with weight at or below ``WEIGHT_FLOOR`` are dropped from the
    support.
    """
    a, xi = _vector_state(a, xi)
    eigs, vecs = np.linalg.eigh(a)
    if not np.all(np.isfinite(eigs)):
        raise ValueError("matrix eigenvalues must be finite")
    merge_tol = MERGE_REL_TOL * float(np.max(np.abs(eigs)))
    amps2 = (vecs.T @ xi) ** 2
    # an atom starts at each eigenvalue more than merge_tol above the one before;
    # a 0.0 inserted before each makes reduceat sum from 0.0, as np.sum does
    starts = np.flatnonzero(np.diff(eigs, prepend=-np.inf) > merge_tol)
    at = starts + np.arange(starts.size)
    omegas = np.add.reduceat(np.insert(amps2, starts, 0.0), at)
    lambdas = np.add.reduceat(np.insert(eigs, starts, 0.0), at) / np.diff(starts, append=eigs.size)
    keep = omegas > WEIGHT_FLOOR
    return DiscreteMeasure(lambdas[keep], omegas[keep] / omegas[keep].sum())


def graph_spectral_measure(g: Graph) -> DiscreteMeasure:
    """Spectral distribution of a graph in the uniform vector state.

    Dense-eigendecomposition oracle; ConfigError for graphs above
    ``DENSE_MEASURE_N`` vertices, where the sparse moment pipeline is the
    intended path.
    """
    if g.n == 0:
        raise EmptyGraphError("spectral measure of the empty graph is undefined")
    if g.n > DENSE_MEASURE_N:
        raise ConfigError(
            f"n={g.n} exceeds the dense threshold {DENSE_MEASURE_N}; "
            "use the moment pipeline for large graphs"
        )
    xi = np.full(g.n, 1.0 / np.sqrt(g.n))
    return spectral_measure(g.to_dense(), xi)
