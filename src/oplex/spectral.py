"""SLEM of the averaging operators, by the cheapest solver that fits.

Every matrix read off an undirected layer, D^-1 W, is similar to the
symmetric S = D^-1/2 W D^-1/2. That includes the merged operator
C = D^-1 W_m: its blended weights W_m = alpha W_1 + (1 - alpha) W_2 are
symmetric whatever the two degree sequences are, so C always takes a
symmetric path. Its SLEM (second largest eigenvalue modulus) governs the
geometric convergence rate, and it needs only the two extreme eigenvalues
of S once the Perron vector sqrt(pi) is deflated:

- below _KRYLOV_MIN_N nodes, the dense solver eigvalsh on S;
- from _KRYLOV_MIN_N nodes on, Lanczos with full reorthogonalization on
  S's nonzeros (Lanczos 1950; Parlett, The Symmetric Eigenvalue Problem,
  1980). A spectrum clustered near modulus 1 (a slow-mixing ring) would
  take it many steps, so an early Ritz value near 1, or a spent step
  budget, hands the layer back to the dense solver.

Switching products B A^k are genuinely nonreversible and go through the
general dense solver. Ties at modulus 1 mean the chain is not primitive and
the SLEM is 1.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .netcore import IsolatedNodeError, LayerGraph
from .stochastic import TransitionMatrix

_PERRON_TOL = 1e-10

# Layers with at least this many nodes take the Lanczos path. Measured
# crossover against eigvalsh on Barabasi-Albert and Erdos-Renyi layers and
# their blends, one BLAS thread.
_KRYLOV_MIN_N = 500
# An extreme Ritz value counts as converged once its residual |beta_j s_j|
# is below this; both extremes must converge.
_KRYLOV_TOL = 1e-12
# Lanczos steps between two Ritz checks: _KRYLOV_CHECK while the residual
# has no trend yet, else as many as its decay predicts, up to
# _KRYLOV_MAX_GAP. Each check is a dense eigh of the tridiagonal T.
_KRYLOV_CHECK = 8
_KRYLOV_MAX_GAP = 32
# Cap on Lanczos steps; the dense solver takes over beyond it.
_KRYLOV_MAX_STEPS = 300
# At the first check after _KRYLOV_PROBE steps, a Ritz value of modulus at
# least _KRYLOV_NEAR_ONE marks a spectrum clustered near 1: Lanczos would
# need hundreds of steps there, so the dense solver takes over.
_KRYLOV_PROBE = 16
_KRYLOV_NEAR_ONE = 0.98

# Absolute slack when a computed SLEM is compared with a proved bound on it.
SLEM_SLACK = 1e-9


@dataclass(frozen=True)
class SpectralSummary:
    """The SLEM and the solver path: "symmetric", "lanczos" or "nonsymmetric"."""

    slem: float
    method: str


def _inverse_sqrt_degrees(layer: LayerGraph) -> np.ndarray:
    if (layer.degrees <= 0).any():
        node = int(np.argmin(layer.degrees))
        raise IsolatedNodeError(f"node {node} is isolated (zero weighted degree)")
    return 1.0 / np.sqrt(layer.degrees)


def symmetrize(layer: LayerGraph) -> np.ndarray:
    """S = D^-1/2 W D^-1/2, exactly symmetric and similar to the transition matrix."""
    inv_sqrt = _inverse_sqrt_degrees(layer)
    return layer.weights * np.outer(inv_sqrt, inv_sqrt)


def _perron_vector(layer: LayerGraph, apply) -> np.ndarray:
    """u = sqrt(pi), the unit eigenvector of S for eigenvalue 1, checked by one product."""
    u = np.sqrt(layer.degrees / layer.degrees.sum())
    if np.abs(apply(u) - u).max() > _PERRON_TOL:
        raise RuntimeError("S sqrt(pi) != sqrt(pi); degrees do not match the weights?")
    return u


def _second_modulus(eigenvalues: np.ndarray) -> float:
    moduli = np.sort(np.abs(eigenvalues))[::-1]
    return float(min(moduli[1], 1.0)) if moduli.shape[0] > 1 else 0.0


def _next_check_gap(last: tuple[int, float] | None, j: int, residual: float) -> int:
    """Steps until the next Ritz check: where the residual's geometric decay
    since the last check reaches _KRYLOV_TOL, within 1.._KRYLOV_MAX_GAP."""
    if last is None or residual >= last[1]:
        return _KRYLOV_CHECK
    rate = np.log(last[1] / residual) / (j - last[0])
    return int(np.clip(np.ceil(np.log(residual / _KRYLOV_TOL) / rate), 1, _KRYLOV_MAX_GAP))


def _slem_lanczos(layer: LayerGraph) -> float | None:
    """SLEM by Lanczos on S restricted to the complement of sqrt(pi).

    S is applied from its nonzeros in CSR order, one reduceat per product.
    After the three-term recurrence every new vector is orthogonalized once
    more against sqrt(pi) and all earlier ones (full reorthogonalization), so
    the Ritz values of the tridiagonal T stay inside the deflated spectrum.
    Returns None, for the dense solver to take over, when the spectrum is
    clustered near modulus 1 or the step budget runs out.
    """
    n = layer.n
    inv_sqrt = _inverse_sqrt_degrees(layer)
    flat = np.flatnonzero(layer.weights != 0)
    rows, cols = np.divmod(flat, n)
    vals = layer.weights.ravel()[flat] * inv_sqrt[rows] * inv_sqrt[cols]
    # rows come sorted and none is empty (no isolated node): CSR row starts
    starts = np.flatnonzero(np.diff(rows, prepend=-1))

    def apply(x: np.ndarray) -> np.ndarray:
        return np.add.reduceat(vals * x[cols], starts)

    steps = min(_KRYLOV_MAX_STEPS, n - 1)
    basis = np.empty((min(_KRYLOV_PROBE, steps) + 2, n))
    basis[0] = u = _perron_vector(layer, apply)
    # a fixed start vector, so reruns are bit-for-bit identical
    start = np.random.default_rng(0).standard_normal(n)
    start -= (u @ start) * u
    basis[1] = start / np.linalg.norm(start)
    diag = np.empty(steps)
    offdiag = np.empty(steps)
    beta = 0.0
    check, last = _KRYLOV_PROBE, None
    for j in range(1, steps + 1):
        r = apply(basis[j]) - beta * basis[j - 1]
        alpha = basis[j] @ r
        r -= alpha * basis[j]
        done = basis[: j + 1]
        h = done @ r
        r -= done.T @ h
        diag[j - 1] = alpha + h[j]
        offdiag[j - 1] = beta = np.linalg.norm(r)
        if j == check or beta < _KRYLOV_TOL or j == steps:
            t = np.diag(diag[:j]) + np.diag(offdiag[: j - 1], 1) + np.diag(offdiag[: j - 1], -1)
            theta, s = np.linalg.eigh(t)
            top = max(theta[-1], -theta[0])
            residual = beta * np.abs(s[-1, [0, -1]]).max()
            if residual < _KRYLOV_TOL:
                return float(min(top, 1.0))
            if j >= _KRYLOV_PROBE and top >= _KRYLOV_NEAR_ONE:
                return None
            check = j + _next_check_gap(last, j, residual)
            last = (j, residual)
        if j + 1 == len(basis):
            # grow by doubling: a run holds only about the rows it uses
            more = min(len(basis), steps + 2 - len(basis))
            basis = np.concatenate([basis, np.empty((more, n))])
        basis[j + 1] = r / beta
    return None


def slem_reversible(layer: LayerGraph) -> SpectralSummary:
    """SLEM of a layer's transition matrix via its symmetrization.

    Lanczos from _KRYLOV_MIN_N nodes on, the dense symmetric solver below
    that and wherever Lanczos gives up.
    """
    if layer.n >= _KRYLOV_MIN_N:
        slem = _slem_lanczos(layer)
        if slem is not None:
            return SpectralSummary(slem=slem, method="lanczos")
    s = symmetrize(layer)
    _perron_vector(layer, lambda x: s @ x)
    return SpectralSummary(slem=_second_modulus(np.linalg.eigvalsh(s)), method="symmetric")


def layer_spectrum(layer: LayerGraph) -> SpectralSummary:
    """slem_reversible(layer), computed on first use and cached on the layer.

    Sweeps reuse the same two layers at every grid point; the cache lives
    and dies with the layer object.
    """
    if layer._spectrum is None:
        object.__setattr__(layer, "_spectrum", slem_reversible(layer))
    return layer._spectrum


def eig_moduli_nonsymmetric(m: TransitionMatrix) -> SpectralSummary:
    """SLEM of a general stochastic matrix.

    Dense Schur-form solver (Hessenberg reduction plus shifted QR) for all
    eigenvalues; complex pairs contribute their common modulus.
    Non-convergence is reported with a hash of the offending matrix.
    """
    try:
        eigenvalues = np.linalg.eigvals(m.entries)
    except np.linalg.LinAlgError as exc:
        digest = hashlib.sha256(np.ascontiguousarray(m.entries).tobytes()).hexdigest()
        raise RuntimeError(f"eigenvalue iteration failed for matrix sha256={digest}") from exc
    leading = np.abs(eigenvalues).max()
    if abs(leading - 1.0) > _PERRON_TOL:
        raise RuntimeError(f"leading eigenvalue modulus {leading!r} is not 1; input not stochastic?")
    return SpectralSummary(slem=_second_modulus(eigenvalues), method="nonsymmetric")

