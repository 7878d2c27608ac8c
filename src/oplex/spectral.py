"""Eigenvalue moduli and SLEM for the averaging operators.

Two paths. Every matrix read off an undirected layer, D^-1 W, is similar to
the symmetric D^-1/2 W D^-1/2 and uses a symmetric solver. That includes
the merged operator C = D^-1 W_m: its blended weights W_m = alpha W_1 +
(1 - alpha) W_2 are symmetric whatever the two degree sequences are, so C
always takes this path. Switching products B A^k are genuinely
nonreversible and go through the general dense solver. The SLEM (second
largest eigenvalue modulus) governs the geometric convergence rate; ties at
modulus 1 mean the chain is not primitive and the SLEM is 1.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .netcore import IsolatedNodeError, LayerGraph
from .stochastic import TransitionMatrix

_PERRON_TOL = 1e-10

# Absolute slack when a computed SLEM is compared with a proved bound on it.
SLEM_SLACK = 1e-9


@dataclass(frozen=True)
class SpectralSummary:
    """Eigenvalue moduli sorted descending; slem is the second entry."""

    moduli: np.ndarray
    slem: float
    method: str


def symmetrize(layer: LayerGraph) -> np.ndarray:
    """S = D^-1/2 W D^-1/2, exactly symmetric and similar to the transition matrix."""
    if (layer.degrees <= 0).any():
        node = int(np.argmin(layer.degrees))
        raise IsolatedNodeError(f"node {node} is isolated (zero weighted degree)")
    inv_sqrt = 1.0 / np.sqrt(layer.degrees)
    return layer.weights * np.outer(inv_sqrt, inv_sqrt)


def _summarize(moduli: np.ndarray, method: str) -> SpectralSummary:
    moduli = np.sort(moduli)[::-1]
    if abs(moduli[0] - 1.0) > _PERRON_TOL:
        raise RuntimeError(
            f"leading eigenvalue modulus {moduli[0]!r} is not 1; input not stochastic?"
        )
    slem = float(min(moduli[1], 1.0)) if moduli.shape[0] > 1 else 0.0
    return SpectralSummary(moduli=moduli, slem=slem, method=method)


def slem_reversible(layer: LayerGraph) -> SpectralSummary:
    """Spectrum of a layer's transition matrix via its symmetrization."""
    eigenvalues = np.linalg.eigvalsh(symmetrize(layer))
    return _summarize(np.abs(eigenvalues), method="symmetric")


def layer_spectrum(layer: LayerGraph) -> SpectralSummary:
    """slem_reversible(layer), computed on first use and cached on the layer.

    Sweeps reuse the same two layers at every grid point; the cache lives
    and dies with the layer object.
    """
    if layer._spectrum is None:
        object.__setattr__(layer, "_spectrum", slem_reversible(layer))
    return layer._spectrum


def eig_moduli_nonsymmetric(m: TransitionMatrix) -> SpectralSummary:
    """All eigenvalue moduli of a general stochastic matrix.

    Dense Schur-form solver (Hessenberg reduction plus shifted QR); complex
    pairs contribute their common modulus. Non-convergence is reported with
    a hash of the offending matrix.
    """
    try:
        eigenvalues = np.linalg.eigvals(m.entries)
    except np.linalg.LinAlgError as exc:
        digest = hashlib.sha256(np.ascontiguousarray(m.entries).tobytes()).hexdigest()
        raise RuntimeError(f"eigenvalue iteration failed for matrix sha256={digest}") from exc
    return _summarize(np.abs(eigenvalues), method="nonsymmetric")


def rayleigh_quotient(s: np.ndarray, v: np.ndarray) -> float:
    """v'Sv / v'v for symmetric S; lies between the extreme eigenvalues."""
    vec = np.asarray(v, dtype=float)
    denom = float(vec @ vec)
    if denom == 0.0:
        raise ValueError("Rayleigh quotient of the zero vector is undefined")
    return float(vec @ s @ vec) / denom
