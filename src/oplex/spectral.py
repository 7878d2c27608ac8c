"""SLEM of the averaging operators, by the cheapest solver that fits.

Every matrix read off an undirected layer, D^-1 W, is similar to the
symmetric S = D^-1/2 W D^-1/2. That includes the merged operator
C = D^-1 W_m: its blended weights W_m = alpha W_1 + (1 - alpha) W_2 are
symmetric whatever the two degree sequences are, so C always takes a
symmetric path. Its SLEM (second largest eigenvalue modulus) governs the
geometric convergence rate, and it needs only the two extreme eigenvalues
of S once the Perron vector sqrt(pi) is deflated:

- below _KRYLOV_MIN_N nodes, the dense solver eigvalsh on S;
- from _KRYLOV_MIN_N nodes on, thick-restart Lanczos on S, held on the
  layer's CSR pattern (Lanczos 1950; Wu and Simon, SIAM J. Matrix Anal.
  Appl. 22, 2000). It stops on the eigenvalue error, not the residual: an
  outer Ritz value with residual r and a gap to the rest of the spectrum
  is within r^2 / gap of an eigenvalue (Kato-Temple), so a wide gap lets
  it stop long before r reaches _KRYLOV_TOL.

Switching cycles Q = B A^k are genuinely nonreversible. Their SLEM is the
largest eigenvalue modulus left once the constant vector is deflated
(Q 1 = 1 for every stochastic Q): the general dense solver eigvals below
_KRYLOV_MIN_N nodes, thick-restart Arnoldi from there (Arnoldi 1951;
Morgan, Math. Comp. 65, 1996). It stops on the residual alone: for a
nonnormal Q it bounds no eigenvalue error.

Both Krylov loops share one restart scheme. The basis holds at most
_KRYLOV_BASIS vectors besides the deflated one, each orthogonalized
against all the others. Once it is full, the projected matrix (Lanczos'
tridiagonal T by eigh, Arnoldi's H by eig) gives every Ritz pair; the
Ritz vectors of _KRYLOV_KEEP Ritz values at each end (Lanczos) or of
largest modulus (Arnoldi) replace the basis, and the last residual
direction continues it. The projected matrix restarts as the kept block
bordered by the residual's couplings: diag(theta) for Lanczos, Q^T H Q on
an orthonormal basis Q of the kept Ritz vectors for Arnoldi, which keeps a
complex pair as its real and imaginary parts. A spectrum clustered near
modulus 1 (a slow-mixing ring) would take many restarts, so an unconverged
top Ritz value near 1 at any restart, or a spent budget of _KRYLOV_BUDGET
operator applications, hands the operator back to the dense solver. Both
loops apply the operator through its matvec_kernel: for a matrix,
Csr.matvec_kernel (a dense product on matrices dense enough, else
whole-slab adds where every row holds the same number of entries, 2 to 8,
else np.add.reduceat); for a switching model, its cycle's.

Ties at modulus 1 mean the chain is not primitive and the SLEM is 1. A
solver lands within rounding of 1 there, so a SLEM within SLEM_SLACK of 1
is settled by the support classification: it is exactly 1 for a layer
that is not primitive or a product that is not SIA. A layer that Lanczos
hands back is classified before any dense solve. slem_reversible caches a
layer's summary on the layer.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .netcore import Csr, LayerGraph, require_no_isolated
from .stochastic import TransitionMatrix, is_primitive, transition_matrix

if TYPE_CHECKING:
    from .switching import SwitchingModel

_PERRON_TOL = 1e-10

# Operators on at least this many nodes take the Krylov path. Measured
# crossover against eigvalsh on Barabasi-Albert and Erdos-Renyi layers and
# their blends, one BLAS thread; Arnoldi beats eigvals from fewer nodes.
_KRYLOV_MIN_N = 500
# An outer Ritz value counts as converged once its residual |beta_j s_j| is
# below this. This is the whole rule for Arnoldi, where a nonnormal Q makes
# the residual no bound on the eigenvalue error, and the fallback for
# Lanczos.
_KRYLOV_TOL = 1e-12
# Lanczos also accepts an outer Ritz value theta with residual r once
# r^2 <= _EIG_TOL gap: an eigenvalue then lies within r^2 / gap of theta,
# gap being theta's distance to the rest of the spectrum (Kato-Temple;
# Parlett 1980, ch. 11). The gap is estimated as the distance to the next
# Ritz value less that value's own residual.
_EIG_TOL = 1e-14
# Both Krylov loops hold at most _KRYLOV_BASIS basis vectors besides the
# deflated vector, and at each restart keep the Ritz vectors of
# _KRYLOV_KEEP Ritz values: for Lanczos the lowest and the highest, for
# Arnoldi those of largest modulus. Their Ritz checks fall at the restarts.
_KRYLOV_BASIS = 40
_KRYLOV_KEEP = 8
# Operator applications either loop may spend; the dense solver takes over beyond it.
_KRYLOV_BUDGET = 3000
# At every restart, an unconverged top Ritz value of modulus at least
# _KRYLOV_NEAR_ONE marks a spectrum clustered near 1: Krylov would need many
# restarts there, so the dense solver takes over.
_KRYLOV_NEAR_ONE = 0.98

# Absolute slack when a computed SLEM is compared with a proved bound on it.
SLEM_SLACK = 1e-9


class SpectralSummary(NamedTuple):
    """The SLEM and the solver path: "symmetric" or "lanczos" for reversible
    operators, "nonsymmetric" or "arnoldi" for general ones."""

    slem: float
    method: str


def _symmetrized(layer: LayerGraph) -> Csr:
    """S = D^-1/2 W D^-1/2 on W's pattern, entry w_ij s_i s_j with s = d^-1/2.

    Each entry is multiplied by the larger of s_i, s_j first: w_ij s_i is
    at most sqrt(d_i), so nothing overflows where s_i s_j alone would (on
    degrees near 1e-320), and S comes out exactly symmetric.
    """
    require_no_isolated(layer)
    s = 1.0 / np.sqrt(layer.degrees)
    w = layer.csr
    s_row, s_col = s[w.rows], s[w.indices]
    return w.with_data(w.data * np.maximum(s_row, s_col) * np.minimum(s_row, s_col))


def symmetrize(layer: LayerGraph) -> np.ndarray:
    """S = D^-1/2 W D^-1/2 as a dense array, exactly symmetric and similar to
    the transition matrix."""
    return _symmetrized(layer).dense()


def _perron_vector(layer: LayerGraph, apply) -> np.ndarray:
    """u = sqrt(pi), the unit eigenvector of S for eigenvalue 1, checked by one product."""
    u = np.sqrt(layer.degrees / layer.degrees.sum())
    if np.abs(apply(u) - u).max() > _PERRON_TOL:
        raise RuntimeError("S sqrt(pi) != sqrt(pi); degrees do not match the weights?")
    return u


def _second_modulus(eigenvalues: np.ndarray) -> float:
    moduli = np.sort(np.abs(eigenvalues))[::-1]
    return float(min(moduli[1], 1.0)) if moduli.shape[0] > 1 else 0.0


def _lanczos_excess(theta: np.ndarray, residuals: np.ndarray) -> float:
    """How far Lanczos is from accepting its outer Ritz values: the larger,
    over the two ends of the spectrum, of residual / target. Accepted below 1.

    theta holds the Ritz values in ascending order and residuals their
    residuals |beta s_j|. At each end, gap = |theta_outer - theta_next| less
    the next value's residual, and the target is sqrt(_EIG_TOL gap), the
    residual at which the eigenvalue error bound r^2 / gap meets _EIG_TOL.
    Where gap is not positive (a clustered or double extreme, or a single
    Ritz value) the target is _KRYLOV_TOL. It is never below _KRYLOV_TOL, so
    the residual rule still accepts wherever it did.
    """
    excess = 0.0
    for outer, after in ((0, 1), (-1, -2)):
        target = _KRYLOV_TOL
        if theta.shape[0] > 1:
            gap = abs(theta[outer] - theta[after]) - residuals[after]
            if gap > 0:
                target = max(target, np.sqrt(_EIG_TOL * gap))
        excess = max(excess, residuals[outer] / target)
    return float(excess)


def _krylov_basis(u: np.ndarray, rows: int) -> np.ndarray:
    """Room for u and rows + 1 Krylov vectors: u, then the fixed start
    vector with u projected out, so reruns are bit-for-bit identical."""
    basis = np.empty((rows + 2, u.shape[0]))
    basis[0] = u
    start = np.random.default_rng(0).standard_normal(u.shape[0])
    start -= (u @ start) * u
    basis[1] = start / np.linalg.norm(start)
    return basis


def _orthogonalize(r: np.ndarray, done: np.ndarray) -> tuple[np.ndarray, float]:
    """Project the orthonormal rows of done out of r in place, by classical
    Gram-Schmidt; return the coefficients and the squared norm left.

    One pass loses orthogonality where it cancels most of the vector, so a
    second pass follows wherever the first left less than 1/sqrt(2) of its
    norm (Daniel, Gragg, Kaufman and Stewart 1976); two keep it to rounding
    (Giraud, Langou and Rozloznik 2005).
    """
    before = r @ r
    h = done @ r
    r -= done.T @ h
    beta2 = r @ r
    if beta2 < 0.5 * before:
        c = done @ r
        r -= done.T @ c
        h += c
        beta2 = r @ r
    return h, beta2


def _restarted_lanczos(apply, u: np.ndarray) -> float | None:
    """Largest eigenvalue modulus of a symmetric operator restricted to the
    complement of u, by thick-restart Lanczos (Wu and Simon 2000).

    u is a unit vector with apply(u) = u, so the restriction keeps every
    other eigenvalue. Each step applies the operator to the newest basis
    vector and orthogonalizes the result against u and every other basis
    vector; its diagonal coefficient and norm extend the tridiagonal T. Once
    the basis holds m = _KRYLOV_BASIS vectors, eigh on T gives every Ritz
    value theta (ascending) and vector y, with residual beta |y_m|; both
    extremes must converge, to the eigenvalue error that _lanczos_excess
    bounds. Otherwise the Ritz vectors of the _KRYLOV_KEEP lowest and
    highest theta become the basis, and the normalized residual direction,
    to which each y_i couples by beta y_mi, continues it: T restarts as
    diag(theta) bordered by that arrowhead row. Returns None, for a dense
    solver to take over, when the spectrum is clustered near modulus 1 or
    _KRYLOV_BUDGET operator applications are spent.
    """
    m = min(_KRYLOV_BASIS, u.shape[0] - 1)
    keep = min(_KRYLOV_KEEP, (m - 1) // 2)
    kept = np.r_[0:keep, m - keep : m]
    basis = _krylov_basis(u, m)
    t = np.zeros((m, m))
    j = 0
    for _ in range(_KRYLOV_BUDGET):
        r = apply(basis[j + 1])
        h, beta2 = _orthogonalize(r, basis[: j + 2])
        t[j, j] = h[j + 1]
        j += 1
        beta = math.sqrt(beta2)
        if j < m and beta >= _KRYLOV_TOL:
            t[j, j - 1] = beta
        else:
            theta, ritz = np.linalg.eigh(t[:j, :j])
            top = max(abs(theta[0]), abs(theta[-1]))
            if _lanczos_excess(theta, beta * np.abs(ritz[-1])) < 1.0:
                return float(min(top, 1.0))
            if top >= _KRYLOV_NEAR_ONE:
                return None
            basis[1 : 2 * keep + 1] = ritz[:, kept].T @ basis[1 : m + 1]
            j = 2 * keep
            t[:j, :j] = np.diag(theta[kept])
            t[j, :j] = beta * ritz[-1, kept]
        np.divide(r, beta, out=basis[j + 1])
    return None


def _arnoldi(apply, u: np.ndarray) -> float | None:
    """Largest eigenvalue modulus of an operator restricted to the complement
    of u, by thick-restart Arnoldi (Morgan, Math. Comp. 65, 1996).

    u is a unit vector with apply(u) = u whose span the operator leaves
    invariant. Each step applies the operator to the newest basis vector
    and orthogonalizes the result against u and every other basis vector;
    the coefficients fill a column of H. Once the basis holds
    m = _KRYLOV_BASIS vectors, eig on H gives every Ritz value theta and
    vector y, with residual beta |y_m|; the one of largest modulus must
    reach residual _KRYLOV_TOL. Otherwise the Ritz vectors of the
    _KRYLOV_KEEP largest moduli, a conjugate pair whole (its two moduli are
    bit-equal) and as its real and imaginary parts, span an invariant
    subspace of H. Their orthonormal basis Q, from qr, makes V Q the new
    basis, continued by the normalized residual direction: H restarts as
    G = Q^T H Q, exact to rounding since H Q = Q G, bordered by the row
    beta Q[m-1, :] (a Krylov-Schur decomposition with G not triangular;
    Stewart 2001). Returns None, for a dense solver to take over, when the
    spectrum is clustered near modulus 1 or _KRYLOV_BUDGET operator
    applications are spent.
    """
    m = min(_KRYLOV_BASIS, u.shape[0] - 1)
    keep = min(_KRYLOV_KEEP, (m - 1) // 2)
    basis = _krylov_basis(u, m)
    hess = np.zeros((m, m))
    j = 0
    for _ in range(_KRYLOV_BUDGET):
        r = apply(basis[j + 1])
        h, beta2 = _orthogonalize(r, basis[: j + 2])
        hess[: j + 1, j] = h[1:]
        j += 1
        beta = math.sqrt(beta2)
        if j < m and beta >= _KRYLOV_TOL:
            hess[j, j - 1] = beta
        else:
            theta, ritz = np.linalg.eig(hess[:j, :j])
            moduli = np.abs(theta)
            outer = np.argmax(moduli)
            if beta * abs(ritz[-1, outer]) < _KRYLOV_TOL:
                return float(min(moduli[outer], 1.0))
            if moduli[outer] >= _KRYLOV_NEAR_ONE:
                return None
            chosen = (moduli >= np.sort(moduli)[-keep]) & (theta.imag >= 0)
            y = ritz[:, chosen]
            q = np.linalg.qr(np.hstack((y.real, y.imag[:, theta[chosen].imag > 0])))[0]
            j = q.shape[1]
            basis[1 : j + 1] = q.T @ basis[1 : m + 1]
            hess[:j, :j] = q.T @ hess @ q
            # below the border, a restart that kept more vectors left entries
            hess[j:] = 0.0
            hess[j, :j] = beta * q[-1]
        np.divide(r, beta, out=basis[j + 1])
    return None


def _slem_lanczos(layer: LayerGraph) -> float | None:
    """SLEM by Lanczos on S with sqrt(pi) deflated, S applied from the layer's CSR."""
    apply = _symmetrized(layer).matvec_kernel()
    return _restarted_lanczos(apply, _perron_vector(layer, apply))


def _slem_arnoldi(m: TransitionMatrix | SwitchingModel) -> float | None:
    """SLEM by Arnoldi on a stochastic Q with the constant vector deflated:
    Q 1 = 1 makes span{1} invariant, so no stationary vector is needed."""
    apply = m.matvec_kernel()
    ones = np.ones(m.n)
    if np.abs(apply(ones) - ones).max() > _PERRON_TOL:
        raise RuntimeError("Q 1 != 1; input not stochastic?")
    return _arnoldi(apply, ones / np.sqrt(m.n))


def _slem_dense(m: TransitionMatrix | SwitchingModel) -> float:
    """SLEM from every eigenvalue of the dense matrix, its leading modulus checked."""
    entries = m.entries
    try:
        eigenvalues = np.linalg.eigvals(entries)
    except np.linalg.LinAlgError as exc:
        import hashlib

        digest = hashlib.sha256(entries.tobytes()).hexdigest()
        raise RuntimeError(f"eigenvalue iteration failed for matrix sha256={digest}") from exc
    leading = np.abs(eigenvalues).max()
    if abs(leading - 1.0) > _PERRON_TOL:
        raise RuntimeError(f"leading eigenvalue modulus {float(leading)!r} is not 1; input not stochastic?")
    return _second_modulus(eigenvalues)


def slem_reversible(layer: LayerGraph) -> SpectralSummary:
    """SLEM of a layer's transition matrix via its symmetrization.

    Lanczos from _KRYLOV_MIN_N nodes on, the dense symmetric solver below
    that and wherever Lanczos gives up on a primitive layer. Exactly 1 if
    the layer is not primitive. Computed on first use and cached on the
    layer: sweeps reuse the same two layers at every grid point, and the
    cache lives and dies with the layer object.
    """
    if layer._spectrum is not None:
        return layer._spectrum
    slem = _slem_lanczos(layer) if layer.n >= _KRYLOV_MIN_N else None
    method = "lanczos"
    if slem is None and (layer.n < _KRYLOV_MIN_N or is_primitive(transition_matrix(layer))):
        s = symmetrize(layer)
        _perron_vector(layer, lambda x: s @ x)
        slem, method = _second_modulus(np.linalg.eigvalsh(s)), "symmetric"
    if slem is None or (slem >= 1.0 - SLEM_SLACK and not is_primitive(transition_matrix(layer))):
        slem = 1.0
    layer._spectrum = SpectralSummary(slem=slem, method=method)
    return layer._spectrum


def eig_moduli_nonsymmetric(m: TransitionMatrix | SwitchingModel) -> SpectralSummary:
    """SLEM of a general stochastic matrix, such as a switching cycle B A^k.

    m is a TransitionMatrix or a switching model, which answers for its
    cycle: both offer n, matvec_kernel(), entries and classes(). Arnoldi
    with the constant vector deflated from _KRYLOV_MIN_N nodes on, through
    matvec_kernel().
    Below that and wherever Arnoldi gives up, the dense Schur-form solver
    (Hessenberg reduction plus shifted QR) on entries for all eigenvalues;
    complex pairs contribute their common modulus. Non-convergence is
    reported with a hash of the offending matrix. Exactly 1 if m is not SIA.
    """
    slem = _slem_arnoldi(m) if m.n >= _KRYLOV_MIN_N else None
    method = "arnoldi"
    if slem is None:
        slem, method = _slem_dense(m), "nonsymmetric"
    if slem >= 1.0 - SLEM_SLACK and not m.classes().converges:
        slem = 1.0
    return SpectralSummary(slem=slem, method=method)
