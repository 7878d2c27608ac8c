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
  Appl. 22, 2000). Its basis holds at most _LANCZOS_BASIS vectors besides
  sqrt(pi), each orthogonalized against all the others. Once it is full,
  eigh on the projected T gives every Ritz pair; the outer _LANCZOS_KEEP
  Ritz vectors of each end replace the basis, and the last residual
  direction continues it, so T is an arrowhead on the kept Ritz values
  plus a tridiagonal. It stops on the eigenvalue error, not the residual:
  an outer Ritz value with residual r and a gap to the rest of the
  spectrum is within r^2 / gap of an eigenvalue (Kato-Temple), so a wide
  gap lets it stop long before r reaches _KRYLOV_TOL. A spectrum clustered
  near modulus 1 (a slow-mixing ring) would take it many restarts, so an
  unconverged top Ritz value near 1 at any restart from _KRYLOV_PROBE
  operator applications on, or a spent budget of _LANCZOS_BUDGET
  applications, hands the layer back to the dense solver.

Switching cycles Q = B A^k are genuinely nonreversible. Their SLEM is the
largest eigenvalue modulus left once the constant vector is deflated
(Q 1 = 1 for every stochastic Q): the general dense solver eigvals below
_KRYLOV_MIN_N nodes, Arnoldi with full reorthogonalization from there
(Arnoldi 1951; Saad, Numerical Methods for Large Eigenvalue Problems,
2011), with the same hand-back to the dense solver. Arnoldi is not
restarted: numpy has no ordered Schur form for Krylov-Schur, so its basis
grows to _ARNOLDI_MAX_STEPS vectors. It stops on the residual alone: for a
nonnormal Q it bounds no eigenvalue error. Its Ritz checks solve the
Hessenberg H for its eigenvalues alone (eigvals) and get the residual from
the last component of the outer Ritz vector, found by a recurrence without
the eigenvector matrix. Both loops apply the operator through its
matvec_kernel: for a matrix, Csr.matvec_kernel (a dense product on
matrices dense enough, else whole-slab adds where every row holds the same
number of entries, 2 to 8, else np.add.reduceat); for a switching model,
its cycle's.
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
# Lanczos holds at most this many basis vectors besides sqrt(pi), and at
# each restart keeps the Ritz vectors of the _LANCZOS_KEEP lowest and the
# _LANCZOS_KEEP highest Ritz values. Its Ritz checks fall at the restarts.
_LANCZOS_BASIS = 40
_LANCZOS_KEEP = 8
# Operator applications Lanczos may spend; the dense solver takes over beyond it.
_LANCZOS_BUDGET = 3000
# Arnoldi steps between two Ritz checks: _KRYLOV_CHECK while the ratio of
# residual to acceptance level has no trend yet, else as many as its decay
# predicts to reach 1, up to _KRYLOV_MAX_GAP. Each check takes the Ritz
# values from eigvals on H, and only the last component of the outer Ritz
# vector.
_KRYLOV_CHECK = 8
_KRYLOV_MAX_GAP = 32
# Cap on Arnoldi steps, its basis rows; the dense solver takes over beyond it.
_ARNOLDI_MAX_STEPS = 300
# At every Ritz check from _KRYLOV_PROBE operator applications on, an
# unconverged top Ritz value of modulus at least _KRYLOV_NEAR_ONE marks a
# spectrum clustered near 1: Krylov would need hundreds of steps there, so
# the dense solver takes over.
_KRYLOV_PROBE = 16
_KRYLOV_NEAR_ONE = 0.98
# _last_components scales a Ritz vector down by this factor whenever it
# grows past it; squares of 300 such components still fit a float.
_RESCALE = 1e100
# _last_components trusts its recurrence for a Ritz vector while r / gap,
# the bound on the vector's angle to the true one, stays below this. On
# Krylov runs on rings and random layers, every vector up to 1e-10 agreed
# with eigh to 3e-12 relative (components above 1e-5), and every failure,
# a second copy of a double eigenvalue, read 1 or more.
_BOTTOM_UP_TOL = 1e-6

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


def _next_check_gap(last: tuple[int, float] | None, j: int, excess: float) -> int:
    """Steps until the next Ritz check: where the geometric decay of the
    residual / target ratio since the last check reaches 1, within
    1.._KRYLOV_MAX_GAP."""
    if last is None or excess >= last[1]:
        return _KRYLOV_CHECK
    rate = np.log(last[1] / excess) / (j - last[0])
    return int(np.clip(np.ceil(np.log(excess) / rate), 1, _KRYLOV_MAX_GAP))


def _last_components(h: np.ndarray, theta: np.ndarray, gaps: np.ndarray) -> np.ndarray | None:
    """|s_j| for the unit eigenvectors s of the j x j upper Hessenberg h at its
    eigenvalues theta, each gaps away from the nearest other eigenvalue of h;
    None where one of them cannot be trusted.

    Each s comes from the bottom up (Parlett 1980, ch. 7): s_j = 1, and row k
    of (h - theta) s = 0 gives s_(k-1) from s_k..s_j, one dot product a row,
    down to row 2. It is scaled down by _RESCALE whenever it grows past
    _RESCALE, so nothing overflows where s_j is tiny (a converged Ritz
    vector). Row 1 is left over, and its residual r over the norm of s
    bounds the angle between s and the true eigenvector by r / gap (Davis
    and Kahan 1970). The recurrence fails where the true eigenvector has a
    negligible first component (a Ritz vector the start vector does not
    reach, as where a double eigenvalue gets a second copy from rounding);
    r / gap above _BOTTOM_UP_TOL gives that away.
    """
    j = h.shape[0]
    last = []
    sub = np.diagonal(h, -1).tolist()
    for t, gap in zip(theta.tolist(), gaps.tolist()):
        # real arithmetic for a real Ritz value, complex for one of a pair
        hc = h if isinstance(t, float) else h.astype(complex)
        s = np.zeros(j, dtype=hc.dtype)
        s[-1] = s_k = 1.0
        for k in range(j - 1, 0, -1):
            s[k - 1] = s_k = (t * s_k - (hc[k, k:] @ s[k:]).item()) / sub[k - 1]
            if abs(s_k) > _RESCALE:
                s[k - 1 :] /= _RESCALE
                s_k /= _RESCALE
        norm = math.sqrt(np.vdot(s, s).real)
        if abs((hc[0] @ s).item() - t * s_k) > _BOTTOM_UP_TOL * gap * norm:
            return None
        last.append(abs(s[-1]) / norm)
    return np.array(last)


def _outer_ritz(hess: np.ndarray, beta: float) -> tuple[complex, float]:
    """The Ritz value of largest modulus of the j x j Hessenberg H and its
    residual beta |s_j|: the values from eigvals, the last component from
    _last_components, or from the eigenvector matrix of eig where the
    recurrence cannot be trusted."""
    theta = np.linalg.eigvals(hess)
    outer = np.argmax(np.abs(theta))
    distance = np.abs(theta[outer] - theta)
    distance[outer] = np.inf
    last = _last_components(hess, theta[outer, None], distance.min(keepdims=True))
    if last is None:
        theta, vectors = np.linalg.eig(hess)
        outer = np.argmax(np.abs(theta))
        last = np.abs(vectors[-1, outer, None])
    return theta[outer], beta * last[0]


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
    the basis holds m = _LANCZOS_BASIS vectors, eigh on T gives every Ritz
    value theta (ascending) and vector y, with residual beta |y_m|; both
    extremes must converge, to the eigenvalue error that _lanczos_excess
    bounds. Otherwise the Ritz vectors of the _LANCZOS_KEEP lowest and
    highest theta become the basis, and the normalized residual direction,
    to which each y_i couples by beta y_mi, continues it: T restarts as
    diag(theta) bordered by that arrowhead row. Returns None, for a dense
    solver to take over, when the spectrum is clustered near modulus 1 or
    _LANCZOS_BUDGET operator applications are spent.
    """
    m = min(_LANCZOS_BASIS, u.shape[0] - 1)
    keep = min(_LANCZOS_KEEP, (m - 1) // 2)
    kept = np.r_[0:keep, m - keep : m]
    basis = _krylov_basis(u, m)
    t = np.zeros((m, m))
    j = 0
    for applied in range(1, _LANCZOS_BUDGET + 1):
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
            if applied >= _KRYLOV_PROBE and top >= _KRYLOV_NEAR_ONE:
                return None
            basis[1 : 2 * keep + 1] = ritz[:, kept].T @ basis[1 : m + 1]
            j = 2 * keep
            t[:j, :j] = np.diag(theta[kept])
            t[j, :j] = beta * ritz[-1, kept]
        np.divide(r, beta, out=basis[j + 1])
    return None


def _arnoldi(apply, u: np.ndarray) -> float | None:
    """Largest eigenvalue modulus of an operator restricted to the complement
    of u, by Arnoldi with full reorthogonalization.

    u is a unit vector with apply(u) = u whose span the operator leaves
    invariant. Each step applies the operator to the newest basis vector
    and orthogonalizes the result against u and every earlier basis vector;
    the coefficients fill the Hessenberg H. The Ritz value of largest
    modulus must reach residual _KRYLOV_TOL. Returns None, for a dense
    solver to take over, when the spectrum is clustered near modulus 1 or
    _ARNOLDI_MAX_STEPS steps are spent.
    """
    steps = min(_ARNOLDI_MAX_STEPS, u.shape[0] - 1)
    basis = _krylov_basis(u, steps)
    hess = np.zeros((steps + 1, steps))
    check, last = _KRYLOV_PROBE, None
    for j in range(1, steps + 1):
        r = apply(basis[j])
        h, beta2 = _orthogonalize(r, basis[: j + 1])
        hess[:j, j - 1] = h[1:]
        hess[j, j - 1] = beta = math.sqrt(beta2)
        if j == check or beta < _KRYLOV_TOL or j == steps:
            theta, residual = _outer_ritz(hess[:j, :j], beta)
            excess = residual / _KRYLOV_TOL
            if excess < 1.0:
                return float(min(abs(theta), 1.0))
            if j >= _KRYLOV_PROBE and abs(theta) >= _KRYLOV_NEAR_ONE:
                return None
            check = j + _next_check_gap(last, j, excess)
            last = (j, excess)
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
