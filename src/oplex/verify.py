"""Regression and property suites shared by the CLI and the test suite.

Three suites: "examples" replays the eight hand-built fixtures against
frozen expected values; "bounds" samples random layer pairs and checks the
consensus interval, the SLEM bounds, the product-rate bound, and the
geometric decay law; "perturbation" checks the exact stationary-shift
identity and four small-perturbation scaling laws, which it reads off the
merged and switching verdicts (merged.analyze, switching.analyze). A single
layer's pi, SLEM and consensus, as the decay law and the perturbation
families take them, come from its verdict (merged.analyze_layer).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from . import fixtures
from .merged import analyze as analyze_merged
from .merged import MergedModel, MergedOutcome, analyze_layer, slem_bounds
from .netcore import LayerGraph
from .perturb import fit_shift_family, stationary_shift
from .simlab import DecayCheck, simulate
from .spectral import eig_moduli_nonsymmetric, slem_reversible
from .stochastic import (
    TransitionMatrix,
    is_primitive,
    stationary_from_degrees,
    stationary_general,
    transition_matrix,
)
from .switching import (
    SwitchingModel,
    SwitchingOutcome,
    analyze,
    product_rate_checks,
    rho_star,
)

BOUNDS_SUITE_SEED = 987654321
PERTURBATION_SUITE_SEED = 24680


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _check(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


# ---------------------------------------------------------------------------
# Frozen expected values for the fixture pairs.

OSCILLATING_CYCLE = np.array(
    [
        [0, 0, 0, 1, 0],
        [1 / 2, 0, 0, 1 / 2, 0],
        [5 / 18, 1 / 9, 0, 1 / 2, 1 / 9],
        [1, 0, 0, 0, 0],
        [1 / 2, 1 / 9, 1 / 9, 5 / 18, 0],
    ]
)

OSCILLATING_ODD_LIMIT = np.array(
    [
        [0, 0, 0, 1, 0],
        [1 / 2, 0, 0, 1 / 2, 0],
        [3 / 8, 0, 0, 5 / 8, 0],
        [1, 0, 0, 0, 0],
        [5 / 8, 0, 0, 3 / 8, 0],
    ]
)

OSCILLATING_EVEN_LIMIT = np.array(
    [
        [1, 0, 0, 0, 0],
        [1 / 2, 0, 0, 1 / 2, 0],
        [5 / 8, 0, 0, 3 / 8, 0],
        [0, 0, 0, 1, 0],
        [3 / 8, 0, 0, 5 / 8, 0],
    ]
)

SIA_X0 = np.array([0.1, 0.9, 0.3, 0.7])
SIA_VALUE = 0.2
SIA_PI = np.array([1 / 2, 0, 1 / 2, 0])

MISALIGNED_SLEMS = {"merged": 0.6928, "layer1": 0.6839, "layer2": 0.5338}

TRIANGLE_PI_A = np.array([1 / 3, 1 / 3, 1 / 3])
TRIANGLE_PI_B = np.array([3 / 8, 3 / 8, 1 / 4])
TRIANGLE_PI_CYCLE = np.array([3 / 10, 3 / 10, 2 / 5])

INDUCED_ALPHAS = (0.25, 0.5, 0.75)
# closed-class periods of B A^k, k = 0..5: the parity classes never merge
INDUCED_PERIODS = [(1, 1), (2,), (1, 1), (2,), (1, 1), (2,)]

# Two path pairs, neither layer primitive, whose cycle B A^k reaches
# consensus at every k >= 1: (transient nodes, pi) for k = 1..5. At k = 0
# the cycle is B alone, a path, of period 2.
CROSSED_PATHS_CONSENSUS = [(0, (1 / 3, 1 / 3, 1 / 6, 1 / 6))] * 5
SHIFTED_PATHS_CONSENSUS = [
    (2, (1.0, 0.0, 0.0)) if k % 2 else (0, (0.2, 0.4, 0.4)) for k in range(1, 6)
]
CROSSED_PATHS_SLEM_K1 = 0.5


def period_limits(q: np.ndarray, period: int) -> tuple[np.ndarray, ...]:
    """Limits of Q^(m d + r), r = 0..d-1, for a cycle Q of period d: L Q^r, L = (Q^d)^128."""
    limit = np.linalg.matrix_power(q, period)
    for _ in range(7):
        limit = limit @ limit
    return tuple(limit @ np.linalg.matrix_power(q, r) for r in range(period))


def run_examples_suite() -> list[CheckResult]:
    results: list[CheckResult] = []

    # Oscillating pair: exact cycle product, period-2 limits, oscillation verdict.
    osc1, osc2 = fixtures.oscillating_pair()
    model = SwitchingModel(osc1, osc2, k=1)
    cycle_err = np.abs(model.entries - OSCILLATING_CYCLE).max()
    results.append(
        _check("oscillating/cycle-matrix", cycle_err <= 1e-12, f"max err {cycle_err:.2e}")
    )
    outcome = analyze(model, np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
    results.append(
        _check("oscillating/status", outcome.status == "oscillation", outcome.status)
    )
    if outcome.period == 2:
        even, odd = period_limits(model.entries, outcome.period)
        even_err = np.abs(even - OSCILLATING_EVEN_LIMIT).max()
        odd_err = np.abs(odd - OSCILLATING_ODD_LIMIT).max()
        results.append(
            _check(
                "oscillating/power-limits",
                even_err <= 1e-9 and odd_err <= 1e-9,
                f"even {even_err:.2e}, odd {odd_err:.2e}",
            )
        )
    else:
        results.append(_check("oscillating/power-limits", False, "no evidence"))

    # SIA pair: a reducible cycle with one aperiodic closed class reaches consensus.
    sia = analyze(SwitchingModel(*fixtures.sia_pair(), k=1), SIA_X0)
    results.append(
        _check(
            "sia/consensus",
            sia.status == "consensus"
            and abs(sia.value - SIA_VALUE) <= 1e-12
            and np.abs(sia.pi.pi - SIA_PI).max() <= 1e-12,
            f"{sia.status}, value {sia.value!r}",
        )
    )

    # Misaligned degrees: merged SLEM strictly above both layer SLEMs.
    mis1, mis2 = fixtures.misaligned_degree_pair()
    mis_model = MergedModel(mis1, mis2, alpha=0.5)
    report = slem_bounds(mis_model)
    rho_a = slem_reversible(mis1).slem
    rho_b = slem_reversible(mis2).slem
    close = (
        abs(report.slem_c - MISALIGNED_SLEMS["merged"]) <= 1e-3
        and abs(rho_a - MISALIGNED_SLEMS["layer1"]) <= 1e-3
        and abs(rho_b - MISALIGNED_SLEMS["layer2"]) <= 1e-3
    )
    results.append(
        _check(
            "misaligned/slem-values",
            close,
            f"C {report.slem_c:.4f}, A {rho_a:.4f}, B {rho_b:.4f}",
        )
    )
    results.append(
        _check(
            "misaligned/upper-bound-violated",
            report.slem_c > max(rho_a, rho_b) and not report.degrees_matched,
            f"{report.slem_c:.4f} > {max(rho_a, rho_b):.4f}",
        )
    )

    # Complementary cycles: merging two slow sparse rings gives the complete graph.
    cyc1, cyc2 = fixtures.complementary_cycles_pair()
    cyc_model = MergedModel(cyc1, cyc2, alpha=0.5)
    off_diag = cyc_model.transition.entries.copy()
    np.fill_diagonal(off_diag, 0.25)
    complete_err = np.abs(off_diag - 0.25).max()
    diag_err = np.abs(np.diagonal(cyc_model.transition.entries)).max()
    results.append(
        _check(
            "complementary-cycles/complete-graph",
            complete_err <= 1e-12 and diag_err <= 1e-12,
            f"off-diag err {complete_err:.2e}",
        )
    )
    cyc_report = slem_bounds(cyc_model)
    lower = 1.0 / (cyc1.n - 1)
    results.append(
        _check(
            "complementary-cycles/lower-bound-attained",
            abs(cyc_report.slem_c - lower) <= 1e-10,
            f"slem {cyc_report.slem_c!r} vs 1/(N-1) = {lower}",
        )
    )
    ring_slem = abs(np.cos(4 * np.pi / 5))
    slems_ok = (
        abs(slem_reversible(cyc1).slem - ring_slem) <= 1e-10
        and abs(slem_reversible(cyc2).slem - ring_slem) <= 1e-10
    )
    results.append(_check("complementary-cycles/ring-slems", slems_ok))

    # Triangle pair: the cycle's stationary vector interpolates neither layer's.
    tri1, tri2 = fixtures.triangle_pair()
    pi_a = stationary_from_degrees(tri1).pi
    pi_b = stationary_from_degrees(tri2).pi
    tri_model = SwitchingModel(tri1, tri2, k=1)
    pi_cycle = stationary_general(tri_model).pi
    pis_ok = (
        np.abs(pi_a - TRIANGLE_PI_A).max() <= 1e-10
        and np.abs(pi_b - TRIANGLE_PI_B).max() <= 1e-10
        and np.abs(pi_cycle - TRIANGLE_PI_CYCLE).max() <= 1e-10
    )
    results.append(_check("triangle/stationary-vectors", pis_ok))
    outside = all(
        p < min(a, b) or p > max(a, b)
        for p, a, b in zip(pi_cycle, pi_a, pi_b)
    )
    results.append(_check("triangle/non-interpolation", outside))

    # Induced pair: neither layer is primitive, merging makes C primitive,
    # switching never reaches consensus.
    ind1, ind2 = fixtures.induced_pair()
    layers_primitive = [is_primitive(transition_matrix(layer)) for layer in (ind1, ind2)]
    merged_primitive = [is_primitive(MergedModel(ind1, ind2, a).transition) for a in INDUCED_ALPHAS]
    results.append(
        _check(
            "induced/merged-primitive",
            not any(layers_primitive) and all(merged_primitive),
            f"layers {layers_primitive}, merged {merged_primitive}",
        )
    )
    periods = [
        SwitchingModel(ind1, ind2, k).classes().periods
        for k in range(len(INDUCED_PERIODS))
    ]
    results.append(
        _check(
            "induced/switching-no-consensus",
            periods == INDUCED_PERIODS,
            f"closed-class periods for k = 0..5: {periods}",
        )
    )

    # Path pairs: switching induces consensus where neither layer has it.
    ok, runs = True, []
    for pair, expected in (
        (fixtures.crossed_paths_pair(), CROSSED_PATHS_CONSENSUS),
        (fixtures.shifted_paths_pair(), SHIFTED_PATHS_CONSENSUS),
    ):
        x0 = np.linspace(0.0, 1.0, pair[0].n)
        outcomes = [analyze(SwitchingModel(*pair, k), x0) for k in range(len(expected) + 1)]
        ok &= not any(is_primitive(transition_matrix(layer)) for layer in pair)
        ok &= outcomes[0].status == "oscillation" and outcomes[0].period == 2
        for o, (transient, pi) in zip(outcomes[1:], expected):
            ok &= (
                o.status == "consensus"
                and o.transient == transient
                and np.abs(o.pi.pi - pi).max() <= 1e-12
            )
        runs.append(outcomes)
    slem = runs[0][1].slem_cycle  # the crossed paths' cycle at k = 1
    ok &= abs(slem - CROSSED_PATHS_SLEM_K1) <= 1e-12
    transients = [[o.transient for o in outcomes] for outcomes in runs]
    results.append(
        _check(
            "induced/switching-consensus",
            ok,
            f"transient nodes for k = 0..5: {transients}, crossed-paths SLEM at k = 1 {slem:.12f}",
        )
    )
    return results


# ---------------------------------------------------------------------------
# Random-instance property suite.


def random_layer(rng: np.random.Generator, n: int, dyadic: bool = False) -> LayerGraph:
    """Random connected layer containing a triangle, hence primitive.

    Random attachment tree (node v joins a uniform parent below it), plus
    max(1, n // 2) uniform extra pairs, plus one forced triangle; a pair is
    kept only if it is no self-loop and not yet joined, first draw wins.
    Edge weights are i.i.d. uniform on [0.5, 2), or with dyadic=True uniform
    on the multiples of 1/8 in [0.5, 4], so degree arithmetic is exact in
    floating point.

    The randomness comes in five array draws: tree parents, tree weights,
    extra pairs, triangle, and one weight per extra or triangle candidate.
    A weight drawn for a rejected candidate is dropped; since the weights
    are i.i.d. and independent of the pairs, the kept ones are still i.i.d.,
    so the family is the same as drawing one weight per kept edge. Only the
    order in which the stream is consumed differs.
    """
    if n < 3:
        raise ValueError(f"random_layer needs n >= 3 nodes for its triangle, got {n}")

    def draw_weights(size: int) -> np.ndarray:
        if dyadic:
            return rng.integers(4, 33, size=size) / 8.0
        return rng.uniform(0.5, 2.0, size=size)

    w = np.zeros((n, n))
    children = np.arange(1, n)
    parents = rng.integers(0, children)
    w[parents, children] = w[children, parents] = draw_weights(n - 1)
    extra = max(1, n // 2)
    pairs = rng.integers(0, n, size=(extra, 2)).tolist()
    tri = rng.choice(n, size=3, replace=False).tolist()
    pairs += [[tri[0], tri[1]], [tri[0], tri[2]], [tri[1], tri[2]]]
    for (i, j), weight in zip(pairs, draw_weights(len(pairs)).tolist()):
        if i != j and w[i, j] == 0.0:
            w[i, j] = w[j, i] = weight
    return LayerGraph.from_weights(w)


def degree_matched_pair(
    rng: np.random.Generator, n: int
) -> tuple[LayerGraph, LayerGraph]:
    """Layer pair with exactly equal weighted degree sequences.

    The second layer is the first (a dyadic random_layer) with weight
    shifted around random 4-cycles i-j-k-l (+e on ij and kl, -e on jk and
    li), which leaves every degree unchanged; a cycle is taken only if jk
    and li keep weight >= e, and at most n of 8n candidates land. Dyadic
    weights keep the arithmetic exact.

    The 8n candidates are drawn at once as the first four columns of
    argsort of an 8n x n uniform array: each row's argsort is a uniform
    random permutation, so its first four entries are a uniform ordered
    4-tuple of distinct nodes, the law of choice(n, 4, replace=False). The
    scan over them stays sequential, since each landed shift changes which
    later candidates qualify.
    """
    if n < 4:
        raise ValueError(f"degree_matched_pair needs n >= 4 nodes for its 4-cycles, got {n}")
    layer1 = random_layer(rng, n, dyadic=True)
    quads = rng.random((8 * n, n)).argsort(axis=1)[:, :4].tolist()
    w = layer1.weights.tolist()
    eps = 1.0 / 8.0
    shifts = 0
    for i, j, k, l in quads:
        if w[j][k] >= 2 * eps and w[l][i] >= 2 * eps:
            w[i][j] += eps
            w[j][i] += eps
            w[k][l] += eps
            w[l][k] += eps
            w[j][k] -= eps
            w[k][j] -= eps
            w[l][i] -= eps
            w[i][l] -= eps
            shifts += 1
            if shifts >= n:
                break
    return layer1, LayerGraph.from_weights(w)


def reweight_edge(layer: LayerGraph, i: int, j: int, factor: float) -> LayerGraph:
    """Copy of a layer with the weight of edge (i, j) scaled by factor."""
    w = layer.weights
    if w[i, j] == 0.0:
        raise ValueError(f"({i}, {j}) is not an edge")
    w[i, j] *= factor
    w[j, i] = w[i, j]
    return LayerGraph.from_weights(w)


def run_bounds_suite(n_instances: int = 200, seed: int = BOUNDS_SUITE_SEED) -> list[CheckResult]:
    # each check keeps the detail of its first failing instance; "" = passed
    details = dict.fromkeys(
        (
            "bounds/consensus-interval",
            "bounds/slem-lower",
            "bounds/slem-upper-degree-matched",
            "bounds/product-rate",
            "bounds/geometric-decay",
        ),
        "",
    )

    def fail(name: str, detail: str) -> None:
        details[name] = details[name] or detail

    for idx in range(n_instances):
        rng = np.random.default_rng(seed + idx)
        n = int(rng.integers(4, 21))
        layer1 = random_layer(rng, n)
        layer2 = random_layer(rng, n)
        alpha = float(rng.uniform(0.05, 0.95))
        x0 = rng.random(n)
        # Both layers are primitive, so the interval check is armed unless C
        # is not primitive, which fails the instance as well.
        outcome = analyze_merged(MergedModel(layer1, layer2, alpha), x0)
        checks = outcome.checks()
        if not checks.get("consensus-in-interval", False):
            fail(
                "bounds/consensus-interval",
                f"instance {idx}: consensus {outcome.value} outside {outcome.interval}",
            )
        if not checks["slem-lower-bound"]:
            fail("bounds/slem-lower", f"instance {idx}: slem {outcome.bounds.slem_c} below 1/(N-1)")

        matched1, matched2 = degree_matched_pair(rng, n)
        matched_report = slem_bounds(MergedModel(matched1, matched2, alpha))
        if not matched_report.degrees_matched:
            fail(
                "bounds/slem-upper-degree-matched",
                f"instance {idx}: constructed pair not degree-matched",
            )
        elif not matched_report.checks()["slem-upper-bound"]:
            fail(
                "bounds/slem-upper-degree-matched",
                f"instance {idx}: matched slem {matched_report.slem_c} above "
                f"{matched_report.upper_bound}",
            )

        for k in range(6):
            s_model = SwitchingModel(layer1, layer2, k)
            star = rho_star(s_model)
            slem_cycle = eig_moduli_nonsymmetric(s_model).slem
            if not product_rate_checks(slem_cycle, star)["slem-under-rho-star"]:
                fail(
                    "bounds/product-rate",
                    f"instance {idx}: k={k} slem {slem_cycle} above rho* {star}",
                )

        layer_a = analyze_layer(layer1, x0)
        if layer_a.slem < 1.0:
            law = DecayCheck(layer_a.slem, layer_a.pi)
            runs = [(transition_matrix(layer1), 1)]
            simulate(runs, x0, t_max=20000, tol=1e-13, pi=layer_a.pi, readers=[law])
            check = law.result()
            if not check.passed:
                fail("bounds/geometric-decay", f"instance {idx}: decay margin {check.margin}")

    return [_check(name, not detail, detail) for name, detail in details.items()]


# ---------------------------------------------------------------------------
# Perturbation suite: exact shift identity plus scaling laws.


def _random_positive_stochastic(rng: np.random.Generator, n: int) -> TransitionMatrix:
    m = rng.random((n, n)) + 0.1
    return TransitionMatrix.from_entries(m / m.sum(axis=1, keepdims=True))


def consensus_deviations(
    outcomes: Sequence[MergedOutcome | SwitchingOutcome], x1: float
) -> np.ndarray:
    """|x - x1| for each outcome's consensus x; NaN where it reaches none."""
    return np.array([np.nan if o.value is None else abs(o.value - x1) for o in outcomes])


def run_perturbation_suite(
    n_pairs: int = 100, seed: int = PERTURBATION_SUITE_SEED
) -> list[CheckResult]:
    results: list[CheckResult] = []

    worst = 0.0
    for idx in range(n_pairs):
        rng = np.random.default_rng(seed + idx)
        n = int(rng.integers(2, 11))
        p = _random_positive_stochastic(rng, n)
        bump = 0.05 * rng.random((n, n))
        p_tilde = TransitionMatrix.from_entries(
            (p.entries + bump) / (p.entries + bump).sum(axis=1, keepdims=True)
        )
        report = stationary_shift(p, p_tilde)
        worst = max(worst, float(np.abs(report.delta_predicted - report.delta_actual).max()))
    results.append(
        _check("perturbation/shift-identity", worst <= 1e-9, f"worst gap {worst:.2e}")
    )

    # Two-state pair with closed-form stationary vectors.
    p2 = TransitionMatrix.from_entries([[0.5, 0.5], [0.5, 0.5]])
    p2_tilde = TransitionMatrix.from_entries([[0.6, 0.4], [0.5, 0.5]])
    report2 = stationary_shift(p2, p2_tilde)
    expected = np.array([1 / 18, -1 / 18])
    results.append(
        _check(
            "perturbation/two-state-shift",
            np.abs(report2.delta_actual - expected).max() <= 1e-12
            and np.abs(report2.delta_predicted - expected).max() <= 1e-9,
        )
    )
    ratio = float(np.abs(report2.delta_actual).max()) / report2.max_norm_e
    results.append(
        _check("perturbation/two-state-ratio", abs(ratio - 5 / 9) <= 1e-9, f"{ratio!r}")
    )

    # Four families on the triangle pair, each read as the deviation of its
    # consensus from layer 1's.
    tri1, tri2 = fixtures.triangle_pair()
    x0 = np.array([1.0, 0.0, 0.0])
    layer_a = analyze_layer(tri1, x0)
    x1 = layer_a.value

    # Merged consensus approaches layer 1 linearly in (1 - alpha), under
    # |E2| / min(|E1|, |E2|) |x2 - x1| (1 - alpha).
    alphas = 1.0 - np.array([1e-1, 1e-2, 1e-3, 1e-4])
    outcomes = [analyze_merged(MergedModel(tri1, tri2, a), x0) for a in alphas]
    deviations = consensus_deviations(outcomes, x1)
    x2 = analyze_layer(tri2, x0).value
    e1, e2 = tri1.total_edge_weight, tri2.total_edge_weight
    bound = e2 / min(e1, e2) * abs(x2 - x1) * (1.0 - alphas) + 1e-12
    slope = np.polyfit(np.log(1.0 - alphas), np.log(deviations), 1)[0]
    results.append(
        _check(
            "perturbation/alpha-linear",
            abs(slope - 1.0) <= 0.1 and (deviations <= bound).all(),
            f"slope {slope:.4f}",
        )
    )

    # Merged and switching consensus respond linearly to one reweighted edge
    # pair, of size max |A - B~| in the perturbed layer B~.
    family = [reweight_edge(tri1, 0, 1, 1.0 + eps) for eps in (1e-2, 1e-3, 1e-4)]
    a_entries = transition_matrix(tri1).entries
    e_norms = [float(np.abs(a_entries - transition_matrix(b).entries).max()) for b in family]
    outcomes = [analyze_merged(MergedModel(tri1, b, 0.5), x0) for b in family]
    fit = fit_shift_family(e_norms, consensus_deviations(outcomes, x1))
    results.append(
        _check("perturbation/merged-edge-linear", fit.armed and fit.passed, f"slope {fit.slope}")
    )

    # Switching consensus approaches layer 1 geometrically in k, at a ratio
    # at most 5% above rho2(A); cycles without consensus drop out.
    ks = np.arange(1, 9)
    rho_a = layer_a.slem
    outcomes = [analyze(SwitchingModel(tri1, tri2, int(k)), x0) for k in ks]
    deviations = consensus_deviations(outcomes, x1)
    usable = deviations > 1e-13  # False at NaN
    k_ratio = None
    if usable.sum() >= 2:
        k_ratio = float(np.exp(np.polyfit(ks[usable], np.log(deviations[usable]), 1)[0]))
    results.append(
        _check(
            "perturbation/k-geometric",
            k_ratio is not None and k_ratio <= rho_a * 1.05,
            f"ratio {k_ratio} vs rho2(A) {rho_a}",
        )
    )

    outcomes = [analyze(SwitchingModel(tri1, b, 2), x0) for b in family]
    fit = fit_shift_family(e_norms, consensus_deviations(outcomes, x1))
    results.append(
        _check(
            "perturbation/switching-edge-linear", fit.armed and fit.passed, f"slope {fit.slope}"
        )
    )
    return results


SUITES = {
    "examples": run_examples_suite,
    "bounds": run_bounds_suite,
    "perturbation": run_perturbation_suite,
}
