import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import neharilab as nl
from neharilab import fibering as fib
from neharilab.errors import BadLambda, ZeroA, ZeroB
from neharilab.functionals import ReducedTriple

from oracles import bisect_q_n, phi_second, q_n_raw, random_exponents, random_triples

UNIT = ReducedTriple(E=1.0, A=1.0, B=1.0)
P, Q = 2.0, 0.5

triples_st = st.builds(
    ReducedTriple,
    E=st.floats(1e-3, 1e3),
    A=st.floats(1e-3, 1e3),
    B=st.floats(1e-3, 1e3),
)
exponents_st = st.tuples(st.floats(1.15, 4.5), st.floats(0.05, 0.95))


def t_n_closed_form(tr, p, q):
    """((2-q)E / ((2p-q)B))^(1/(2p-2)) in log space on numpy arrays."""
    return np.exp((np.log((2 - q) * np.asarray(tr.E)) - np.log((2 * p - q) * np.asarray(tr.B)))
                  / (2 * p - 2))


def q_n(t, tr, p, q):
    return q_n_raw(t, tr.E, tr.A, tr.B, p, q)


# --- Lambda_n ---------------------------------------------------------------------

def test_zero_A_rejected():
    with pytest.raises(ZeroA):
        fib.lambda_n(ReducedTriple(E=1.0, A=0.0, B=1.0), P, Q)


def test_zero_B_rejected():
    with pytest.raises(ZeroB):
        fib.lambda_n(ReducedTriple(E=1.0, A=1.0, B=0.0), P, Q)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_triples_and_lambda_rejected(bad):
    # NaN and infinity fail by name, like values <= 0, in lambda_n and the
    # one check at the top of nehari_roots
    with pytest.raises(ZeroA):
        fib.lambda_n(ReducedTriple(E=1.0, A=bad, B=1.0), P, Q)
    with pytest.raises(ZeroB):
        fib.lambda_n(ReducedTriple(E=1.0, A=1.0, B=bad), P, Q)
    with pytest.raises(ZeroB):
        fib.lambda_n(ReducedTriple(E=bad, A=1.0, B=1.0), P, Q)
    with pytest.raises(ZeroB):
        fib.nehari_roots(ReducedTriple(E=bad, A=1.0, B=1.0), 0.1, P, Q)
    with pytest.raises(ZeroA):
        fib.nehari_roots(ReducedTriple(E=1.0, A=bad, B=1.0), 0.1, P, Q)
    with pytest.raises(ZeroB):
        fib.lambda_n(ReducedTriple(E=np.ones(3), A=1.0, B=np.array([1.0, bad, 1.0])), P, Q)
    with pytest.raises(BadLambda):
        fib.nehari_roots(UNIT, bad, P, Q)


def test_lambda_values_reference():
    # Lambda_e = ratio * Lambda_n with ratio(2, 1/2) = 2^(3/4)/4 is checked by
    # the acceptance suite's constants_ratio_window
    assert fib.lambda_n(UNIT, P, Q) == pytest.approx(0.3026769592708033, rel=1e-13)


def test_t_max_independent_of_common_scale():
    # the maximizer t_n of Q_n depends on E/B alone; lambda = 1e3 lies above
    # Lambda_n on both rays, where nehari_roots reports t_n with no root
    a = fib.nehari_roots(ReducedTriple(E=5.0, A=1.0, B=5.0), 1e3, P, Q)
    b = fib.nehari_roots(ReducedTriple(E=0.01, A=7.0, B=0.01), 1e3, P, Q)
    assert isinstance(a, fib.NoRoot) and isinstance(b, fib.NoRoot)
    assert a.t_n == pytest.approx(b.t_n, rel=1e-14)
    assert a.t_n == pytest.approx(((2 - Q) / (2 * P - Q)) ** (1 / (2 * P - 2)), rel=1e-14)


def test_lambda_equals_quotient_at_maximizer(rng):
    for _ in range(100):
        tr = ReducedTriple(*(10.0 ** rng.uniform(-3, 3, 3)))
        p, q = rng.uniform(1.2, 4.0), rng.uniform(0.05, 0.95)
        Ln = float(fib.lambda_n(tr, p, q))
        tn = fib.nehari_roots(tr, 2.0 * Ln, p, q).t_n
        assert q_n(tn, tr, p, q) == pytest.approx(Ln, rel=1e-10)


# --- roots ----------------------------------------------------------------------------

def test_two_roots_reference_case():
    Ln = float(fib.lambda_n(UNIT, P, Q))
    roots = fib.nehari_roots(UNIT, 0.5 * Ln, P, Q)
    assert isinstance(roots, fib.TwoRoots)
    tn = np.sqrt(3.0 / 7.0)
    assert roots.t_plus < tn < roots.t_minus
    assert phi_second(roots.t_plus, UNIT, 0.5 * Ln, P, Q) > 0.0
    assert phi_second(roots.t_minus, UNIT, 0.5 * Ln, P, Q) < 0.0
    # independent bisection oracle
    assert roots.t_plus == pytest.approx(
        bisect_q_n(1.0, 1.0, 1.0, P, Q, 0.5 * Ln, 1e-8, tn), rel=1e-9
    )
    assert roots.t_minus == pytest.approx(
        bisect_q_n(1.0, 1.0, 1.0, P, Q, 0.5 * Ln, tn, 1e3), rel=1e-9
    )


def test_double_root_band():
    # t_n = sqrt(3/7) on the unit ray; its tangency identities are checked on
    # this ray among others by the acceptance suite's two_root_structure
    roots = fib.nehari_roots(UNIT, float(fib.lambda_n(UNIT, P, Q)), P, Q)
    assert isinstance(roots, fib.DoubleRoot)
    assert roots.t_n == pytest.approx(np.sqrt(3.0 / 7.0), rel=1e-14)


def test_no_root_above_lambda_n():
    Ln = float(fib.lambda_n(UNIT, P, Q))
    assert isinstance(fib.nehari_roots(UNIT, 2.0 * Ln, P, Q), fib.NoRoot)


def test_root_residuals_across_random_triples(rng):
    for _ in range(300):
        tr = ReducedTriple(*(10.0 ** rng.uniform(-3, 3, 3)))
        p, q = rng.uniform(1.2, 4.0), rng.uniform(0.05, 0.95)
        Ln = float(fib.lambda_n(tr, p, q))
        for frac in (0.1, 0.5, 0.9, 0.999):
            roots = fib.nehari_roots(tr, frac * Ln, p, q)
            assert isinstance(roots, fib.TwoRoots)
            for t in (roots.t_plus, roots.t_minus):
                assert abs(float(q_n(t, tr, p, q)) - frac * Ln) <= 1e-12 * Ln


def test_scalar_nehari_roots_matches_array_closed_forms(rng):
    # nehari_roots takes Lambda_n and t_n on floats with math; lambda_n and
    # the t_n closed form take them on arrays with numpy.  Each side rounds its
    # logs and its exp on its own, and exp(x) carries a relative error of |x|
    # times that of x, so the bound is 1e-15 per unit of the exponents' size
    for p, q in zip(*random_exponents(rng, 20)):
        tr = random_triples(rng, 50)
        Ln_all, tn_all = fib.lambda_n(tr, p, q), t_n_closed_form(tr, p, q)
        kappa, nu = (2 * p - q) / (2 * p - 2), (2 - q) / (2 * p - 2)
        for E, A, B, Ln, tn in zip(*(x.tolist() for x in (*tr.as_tuple(), Ln_all, tn_all))):
            cond_L = 1.0 + kappa * abs(np.log(E)) + abs(np.log(A)) + nu * abs(np.log(B))
            cond_t = 1.0 + (abs(np.log((2 - q) * E)) + abs(np.log((2 * p - q) * B))) / (2 * p - 2)
            triple = ReducedTriple(E, A, B)
            above = fib.nehari_roots(triple, 2.0 * Ln, p, q)
            assert isinstance(above, fib.NoRoot)
            assert abs(above.lambda_n - Ln) <= 1e-15 * cond_L * Ln
            assert abs(above.t_n - tn) <= 1e-15 * cond_t * tn
            below = fib.nehari_roots(triple, 0.5 * Ln, p, q)
            assert isinstance(below, fib.TwoRoots) and below.t_n == above.t_n


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
@pytest.mark.parametrize("field", ["E", "A", "B"])
def test_nehari_roots_names_bad_triple_fields(field, bad):
    fields = {"E": 1.0, "A": 1.0, "B": 1.0, field: bad}
    with pytest.raises(ZeroA if field == "A" else ZeroB):
        fib.nehari_roots(ReducedTriple(**fields), 0.1, P, Q)


def _assert_two_roots(tr, lam, p, q):
    """TwoRoots with the residual bound on Q_n, t_+ < t_n < t_-, and the phi'' signs."""
    Ln = float(fib.lambda_n(tr, p, q))
    roots = fib.nehari_roots(tr, lam, p, q)
    assert isinstance(roots, fib.TwoRoots)
    for t in (roots.t_plus, roots.t_minus):
        assert abs(float(q_n(t, tr, p, q)) - lam) <= fib.ROOT_RTOL * Ln
    assert roots.t_plus < roots.t_n < roots.t_minus
    assert phi_second(roots.t_plus, tr, lam, p, q) > 0.0
    assert phi_second(roots.t_minus, tr, lam, p, q) < 0.0
    return roots


@pytest.mark.parametrize("E, A, B", [(1.0, 1.0, 1e8), (1e-8, 1e-8, 1.0)])
def test_roots_near_p_one_regression(E, A, B):
    # admissible parameters with p near 1; the bracket search before the
    # tau form collapsed here with |residual| = 7.8e-162 > 7.2e-173
    prm = nl.validate(nl.ProblemParams(alpha=0.01, mu=2.9, p=1.05, q=0.02, gamma3=1.49))
    tr = ReducedTriple(E=E, A=A, B=B)
    _assert_two_roots(tr, 0.5 * float(fib.lambda_n(tr, prm.p, prm.q)), prm.p, prm.q)


def test_roots_scale_sweep():
    scales = [10.0**k for k in (-30, -8, 0, 8, 30)]
    kept = 0
    for E, A, B, p, q in itertools.product(scales, scales, scales, (1.05, 2.0, 4.9),
                                           (0.02, 0.5, 0.98)):
        tr = ReducedTriple(E=E, A=A, B=B)
        with np.errstate(over="ignore"):
            tn = float(t_n_closed_form(tr, p, q))
            Ln = float(fib.lambda_n(tr, p, q))
        if not (1e-100 < tn < 1e100 and 1e-250 < Ln < 1e250):
            continue
        for rho in (1e-12, 1e-3, 0.5, 1 - 1.5e-12, 1 - 1e-9):
            _assert_two_roots(tr, rho * Ln, p, q)
            kept += 1
    assert kept == 4425


@settings(max_examples=300, deadline=None)
@given(
    p=st.floats(1.01, 6.0, exclude_min=True, exclude_max=True),
    q=st.floats(0.005, 0.995, exclude_min=True, exclude_max=True),
    rho=st.floats(1e-9, 1.0 - 2e-12),
    logs=st.tuples(*[st.floats(-6.0, 6.0)] * 3),
)
def test_roots_match_bisection_oracle_property(p, q, rho, logs):
    E, A, B = (10.0**x for x in logs)
    tr = ReducedTriple(E=E, A=A, B=B)
    with np.errstate(over="ignore", under="ignore"):
        tn = float(t_n_closed_form(tr, p, q))
        Ln = float(fib.lambda_n(tr, p, q))
    assume(1e-100 < tn < 1e100 and 1e-250 < Ln < 1e250)
    lam = rho * Ln
    roots = _assert_two_roots(tr, lam, p, q)
    for t, lo, hi in ((roots.t_plus, 1e-14 * tn, tn), (roots.t_minus, tn, 10.0 * tn)):
        oracle = bisect_q_n(E, A, B, p, q, lam, lo, hi)
        # 1e-9 relative, or as closely as the residual bounds pin a root: two
        # points with |Q_n - lambda| <= ROOT_RTOL Lambda_n lie within
        # 2 ROOT_RTOL Lambda_n / |Q_n'| of each other (that term matters only
        # within about 1e-10 Lambda_n of the tangency)
        slope = abs((2 - q) * oracle ** (1 - q) * E
                    - (2 * p - q) * oracle ** (2 * p - q - 1) * B) / A
        assert abs(t - oracle) <= 1e-9 * oracle + 2.0 * fib.ROOT_RTOL * Ln / slope


@pytest.mark.parametrize("p, q", [(1.05, 0.02), (2.0, 0.5), (4.9, 0.98)])
def test_tangency_band_edges(p, q):
    for tr in (UNIT, ReducedTriple(E=1e-8, A=3e4, B=2.5e6)):
        Ln = float(fib.lambda_n(tr, p, q))
        _assert_two_roots(tr, (1.0 - 2e-12) * Ln, p, q)
        assert isinstance(fib.nehari_roots(tr, (1.0 - 0.5e-12) * Ln, p, q), fib.DoubleRoot)


@settings(max_examples=200, deadline=None)
@given(triple=triples_st, pq=exponents_st, rho=st.floats(0.01, 0.99),
       log_s=st.floats(-3.0, 3.0))
def test_roots_scale_covariance(triple, pq, rho, log_s):
    # the ray through s u is the ray through u with t rescaled by 1/s
    p, q = pq
    s = 10.0**log_s
    lam = rho * float(fib.lambda_n(triple, p, q))
    base = fib.nehari_roots(triple, lam, p, q)
    scaled = fib.nehari_roots(fib.scale_triple(triple, s, p, q), lam, p, q)
    assert scaled.t_plus == pytest.approx(base.t_plus / s, rel=1e-12)
    assert scaled.t_minus == pytest.approx(base.t_minus / s, rel=1e-12)
