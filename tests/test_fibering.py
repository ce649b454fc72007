import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import neharilab as nl
from neharilab import fibering as fib
from neharilab.errors import NonpositiveT, ZeroA, ZeroB
from neharilab.functionals import ReducedTriple

from oracles import bisect_q_n, random_exponents, random_triples

UNIT = ReducedTriple(E=1.0, A=1.0, B=1.0)
P, Q = 2.0, 0.5

triples_st = st.builds(
    ReducedTriple,
    E=st.floats(1e-3, 1e3),
    A=st.floats(1e-3, 1e3),
    B=st.floats(1e-3, 1e3),
)
exponents_st = st.tuples(st.floats(1.15, 4.5), st.floats(0.05, 0.95))


# --- fibering map -------------------------------------------------------------

def test_phi_prime_reference_value():
    # (1,1,1), p=2, q=0.5, lambda=0.1, t=1: phi' = 1 - 0.1 - 1
    assert fib.phi_prime(1.0, UNIT, 0.1, P, Q) == pytest.approx(-0.1, abs=1e-15)


def test_phi_prime_euler_identity(rng):
    tr = random_triples(rng, 50)
    ts = 10.0 ** rng.uniform(-1, 1, 50)
    lam = 0.3
    lhs = fib.phi_prime(ts, tr, lam, P, Q) * ts
    rhs = ts**2 * tr.E - lam * ts**Q * tr.A - ts ** (2 * P) * tr.B
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_phi_second_finite_difference_of_phi_prime(rng):
    for _ in range(20):
        tr = ReducedTriple(*(10.0 ** rng.uniform(-1, 1, 3)))
        lam, t = 0.2, rng.uniform(0.5, 2.0)
        h = 1e-6 * t
        fd = (fib.phi_prime(t + h, tr, lam, P, Q) - fib.phi_prime(t - h, tr, lam, P, Q)) / (2 * h)
        assert fib.phi_second(t, tr, lam, P, Q) == pytest.approx(fd, rel=1e-8)


def test_nonpositive_t_rejected():
    with pytest.raises(NonpositiveT):
        fib.phi(0.0, UNIT, 0.1, P, Q)
    with pytest.raises(NonpositiveT):
        fib.q_n(-1.0, UNIT, P, Q)


# --- quotients and the connecting identity ---------------------------------------

def test_qn_qe_reference_values():
    # (1,1,1), p=2, q=0.5, t=1
    assert fib.q_n(1.0, UNIT, P, Q) == pytest.approx(0.0, abs=1e-15)
    assert fib.q_e(1.0, UNIT, P, Q) == pytest.approx(0.125, abs=1e-15)
    assert fib.q_e_prime(1.0, UNIT, P, Q) == pytest.approx(-0.0625, abs=1e-15)
    # identity: Q_n - Q_e = (t/q) Q_e'
    assert (1.0 / Q) * (-0.0625) == pytest.approx(0.0 - 0.125, abs=1e-15)


def test_qn_vanishes_at_rate_two_minus_q():
    ts = np.array([1e-6, 1e-7, 1e-8])
    vals = fib.q_n(ts, UNIT, P, Q)
    assert vals == pytest.approx(ts ** (2 - Q), rel=1e-5)


def test_zero_A_rejected():
    with pytest.raises(ZeroA):
        fib.q_n(1.0, ReducedTriple(E=1.0, A=0.0, B=1.0), P, Q)


@settings(max_examples=300, deadline=None)
@given(triple=triples_st, pq=exponents_st, t=st.floats(1e-2, 1e2))
def test_identity_qn_qe_property(triple, pq, t):
    p, q = pq
    qn = fib.q_n(t, triple, p, q)
    qe = fib.q_e(t, triple, p, q)
    qep = fib.q_e_prime(t, triple, p, q)
    scale = (t ** (2 - q) * triple.E + t ** (2 * p - q) * triple.B) / triple.A
    assert abs(qn - qe - t / q * qep) <= 1e-10 * scale


# --- closed-form critical points ----------------------------------------------------

def test_t_max_n_reference_value():
    assert fib.t_max_n(UNIT, P, Q) == pytest.approx(np.sqrt(3.0 / 7.0), rel=1e-14)


def test_t_max_independent_of_common_scale():
    a = fib.t_max_n(ReducedTriple(E=5.0, A=1.0, B=5.0), P, Q)
    b = fib.t_max_n(ReducedTriple(E=0.01, A=7.0, B=0.01), P, Q)
    assert a == pytest.approx(b, rel=1e-14)
    assert a == pytest.approx(((2 - Q) / (2 * P - Q)) ** (1 / (2 * P - 2)), rel=1e-14)


def test_t_max_ordering_and_stationarity(rng):
    for _ in range(100):
        tr = ReducedTriple(*(10.0 ** rng.uniform(-3, 3, 3)))
        p, q = rng.uniform(1.2, 4.0), rng.uniform(0.05, 0.95)
        tn = float(fib.t_max_n(tr, p, q))
        te = float(fib.t_max_e(tr, p, q))
        assert te == pytest.approx(p ** (1 / (2 * p - 2)) * tn, rel=1e-13)
        assert te > tn
        scale = (tn ** (1 - q) * tr.E + tn ** (2 * p - q - 1) * tr.B) / tr.A
        assert abs(fib.q_n_prime(tn, tr, p, q)) <= 1e-10 * scale
        assert abs(fib.q_e_prime(te, tr, p, q)) <= 1e-10 * scale


def test_zero_B_rejected():
    with pytest.raises(ZeroB):
        fib.t_max_n(ReducedTriple(E=1.0, A=1.0, B=0.0), P, Q)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_triples_and_lambda_rejected(bad):
    # NaN and infinity fail by name, like values <= 0, in the closed forms,
    # the quotients and the one check at the top of nehari_roots
    with pytest.raises(ZeroA):
        fib.q_n(1.0, ReducedTriple(E=1.0, A=bad, B=1.0), P, Q)
    with pytest.raises(ZeroB):
        fib.t_max_n(ReducedTriple(E=1.0, A=1.0, B=bad), P, Q)
    with pytest.raises(ZeroB):
        fib.lambda_n(ReducedTriple(E=bad, A=1.0, B=1.0), P, Q)
    with pytest.raises(ZeroB):
        fib.nehari_roots(ReducedTriple(E=bad, A=1.0, B=1.0), 0.1, P, Q)
    with pytest.raises(ZeroA):
        fib.nehari_roots(ReducedTriple(E=1.0, A=bad, B=1.0), 0.1, P, Q)
    with pytest.raises(ZeroB):
        fib.t_max_n(ReducedTriple(E=np.ones(3), A=1.0, B=np.array([1.0, bad, 1.0])), P, Q)
    with pytest.raises(NonpositiveT):
        fib.nehari_roots(UNIT, bad, P, Q)


def test_lambda_values_reference():
    assert fib.lambda_n(UNIT, P, Q) == pytest.approx(0.3026769592708033, rel=1e-13)
    assert fib.lambda_e(UNIT, P, Q) == pytest.approx(
        0.3026769592708033 * 2.0**0.75 / 4.0, rel=1e-13
    )


def test_lambda_equals_quotient_at_maximizer(rng):
    for _ in range(100):
        tr = ReducedTriple(*(10.0 ** rng.uniform(-3, 3, 3)))
        p, q = rng.uniform(1.2, 4.0), rng.uniform(0.05, 0.95)
        tn, te = float(fib.t_max_n(tr, p, q)), float(fib.t_max_e(tr, p, q))
        Ln, Le = float(fib.lambda_n(tr, p, q)), float(fib.lambda_e(tr, p, q))
        assert fib.q_n(tn, tr, p, q) == pytest.approx(Ln, rel=1e-10)
        assert fib.q_e(te, tr, p, q) == pytest.approx(Le, rel=1e-10)
        assert Le < Ln


# --- roots ----------------------------------------------------------------------------

def test_two_roots_reference_case():
    Ln = float(fib.lambda_n(UNIT, P, Q))
    roots = fib.nehari_roots(UNIT, 0.5 * Ln, P, Q)
    assert isinstance(roots, fib.TwoRoots)
    tn = np.sqrt(3.0 / 7.0)
    assert roots.t_plus < tn < roots.t_minus
    assert fib.phi_second(roots.t_plus, UNIT, 0.5 * Ln, P, Q) > 0.0
    assert fib.phi_second(roots.t_minus, UNIT, 0.5 * Ln, P, Q) < 0.0
    # independent bisection oracle
    assert roots.t_plus == pytest.approx(
        bisect_q_n(1.0, 1.0, 1.0, P, Q, 0.5 * Ln, 1e-8, tn), rel=1e-9
    )
    assert roots.t_minus == pytest.approx(
        bisect_q_n(1.0, 1.0, 1.0, P, Q, 0.5 * Ln, tn, 1e3), rel=1e-9
    )


def test_double_root_band():
    Ln = float(fib.lambda_n(UNIT, P, Q))
    roots = fib.nehari_roots(UNIT, Ln, P, Q)
    assert isinstance(roots, fib.DoubleRoot)
    assert roots.t_n == pytest.approx(np.sqrt(3.0 / 7.0), rel=1e-13)
    scale = max(1.0, Ln)
    tn = roots.t_n
    assert abs(fib.phi_prime(tn, UNIT, Ln, P, Q)) <= 1e-12 * scale
    assert abs(fib.phi_second(tn, UNIT, Ln, P, Q) * tn) <= 1e-10 * scale


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
                assert abs(float(fib.q_n(t, tr, p, q)) - frac * Ln) <= 1e-12 * Ln


def test_scalar_nehari_roots_matches_array_closed_forms(rng):
    # nehari_roots takes Lambda_n and t_n on floats with math; lambda_n and
    # t_max_n take them on arrays with numpy.  Each side rounds its logs and
    # its exp on its own, and exp(x) carries a relative error of |x| times
    # that of x, so the bound is 1e-15 per unit of the exponents' size
    for p, q in zip(*random_exponents(rng, 20)):
        tr = random_triples(rng, 50)
        Ln_all, tn_all = fib.lambda_n(tr, p, q), fib.t_max_n(tr, p, q)
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


def test_qn_unimodal_between_roots(rng):
    tr = ReducedTriple(E=2.0, A=0.5, B=1.5)
    tn = float(fib.t_max_n(tr, P, Q))
    ts_left = tn * np.linspace(0.05, 0.95, 20)
    ts_right = tn * np.linspace(1.05, 20.0, 20)
    assert np.all(fib.q_n_prime(ts_left, tr, P, Q) > 0.0)
    assert np.all(fib.q_n_prime(ts_right, tr, P, Q) < 0.0)


def _assert_two_roots(tr, lam, p, q):
    """TwoRoots with the residual bound on Q_n, t_+ < t_n < t_-, and the phi'' signs."""
    Ln = float(fib.lambda_n(tr, p, q))
    roots = fib.nehari_roots(tr, lam, p, q)
    assert isinstance(roots, fib.TwoRoots)
    for t in (roots.t_plus, roots.t_minus):
        assert abs(float(fib.q_n(t, tr, p, q)) - lam) <= fib.ROOT_RTOL * Ln
    assert roots.t_plus < roots.t_n < roots.t_minus
    assert fib.phi_second(roots.t_plus, tr, lam, p, q) > 0.0
    assert fib.phi_second(roots.t_minus, tr, lam, p, q) < 0.0
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
            tn = float(fib.t_max_n(tr, p, q))
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
        tn = float(fib.t_max_n(tr, p, q))
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
        slope = abs(float(fib.q_n_prime(oracle, tr, p, q)))
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


# --- classification ----------------------------------------------------------------------

def test_classify_projected_points():
    tr = ReducedTriple(E=1.3, A=0.7, B=2.1)
    Ln = float(fib.lambda_n(tr, P, Q))
    lam = 0.5 * Ln
    roots = fib.nehari_roots(tr, lam, P, Q)
    plus = fib.scale_triple(tr, roots.t_plus, P, Q)
    minus = fib.scale_triple(tr, roots.t_minus, P, Q)
    assert fib.classify(plus, lam, P, Q) is fib.Branch.NPLUS
    assert fib.classify(minus, lam, P, Q) is fib.Branch.NMINUS
    assert fib.classify(tr, lam, P, Q) is fib.Branch.NOT_ON_NEHARI


def test_classify_tangency_is_nzero():
    tr = ReducedTriple(E=1.3, A=0.7, B=2.1)
    tn = float(fib.t_max_n(tr, P, Q))
    tangent = fib.scale_triple(tr, tn, P, Q)
    lam = float(fib.lambda_n(tr, P, Q))
    assert fib.classify(tangent, lam, P, Q) is fib.Branch.NZERO


# --- sign equivalences ---------------------------------------------------------------------

def test_rn_slope_sign_matches_numeric_derivative(rng):
    # direct numeric differentiation of t -> Q_n(t) against the reduced
    # second-derivative form
    tr = ReducedTriple(E=1.1, A=0.9, B=0.7)
    tn = float(fib.t_max_n(tr, P, Q))
    for t in tn * np.logspace(-1, 1, 21):
        h = 1e-6 * t
        fd = (fib.q_n(t + h, tr, P, Q) - fib.q_n(t - h, tr, P, Q)) / (2 * h)
        form = (2 - Q) * tr.E - (2 * P - Q) * t ** (2 * P - 2) * tr.B
        if abs(fd) > 1e-8:
            assert np.sign(fd) == np.sign(form)

