import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import neharilab as nl
from neharilab.errors import (
    ExponentWindowViolation,
    PotentialDecayViolation,
    SingularExponentViolation,
    WeightViolation,
)
from neharilab.params import fibering_constants, gamma3_window, gamma4_floor

from oracles import maximize_on_ray, q_n_raw


def test_critical_exponents_reference_values():
    assert nl.critical_exponents(3, 0.25, 1.0) == (1.5, 4.5)
    lo, hi = nl.critical_exponents(4, 0.5, 1.0)
    assert lo == pytest.approx(1.5, abs=0) and hi == pytest.approx(3.0, abs=0)


def test_critical_exponents_limit_toward_weight_boundary():
    # lower -> 1 as 2*alpha + mu -> N
    lo, _ = nl.critical_exponents(3, 0.0, 3.0 - 1e-9)
    assert lo == pytest.approx(1.0, abs=1e-9)


def test_window_ordering_strict(rng):
    for _ in range(200):
        N = int(rng.integers(3, 8))
        alpha = rng.uniform(1e-3, 1.0)
        mu = rng.uniform(1e-3, N - 2 * alpha - 1e-3)
        lo, hi = nl.critical_exponents(N, alpha, mu)
        assert lo < hi


def test_default_params_accepted(params):
    assert params.p == 2.0


def test_weight_violation_rejected():
    with pytest.raises(WeightViolation):
        nl.validate(nl.ProblemParams(alpha=1.0, mu=1.2))  # 2a + mu = 3.2 >= 3


def test_p_window_enforced():
    with pytest.raises(ExponentWindowViolation):
        nl.validate(nl.ProblemParams(p=4.5))
    with pytest.raises(ExponentWindowViolation):
        nl.validate(nl.ProblemParams(p=1.5))
    nl.validate(nl.ProblemParams(p=2.0))  # inside (1.5, 4.5)


def test_singular_exponent_window():
    with pytest.raises(SingularExponentViolation):
        nl.validate(nl.ProblemParams(q=1.0))
    with pytest.raises(SingularExponentViolation):
        nl.validate(nl.ProblemParams(q=0.0))


def test_gamma3_window_value():
    # N(2-q)/4 and N/2 for N=3, q=0.5
    assert gamma3_window(3, 0.5) == (1.125, 1.5)
    with pytest.raises(PotentialDecayViolation):
        nl.validate(nl.ProblemParams(gamma3=1.0))
    with pytest.raises(PotentialDecayViolation):
        nl.validate(nl.ProblemParams(gamma3=1.6))


def test_gamma4_floor_value_and_enforcement():
    # zeta1 = 2, zeta2 = 2.4 for the default exponents -> floor 0.75
    assert gamma4_floor(3, 0.25, 1.0, 2.0, 0.5) == pytest.approx(0.75, rel=1e-15)
    with pytest.raises(PotentialDecayViolation):
        nl.validate(nl.ProblemParams(gamma4=0.7))
    # constant b needs no decay window
    nl.validate(nl.ProblemParams(b_form="constant", gamma4=0.0))


def test_all_violations_reported_by_name():
    with pytest.raises(WeightViolation) as err:
        nl.validate(nl.ProblemParams(alpha=1.0, mu=1.2, q=1.5))
    joined = " ".join(err.value.violations)
    assert "2*alpha + mu" in joined and "q must lie in" in joined


def test_choquard_flag_gates_alpha_zero():
    with pytest.raises(WeightViolation):
        nl.validate(nl.ProblemParams(alpha=0.0))
    nl.validate(nl.ProblemParams(alpha=0.0, choquard=True))


def test_fibering_constants_reference_values():
    c = fibering_constants(2.0, 0.5)
    # frozen from the closed forms; cross-checked by the maximization oracle
    assert c.c_pq == pytest.approx(0.3026769592708033, rel=1e-14)
    assert c.c_tilde_pq == pytest.approx(0.1272599850153565, rel=1e-14)
    assert c.ratio == pytest.approx(2.0**0.75 / 4.0, rel=1e-14)


def test_c_pq_against_maximization_oracle(rng):
    for _ in range(25):
        p = rng.uniform(1.2, 4.0)
        q = rng.uniform(0.05, 0.95)
        _, qmax = maximize_on_ray(lambda t: q_n_raw(t, 1.0, 1.0, 1.0, p, q))
        assert fibering_constants(p, q).c_pq == pytest.approx(qmax, rel=1e-9)


def test_ratio_simplification(rng):
    for _ in range(200):
        p = rng.uniform(1.05, 4.8)
        q = rng.uniform(0.02, 0.98)
        c = fibering_constants(p, q)
        assert c.ratio == pytest.approx(q * p ** ((2 - q) / (2 * p - 2)) / 2.0, rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(p=st.floats(1.01, 6.0), q=st.floats(0.005, 0.995))
def test_ratio_window_property(p, q):
    c = fibering_constants(p, q)
    assert 0.0 < c.ratio < 1.0
    assert np.isfinite(c.c_pq) and c.c_pq > 0.0
    assert np.isfinite(c.c_tilde_pq) and c.c_tilde_pq > 0.0


def test_potential_families(params):
    r = np.array([0.0, 1.0, 2.0])
    assert params.a_values(r) == pytest.approx((1 + r**2) ** -1.3)
    assert params.b_values(r) == pytest.approx((1 + r**2) ** -1.0)
    assert params.v_values(r) == pytest.approx(1 + r**2)
    const_b = dataclasses.replace(params, b_form="constant")
    assert const_b.b_values(r) == pytest.approx(np.ones(3))
