"""The library's dispatch: realize() picks, builds and certifies once."""

from __future__ import annotations

import numpy as np
import pytest

from permrealize import (
    NecessaryConditionViolationError,
    NotApplicableError,
    Tolerances,
    explore,
    make_spectrum,
    realize,
)
from permrealize import dispatch, explorer
from permrealize.spectrum import value_band
from permrealize.verify import Verdict

INTEGER_EXAMPLE = [10, -1, -2, -3]

#: Three positive entries and no alpha first row at n = 12.  Its companion
#: matrix has an entry near -2.58e50, which certify's nonnegativity band,
#: relative to the largest entry (about 1.7e65), lets pass.
TWELVE = [
    1917746.086929501, 522177.83674361755, 86455.93169455843,
    -57109.395782139545, -136880.42015578176, -144343.63453560867,
    -179665.76704169053, -321226.1055553369, -337996.9717151812,
    -363179.7476774313, -450420.6266001102, -535557.1863043968,
]


@pytest.mark.parametrize("method", dispatch.METHODS)
def test_realize_returns_a_certificate_for_every_method(method):
    sigma = make_spectrum(INTEGER_EXAMPLE)
    r = realize(sigma, method)
    assert r.certificate is not None
    assert r.certificate.verdict is Verdict.PASS
    assert r.target == sigma


#: The method that realizes a spectrum ``auto`` leaves open, asked for by name.
BY_NAME = {"companion": "companion", "explorer-permutative": "explore"}


@pytest.mark.parametrize(
    "values, method",
    [
        ([10, -1, -2, -3], "suleimanova-permutative"),
        ([6, -1, -2, -3], "suleimanova-permutative"),  # zero trace
        ([8, 6, 0, 0], "small-order"),  # l_2 > s/n: no alpha matrix
        ([0.31, 0.0013, -0.0059, -0.0103, -0.0396, -0.0668, -0.0866, -0.0966],
         "companion"),
        ([3, 1, 0, -1, -1], "explorer-permutative"),
    ],
)
def test_auto_policy(values, method):
    # auto runs the paper's closed forms only; the last two rows have none,
    # and their realizations come from the methods asked for by name.
    sigma = make_spectrum(values)
    if method in BY_NAME:
        with pytest.raises(NotApplicableError, match="--method explore"):
            realize(sigma)
        r = realize(sigma, BY_NAME[method], strategy="random")
    else:
        r = realize(sigma)
    assert r.method == method
    assert r.certificate.passed


@pytest.mark.parametrize(
    "values",
    [
        TWELVE,
        [3, 1, 0, -1, -1],
        [4.2, 1.6, -1.7, -1.8, -1.8],
        [0.31, 0.0013, -0.0059, -0.0103, -0.0396, -0.0668, -0.0866, -0.0966],
    ],
)
def test_auto_runs_neither_the_companion_nor_the_search(monkeypatch, values):
    def refuse(*args, **kwargs):
        raise AssertionError("auto ran a step beyond the closed forms")

    monkeypatch.setattr(dispatch, "explore", refuse)
    monkeypatch.setattr(dispatch, "realize_companion", refuse)
    with pytest.raises(NotApplicableError, match="--method explore"):
        realize(make_spectrum(values))


def _gate_passing_spectra(seed=20261018, per_scale=8):
    """Uniform float spectra at n = 5..12 and scales 1e-4..1e6, their head
    raised until the largest entry is the radius and the sum is >= 0."""
    rng = np.random.default_rng(seed)
    for n in range(5, 13):
        for scale in (1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6):
            for _ in range(per_scale):
                v = rng.uniform(-1.0, 1.0, n) * scale
                v[0] = np.abs(v).max() + rng.uniform(0.0, 0.1) * scale
                v[0] -= min(0.0, v.sum())
                yield make_spectrum(v.tolist())


def test_auto_returns_only_nonnegative_closed_forms():
    outcomes = set()
    for sigma in _gate_passing_spectra():
        try:
            r = realize(sigma)
        except NotApplicableError:
            outcomes.add("open")
            continue
        assert r.method != "companion", sigma.values
        assert r.matrix.data.min() >= -value_band(abs(sigma.values[0])), sigma.values
        assert r.certificate.passed
        outcomes.add(r.method)
    # Both outcomes occur, so the sweep is not vacuous.
    assert outcomes == {"open", "suleimanova-permutative"}


def test_realize_certifies_under_the_given_tolerances():
    tol = Tolerances(1e-6, 1e-5)
    r = realize(make_spectrum(INTEGER_EXAMPLE), tol=tol)
    assert r.certificate.tolerances == tol


def test_explorer_path_certifies_each_hit_once(monkeypatch):
    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(args[0].method)
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(explorer, "certify", counting(explorer.certify))
    monkeypatch.setattr(dispatch, "certify", counting(dispatch.certify))
    sigma = make_spectrum(INTEGER_EXAMPLE)
    hits = [h for h in explore(sigma, strategy="alpha") if h.certified]
    assert len(hits) == 1
    calls.clear()
    r = realize(sigma, "explore", strategy="alpha")
    assert calls == ["explorer-permutative"]
    assert r == hits[0].realization
    assert r.certificate.passed
    assert r.case is None and r.matrix.layout == ((0, hits[0].tuple),)


def test_realize_writes_nothing(capsys):
    sigma = make_spectrum([3, 3, -2, -2, -2])
    with pytest.raises(NotApplicableError, match="pattern search found no"):
        realize(sigma, "explore", budget=400, seed=7)
    with pytest.raises(NotApplicableError):
        realize(sigma)
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize(
    "values, method",
    [
        ([20, 15, 1] + [-1] * 7, "auto"),  # no closed form at n > 4
        ([3, 2, -1], "suleimanova"),
        ([3, 2, 1, 1, 1], "small"),
        ([8] + [-1] * 8, "explore"),
    ],
)
def test_not_applicable_is_not_a_failed_condition(values, method):
    with pytest.raises(NotApplicableError) as info:
        realize(make_spectrum(values), method)
    assert not isinstance(info.value, NecessaryConditionViolationError)


def test_negative_trace_is_a_failed_necessary_condition():
    with pytest.raises(NecessaryConditionViolationError):
        realize(make_spectrum([3, -2, -2]), "suleimanova")


def test_unknown_method_is_a_value_error():
    with pytest.raises(ValueError, match="unknown method"):
        realize(make_spectrum(INTEGER_EXAMPLE), "nonsense")


def test_explore_refuses_overflowing_coefficients_before_evaluating(monkeypatch):
    evals = []
    kernel = explorer.char_poly_coeffs
    monkeypatch.setattr(
        explorer, "char_poly_coeffs", lambda A: evals.append(1) or kernel(A)
    )
    sigma = make_spectrum([1e300] + [-1e299] * 4)
    with pytest.raises(NotApplicableError, match="overflow"):
        explore(sigma, budget=3000)
    assert evals == []
