"""The library's dispatch: realize() picks, builds and certifies once."""

from __future__ import annotations

import pytest

from permrealize import (
    NecessaryConditionViolationError,
    NotApplicableError,
    NotSuleimanovaError,
    Tolerances,
    explore,
    make_spectrum,
    realize,
)
from permrealize import dispatch, explorer
from permrealize.errors import NegativeTraceError
from permrealize.verify import Verdict

INTEGER_EXAMPLE = [10, -1, -2, -3]


@pytest.mark.parametrize("method", dispatch.METHODS)
def test_realize_returns_a_certificate_for_every_method(method):
    sigma = make_spectrum(INTEGER_EXAMPLE)
    r = realize(sigma, method)
    assert r.certificate is not None
    assert r.certificate.verdict is Verdict.PASS
    assert r.target == sigma


@pytest.mark.parametrize(
    "values, method",
    [
        ([10, -1, -2, -3], "suleimanova-permutative"),
        ([6, -1, -2, -3], "zero-trace-permutative"),
        ([8, 2, 2, 0], "small-order"),
        ([0, 0, 0, 0, 0], "companion"),  # no positive entry: not Suleimanova
        ([20, 1, 1, -1, -1], "explorer-permutative"),
    ],
)
def test_auto_policy(values, method):
    r = realize(make_spectrum(values))
    assert r.method == method
    assert r.certificate.passed


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
    assert r.params == {"x": hits[0].x, "blocks": [(0, hits[0].tuple)]}


def test_realize_writes_nothing(capsys):
    assert realize(make_spectrum([3, 3, -2, -2, -2]), budget=400, seed=7) is None
    with pytest.raises(NotApplicableError):
        realize(make_spectrum([20, 1, 1, 1] + [-1] * 6))
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize(
    "values, method",
    [
        ([20, 1, 1, 1] + [-1] * 6, "auto"),  # only the search is left, n > 8
        ([3, 2, 1], "suleimanova"),
        ([3, 2, 1, 1, 1], "small"),
        ([8] + [-1] * 8, "explore"),
    ],
)
def test_not_applicable_is_not_a_failed_condition(values, method):
    with pytest.raises(NotApplicableError) as info:
        realize(make_spectrum(values), method)
    assert not isinstance(info.value, NecessaryConditionViolationError)


def test_negative_trace_is_a_failed_necessary_condition():
    with pytest.raises(NecessaryConditionViolationError) as info:
        realize(make_spectrum([3, -2, -2]), "suleimanova")
    assert isinstance(info.value, NegativeTraceError)
    assert isinstance(info.value, NotSuleimanovaError)


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
