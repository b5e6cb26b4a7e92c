"""The dispatch policy: which construction realizes a spectrum, certified once.

Every method sits behind one gate, spectrum.require_necessary: a spectrum
whose largest entry misses the spectral radius, or whose sum is negative,
raises a NecessaryConditionViolationError before any construction runs; no
nonnegative matrix has it.  Past the gate, "auto" runs the paper's two
closed forms: one alpha matrix (whenever the paper's first row
x = M_n^{-1} lambda is nonnegative), then the small-order cases (n <= 4).
Nothing else can succeed where they fail: a nonnegative companion matrix
means a Suleimanova spectrum, which the alpha matrix covers, and the
search's default alpha strategy can only find the alpha matrix.  The
companion matrix and the pattern search run only when asked for by name.
A NotApplicableError means only that the method does not cover the
spectrum.
"""

from __future__ import annotations

from typing import Optional

from .companion import as_realization, realize_companion
from .errors import NotApplicableError, NotSuleimanovaError
from .explorer import DEFAULT_BUDGET, explore
from .small_order import realize_small
from .spectrum import Spectrum, Tolerances, require_necessary
from .suleimanova import realize_suleimanova
from .verify import Realization, certify


def _companion(sigma: Spectrum) -> Realization:
    return as_realization(realize_companion(sigma), sigma)


def _auto(sigma: Spectrum) -> Realization:
    """The paper's closed forms: one alpha matrix, then order <= 4."""
    try:
        return realize_suleimanova(sigma)
    except NotSuleimanovaError as e:
        if sigma.n <= 4:
            return realize_small(sigma)
        raise NotApplicableError(
            f"no closed form applies at n = {sigma.n} > 4: {e}; "
            "--method explore runs the pattern search"
        ) from e


_CLOSED_FORMS = {
    "auto": _auto,
    "suleimanova": realize_suleimanova,
    "small": realize_small,
    "companion": _companion,
}

METHODS = (*_CLOSED_FORMS, "explore")


def realize(
    sigma: Spectrum,
    method: str = "auto",
    tol: Optional[Tolerances] = None,
    strategy: str = "alpha",
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> Realization:
    """sigma's realization by ``method`` (one of METHODS), certified under tol.

    The pattern search (``strategy``, ``budget``, ``seed``) runs for
    "explore" only, and raises NotApplicableError when it finds no
    certified realization.  ``tol`` None is certify's default.  Raises
    NecessaryConditionViolationError, for every method, when sigma fails
    the gate.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {', '.join(METHODS)}")
    require_necessary(sigma)
    if method == "explore":
        hits = explore(sigma, strategy, budget, seed, tol)  # certified under tol
        for h in hits:
            if h.certified:
                return h.realization
        raise NotApplicableError(
            "the pattern search found no certified realization within budget"
        )
    r = _CLOSED_FORMS[method](sigma)
    return r.with_certificate(certify(r, tol))
