"""The dispatch policy: which construction realizes a spectrum, certified once.

Every method sits behind one gate, spectrum.require_necessary: a spectrum
whose largest entry misses the spectral radius, or whose sum is negative,
raises a NecessaryConditionViolationError before any construction runs; no
nonnegative matrix has it.  Past the gate, "auto" tries the closed forms in
order: one alpha matrix (whenever the paper's first row x = M_n^{-1} lambda
is nonnegative), the small-order cases (n <= 4), the companion matrix when
it is nonnegative, and last the pattern search.  A NotApplicableError means
only that the method does not cover the spectrum.
"""

from __future__ import annotations

from typing import Optional

from .companion import as_realization, realize_companion
from .errors import NotSuleimanovaError
from .explorer import DEFAULT_BUDGET, explore
from .small_order import realize_small
from .spectrum import Spectrum, Tolerances, require_necessary
from .suleimanova import realize_suleimanova
from .verify import Realization, certify


def _companion(sigma: Spectrum) -> Realization:
    return as_realization(realize_companion(sigma), sigma)


def _auto(sigma: Spectrum) -> Optional[Realization]:
    """The first closed form that applies: alpha, small order, companion."""
    try:
        return realize_suleimanova(sigma)
    except NotSuleimanovaError:
        pass
    if sigma.n <= 4:
        return realize_small(sigma)
    r = _companion(sigma)
    return r if r.params["nonneg"] else None


#: Each method's closed form; a None result leaves the pattern search.
_CLOSED_FORMS = {
    "auto": _auto,
    "suleimanova": realize_suleimanova,
    "small": realize_small,
    "companion": _companion,
    "explore": lambda sigma: None,
}

METHODS = tuple(_CLOSED_FORMS)


def realize(
    sigma: Spectrum,
    method: str = "auto",
    tol: Optional[Tolerances] = None,
    strategy: str = "alpha",
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> Optional[Realization]:
    """sigma's realization by ``method`` (one of METHODS), certified under tol.

    The pattern search (``strategy``, ``budget``, ``seed``) runs for
    "explore", and for "auto" when no closed form applies; None means it
    found no certified realization.  ``tol`` None is certify's default.
    Raises NecessaryConditionViolationError, for every method, when sigma
    fails the gate.
    """
    if method not in _CLOSED_FORMS:
        raise ValueError(f"unknown method {method!r}; choose from {', '.join(METHODS)}")
    require_necessary(sigma)
    r = _CLOSED_FORMS[method](sigma)
    if r is not None:
        return r.with_certificate(certify(r, tol))
    hits = explore(sigma, strategy, budget, seed, tol)  # certified under tol
    return next((h.realization for h in hits if h.certified), None)
