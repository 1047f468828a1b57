"""Generic finite continuous-time Markov chain (CTMC) machinery.

The paper solves its Markov model with the closed-source SHARPE package
[15]; this module is the substitution (DESIGN.md substitution 2).  It
offers three independent steady-state solvers that cross-validate each
other in the test suite:

* ``direct``  — replace one balance equation by the normalisation
  condition and solve the dense linear system;
* ``lstsq``   — least-squares on the full overdetermined system
  ``[Q^T; 1] pi = [0; 1]`` (robust to mild degeneracy);
* ``power``   — power iteration on the uniformised DTMC
  ``P = I + Q / Lambda`` (the classic numerically-gentle method).

Transient analysis (needed by the warm-up diagnostics and the transient
extension benchmark) uses uniformisation with a Poisson series.
"""

from __future__ import annotations


import numpy as np

from repro.errors import MarkovModelError

#: Tolerance for generator validation and solver agreement.
TOLERANCE: float = 1e-9


def validate_generator(q: np.ndarray) -> None:
    """Check that ``q`` is a valid CTMC generator matrix.

    A generator is square, has non-negative off-diagonal entries,
    non-positive diagonal entries, and zero row sums.

    Raises:
        MarkovModelError: when any condition fails.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise MarkovModelError(f"generator must be square, got shape {q.shape}")
    n = q.shape[0]
    if n == 0:
        raise MarkovModelError("generator must have at least one state")
    off = q.copy()
    np.fill_diagonal(off, 0.0)
    if (off < -TOLERANCE).any():
        raise MarkovModelError("generator has negative off-diagonal entries")
    if (np.diag(q) > TOLERANCE).any():
        raise MarkovModelError("generator has positive diagonal entries")
    row_sums = q.sum(axis=1)
    if np.abs(row_sums).max() > 1e-6:
        raise MarkovModelError(
            f"generator rows must sum to zero (max |sum| = {np.abs(row_sums).max():.3e})"
        )


def is_irreducible(q: np.ndarray) -> bool:
    """Whether the chain's transition graph is strongly connected.

    Uses repeated squaring of the boolean reachability matrix — fine for
    the small chains this library builds (N <= a few hundred).
    """
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    if n == 1:
        return True
    reach = (q > TOLERANCE) | np.eye(n, dtype=bool)
    for _ in range(int(np.ceil(np.log2(n))) + 1):
        reach = reach @ reach
    return bool(reach.all())


def steady_state(q: np.ndarray, method: str = "direct") -> np.ndarray:
    """Stationary distribution ``pi`` with ``pi Q = 0`` and ``sum(pi) = 1``.

    Args:
        q: Valid generator matrix.
        method: ``direct``, ``lstsq`` or ``power`` (see module docs).

    Raises:
        MarkovModelError: for invalid generators, unknown methods, or
            when the chain has no unique stationary distribution.
    """
    validate_generator(q)
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    if n == 1:
        return np.array([1.0])
    if method == "direct":
        pi = _steady_state_direct(q)
    elif method == "lstsq":
        pi = _steady_state_lstsq(q)
    elif method == "power":
        pi = _steady_state_power(q)
    else:
        raise MarkovModelError(f"unknown steady-state method {method!r}")
    if (pi < -1e-8).any():
        raise MarkovModelError(
            "stationary distribution has negative mass; the chain is "
            "probably reducible"
        )
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if total <= 0:
        raise MarkovModelError("stationary distribution vanished; chain is degenerate")
    pi = pi / total
    residual = np.abs(pi @ q).max()
    if residual > 1e-6:
        raise MarkovModelError(
            f"steady-state residual {residual:.3e} too large; chain may be reducible"
        )
    return pi


def _steady_state_direct(q: np.ndarray) -> np.ndarray:
    n = q.shape[0]
    a = q.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise MarkovModelError(f"direct steady-state solve failed: {exc}") from exc


def _steady_state_lstsq(q: np.ndarray) -> np.ndarray:
    n = q.shape[0]
    a = np.vstack([q.T, np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    return pi


def _steady_state_power(q: np.ndarray, max_iterations: int = 200_000) -> np.ndarray:
    n = q.shape[0]
    rate = float(np.abs(np.diag(q)).max())
    if rate <= 0.0:
        # The zero generator: every distribution is stationary; return uniform.
        return np.full(n, 1.0 / n)
    lam = rate * 1.05
    p = np.eye(n) + q / lam
    pi = np.full(n, 1.0 / n)
    for _ in range(max_iterations):
        nxt = pi @ p
        if np.abs(nxt - pi).max() < 1e-13:
            return nxt
        pi = nxt
    raise MarkovModelError("power iteration did not converge")


def transient(
    q: np.ndarray,
    pi0: np.ndarray,
    t: float,
    tolerance: float = 1e-12,
) -> np.ndarray:
    """Distribution at time ``t`` starting from ``pi0`` (uniformisation).

    Computes ``pi0 expm(Q t)`` via the Poisson-weighted series over the
    uniformised DTMC, truncating once the remaining Poisson mass falls
    below ``tolerance``.
    """
    validate_generator(q)
    pi0 = np.asarray(pi0, dtype=float)
    if pi0.shape != (q.shape[0],):
        raise MarkovModelError(
            f"initial distribution shape {pi0.shape} does not match chain size {q.shape[0]}"
        )
    if abs(pi0.sum() - 1.0) > 1e-9 or (pi0 < -1e-12).any():
        raise MarkovModelError("initial distribution must be a probability vector")
    if t < 0:
        raise MarkovModelError(f"time must be non-negative, got {t}")
    if t == 0:
        return pi0.copy()
    rate = float(np.abs(np.diag(q)).max())
    if rate == 0.0:
        return pi0.copy()
    lam = rate * 1.05
    if lam * t > 500.0:
        # exp(-lam t) underflows past ~700; split the horizon so each
        # segment's Poisson weights stay representable.  Depth is
        # logarithmic in lam * t.
        half = transient(q, pi0, t / 2.0, tolerance)
        return transient(q, half, t / 2.0, tolerance)
    p = np.eye(q.shape[0]) + q / lam
    mean = lam * t
    weight = np.exp(-mean)
    term = pi0.copy()
    out = weight * term
    k = 0
    accumulated = weight
    # Guard: for large mean the first weight underflows; iterate until
    # the Poisson mass accounted for is ~1.
    max_terms = int(mean + 20 * np.sqrt(mean) + 50)
    while accumulated < 1.0 - tolerance and k < max_terms:
        k += 1
        term = term @ p
        weight = weight * mean / k
        out += weight * term
        accumulated += weight
    return out / out.sum()


def expected_value(pi: np.ndarray, values: np.ndarray) -> float:
    """Steady-state expectation of a per-state quantity."""
    pi = np.asarray(pi, dtype=float)
    values = np.asarray(values, dtype=float)
    if pi.shape != values.shape:
        raise MarkovModelError(
            f"distribution shape {pi.shape} does not match values shape {values.shape}"
        )
    return float(pi @ values)
