"""Small numerical toolkit: bisection on monotone functions and convex 1-d
minimization. Everything here is deterministic and dependency free; callers
pick tolerances."""

from __future__ import annotations

import math


class SearchError(RuntimeError):
    """A bracket or minimizer could not be located within the allowed window."""


def bisect_root(f, lo: float, hi: float, *, tol: float = 1e-12) -> float:
    """Root of f on [lo, hi] by bisection. Requires a sign change on the bracket."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise SearchError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or (hi - lo) < tol:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(f, lo: float, hi: float, *, tol: float = 1e-12):
    """Minimize a convex (or unimodal) f on [lo, hi]; returns (argmin, min)."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if (b - a) < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    t = 0.5 * (a + b)
    return t, f(t)
