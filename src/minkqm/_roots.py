"""Certified root refinement shared by the ladder and the shooting oracle.

Both solvers hold a bracket (lo, hi) in which a monotone value v crosses a
target: lo short of it, hi past it (the bracket may run either way in x).
A bracket no wider than width gives its midpoint before any evaluation.
Otherwise Illinois steps in the bracket estimate the root r, down to a
step of width/1024.  If the last Illinois bracket is no wider than width,
its midpoint is returned.  Otherwise r is returned once v at r -+ width/2
falls on either side of the target, a side outside the last bracket being
settled by that bracket's end.  Either way the result lies within width/2
of the root.  Where the certificate fails, the last bracket is bisected on
v to width.

value(x) is v at x; x is past the root where (v(lo) - target) *
(v(x) - target) <= 0.
"""

from __future__ import annotations

import math
from typing import Callable

Cell = tuple[float, float, float, float]  # (x, v) at the short end, then the past end


def refine(bracket: Cell, target: float, value: Callable[[float], float], width: float) -> float:
    """x within width/2 of the root in bracket (see the module docstring)."""
    xa, va, xb, vb = bracket
    if abs(xb - xa) <= width:
        return 0.5 * (xa + xb)
    side = va - target
    ya, yb = side, vb - target
    narrow = width / 1024.0
    held, root = 0, math.inf
    for _ in range(100):
        x = xb - yb * (xb - xa) / (yb - ya)
        if abs(x - root) <= narrow or not min(xa, xb) < x < max(xa, xb):
            break
        root = x
        y = value(x) - target
        if side * y <= 0.0:
            xb, yb = x, y
            if held < 0:
                ya *= 0.5
            held = -1
        else:
            xa, ya = x, y
            if held > 0:
                yb *= 0.5
            held = 1
    if abs(xb - xa) <= width:
        return 0.5 * (xa + xb)
    # the estimate, clamped to the last bracket; a NaN one gives its lower end
    root = min(max(xa, xb), max(min(xa, xb), x))
    toward_b = math.copysign(0.5 * width, xb - xa)
    short, past = root - toward_b, root + toward_b
    if (toward_b * (short - xa) <= 0.0 or side * (value(short) - target) > 0.0) and (
        toward_b * (past - xb) >= 0.0 or side * (value(past) - target) <= 0.0
    ):
        return root
    # walk the bisection of the last bracket; it ends where the midpoint
    # of two neighbouring doubles is one of them
    while abs(xb - xa) > width:
        mid = 0.5 * (xa + xb)
        if mid in (xa, xb):
            break
        if side * (value(mid) - target) <= 0.0:
            xb = mid
        else:
            xa = mid
    return 0.5 * (xa + xb)
