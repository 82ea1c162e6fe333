"""Certified root refinement shared by the ladder and the shooting oracle.

Both solvers bisect a cell (lo, hi) in which a monotone value v crosses a
target: lo short of it, hi past it (the cell may run either way in x).
Illinois steps estimate the root r, and the bisection is replayed with
each midpoint decided by r.  Every midpoint that moved lo lies between
the cell's lo and the final lo, and every one that moved hi between the
final hi and the cell's hi, so v short of the target at the final lo and
past it at the final hi certify every decision.  An end at or outside the
last Illinois bracket is settled by that bracket's end.  Where the
certificate fails, the bisection is walked on v.

value(x, xa, va, xb, vb) is v at x; it gets the current bracket too, so
that a phase known mod pi can be lifted against the line through it.
side = v(lo) - target, and x is past where side * (v(x) - target) <= 0.
"""

from __future__ import annotations

import math
from typing import Callable

Value = Callable[[float, float, float, float, float], float]
Cell = tuple[float, float, float, float]  # (x, v) at the short end, then the past end


def bisect(lo: float, hi: float, past: Callable, width: float, steps: int) -> tuple[float, float]:
    """Final (lo, hi) of at most steps halvings of [lo, hi], each followed
    by the check |hi - lo| <= width; past(mid, lo, hi) says whether mid lies
    beyond the root."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if past(mid, lo, hi):
            hi = mid
        else:
            lo = mid
        if abs(hi - lo) <= width:
            break
    return lo, hi


def walk(cell: Cell, target: float, value: Value, width: float, steps: int) -> float:
    """Midpoint of the final ends of the bisection walked on value: mid is
    past where value there is not on the current lo's side of the target."""
    lo, v_lo, hi, v_hi = cell

    def past(mid: float, lo: float, hi: float) -> bool:
        nonlocal v_lo, v_hi
        v_mid = value(mid, lo, v_lo, hi, v_hi)
        if (v_lo - target) * (v_mid - target) <= 0.0:
            v_hi = v_mid
            return True
        v_lo = v_mid
        return False

    lo, hi = bisect(lo, hi, past, width, steps)
    return 0.5 * (lo + hi)


def illinois(
    bracket: Cell, target: float, side: float, value: Value, narrow: float
) -> tuple[float, Cell]:
    """(root estimate, last bracket) of Illinois steps in the bracket, which
    stop once a step is at most narrow or leaves the bracket.  The estimate
    is clamped to the bracket; a NaN one gives its lower end."""
    xa, va, xb, vb = bracket
    ya, yb = va - target, vb - target
    held, root = 0, math.inf
    for _ in range(100):
        x = xb - yb * (xb - xa) / (yb - ya)
        if abs(x - root) <= narrow or not min(xa, xb) < x < max(xa, xb):
            break
        root = x
        vx = value(x, xa, va, xb, vb)
        if side * (vx - target) <= 0.0:
            xb, vb, yb = x, vx, vx - target
            if held < 0:
                ya *= 0.5
            held = -1
        else:
            xa, va, ya = x, vx, vx - target
            if held > 0:
                yb *= 0.5
            held = 1
    return min(max(xa, xb), max(min(xa, xb), x)), (xa, va, xb, vb)


def replay(cell: Cell, root: float, bracket: Cell, target: float, side: float,
           value: Value, width: float, steps: int) -> float:
    """Midpoint of the final ends of the bisection of cell, replayed from
    root and certified against the last Illinois bracket, or walked."""
    lo, _, hi, _ = cell
    xa, _, xb, _ = bracket
    direction = math.copysign(1.0, hi - lo)

    def past(mid: float, _lo: float, _hi: float) -> bool:
        return direction * (mid - root) >= 0.0

    end_lo, end_hi = bisect(lo, hi, past, width, steps)
    if (direction * (end_lo - xa) <= 0.0 or side * (value(end_lo, *bracket) - target) > 0.0) and (
        direction * (end_hi - xb) >= 0.0 or side * (value(end_hi, *bracket) - target) <= 0.0
    ):
        return 0.5 * (end_lo + end_hi)
    return walk(cell, target, value, width, steps)
