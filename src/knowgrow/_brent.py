"""Bounded scalar minimization by Brent's golden-section/parabolic search.

:func:`bounded_min` is a line-for-line port of scipy's
``minimize_scalar(method="bounded")`` (``_minimize_scalar_bounded``, after
Brent 1973, *Algorithms for Minimization without Derivatives*, ch. 5).  It
performs the same floating-point operations in the same order, so it
returns the same answer bit for bit, and the fitters need not import
scipy's optimization package, which is slow to load, for this one search.
"""
# Ported from scipy's _optimize.py, which carries scipy's BSD notice:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
from __future__ import annotations

import math
import sys
from typing import Callable

#: Evaluations after which the search stops unconverged.
MAXITER = 500

_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


def _sign(v: float) -> float:
    """``np.sign(v) + (v == 0)``: -1 or 1, and NaN for NaN."""
    if v >= 0:
        return 1.0
    return -1.0 if v < 0 else v


def bounded_min(
    func: Callable[[float], float], lo: float, hi: float, xatol: float
) -> tuple[float, float, bool]:
    """Minimize ``func`` over ``[lo, hi]``; return ``(x, func(x), converged)``.

    The search stops once its bracket lies within ``2 * (sqrt(2.2e-16) * |x|
    + xatol / 3)`` of its answer.  ``converged`` is False when it stops at
    ``MAXITER`` evaluations instead, or ends on a NaN.
    """
    a, b = lo, hi
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    fu = math.inf

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    hit_maxiter = False

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # check for a parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            # is the parabola acceptable?
            if (abs(p) < abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    rat = tol1 * _sign(xm - xf)
            else:
                golden = True

        if golden:  # a golden-section step
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN_MEAN * e

        # max() keeps a NaN first argument, as np.maximum would
        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= MAXITER:
            hit_maxiter = True
            break

    ends_on_nan = math.isnan(xf) or math.isnan(fx) or math.isnan(fu)
    return xf, fx, not (hit_maxiter or ends_on_nan)


def hits_bound(x: float, lo: float, hi: float, xatol: float) -> bool:
    """Whether ``x`` lies within ``2 * (sqrt(eps) * |x| + xatol / 3)`` of ``lo`` or ``hi``.

    That is the bracket width at which :func:`bounded_min` stops (``eps``
    being float64's, a hair above its 2.2e-16), so an optimum at or beyond
    an end of ``[lo, hi]`` leaves the answer this close to it, and the true
    optimum may lie outside the range.
    """
    tol = 2.0 * (math.sqrt(sys.float_info.epsilon) * abs(x) + xatol / 3.0)
    return bool(min(x - lo, hi - x) <= tol)
