"""The two special functions the package evaluates, in plain numpy.

``erf`` is the Cephes error function (``ndtr.c``, S. L. Moshier) with its
coefficients and evaluation order, so it returns scipy.special.erf's bits;
``genlaguerre`` evaluates generalized Laguerre polynomials by their
three-term recurrence.
"""

from __future__ import annotations

import math

import numpy as np

# erf(x) = x T(x^2) / U(x^2) for |x| <= 1.
_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
      2.23200534594684319226E3, 7.00332514112805075473E3,
      5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
      4.59432382970980127987E3, 2.26290000613890934246E4,
      4.92673942608635921086E4)
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 < x < 8.
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
      7.46321056442269912687E0, 4.86371970985681366614E1,
      1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3,
      5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
      3.54937778887819891062E2, 9.75708501743205489753E2,
      1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)

#: From here on, 1 - erfc(|x|) rounds to 1.0 (it does from about 5.9).
ERF_ONE = 6.5


def _polevl(x: np.ndarray, coef: tuple[float, ...],
            monic: bool = False) -> np.ndarray:
    """Horner's rule from the highest coefficient, as Cephes ``polevl``;
    ``monic`` adds an implicit leading 1, as Cephes ``p1evl``."""
    acc = x + coef[0] if monic else np.full_like(x, coef[0])
    for c in coef[1:]:
        acc *= x
        acc += c
    return acc


def erf(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The error function of a float array, elementwise.

    Three bands, as Cephes evaluates them: the T/U rational for |x| <= 1,
    1 - exp(-x^2) P/Q for 1 < |x| < ``ERF_ONE``, and exactly +-1 beyond;
    odd in x, nan for nan. exp(-x^2) is libm's ``exp`` (``math.exp``),
    because numpy's vectorized ``exp`` may differ from it in the last bit.
    ``out`` may be ``x`` itself.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    inner = a <= 1.0
    band = (a > 1.0) & (a < ERF_ONE)
    xi, xb, ab = x[inner], x[band], a[band]
    out = np.sign(x, out=np.empty_like(x) if out is None else out)
    z = xi * xi
    out[inner] = xi * _polevl(z, _T) / _polevl(z, _U, monic=True)
    e = np.fromiter(map(math.exp, (-(ab * ab)).tolist()), float, ab.size)
    y = e * _polevl(ab, _P) / _polevl(ab, _Q, monic=True)
    out[band] = np.copysign(1.0 - y, xb)
    return out


def genlaguerre(p: int, alpha: float, x: np.ndarray) -> np.ndarray:
    """Generalized Laguerre polynomial L_p^alpha(x) for p >= 1, by the
    recurrence (k + 1) L_{k+1} = (2k + 1 + alpha - x) L_k - (k + alpha)
    L_{k-1} from L_0 = 1 and L_1 = 1 + alpha - x."""
    prev, cur = np.ones_like(x), 1.0 + alpha - x
    for k in range(1, p):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur
                          - (k + alpha) * prev) / (k + 1)
    return cur
