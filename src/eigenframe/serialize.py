"""Canonical report formatting.

Identical inputs must produce byte-identical reports, so rationals are
rendered "num/den" (integers as plain ints), floats are rounded to 12
significant digits, and JSON is emitted with sorted keys and fixed
separators.
"""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np


def number_token(x):
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, bool) or isinstance(x, int):
        return x
    if isinstance(x, float):
        return float(f"{x:.12g}")
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _ratio_token(num, den):
    """number_token(Fraction(num, den)) for a positive den, with one gcd."""
    g = math.gcd(num, den)
    return num // g if g == den else f"{num // g}/{den // g}"


def gram_tokens(gram):
    """Row-major entry list from an ExactMatrix, read off its integer
    numerators and common denominator, or from a numpy array (or nested
    lists), read in one pass over its float64 entries: each token is
    number_token(float(x)) of the entry x."""
    if hasattr(gram, "den"):
        return [_ratio_token(x, gram.den) for row in gram.num for x in row]
    return [float(f"{x:.12g}") for x in np.asarray(gram, dtype=float).ravel().tolist()]


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def gram_digest(gram) -> str:
    return hashlib.sha256(canonical_json(gram_tokens(gram)).encode()).hexdigest()
