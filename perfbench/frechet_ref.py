"""Independent discrete Fréchet distance for checking ``qgf evaluate``'s output.

Plain Python floats, one cell at a time, in the Eiter & Mannila recurrence:
ca(i, j) = max(min(ca(i-1, j), ca(i-1, j-1), ca(i, j-1)), |p_i - q_j|).
For 1-D points |p_i - q_j| equals the Euclidean norm qgf uses, so the two
results must agree exactly, not just within a tolerance.
"""

from __future__ import annotations


def frechet_1d(p, q) -> float:
    p = [float(v) for v in p]
    q = [float(v) for v in q]
    if not p or not q:
        raise ValueError("empty curve")
    prev: list[float] = []
    for i, a in enumerate(p):
        row: list[float] = []
        for j, b in enumerate(q):
            d = abs(a - b)
            if i == 0 and j == 0:
                best = d
            elif i == 0:
                best = row[j - 1]
            elif j == 0:
                best = prev[0]
            else:
                best = min(prev[j], prev[j - 1], row[j - 1])
            row.append(max(best, d))
        prev = row
    return prev[-1]
