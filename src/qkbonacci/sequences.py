"""Exact big-integer engines for the weighted k-step Fibonacci family.

The sequence is F_n = q*F_{n-1} + F_{n-2} + ... + F_{n-k} with seeds
F_{2-k} = ... = F_0 = 0 and F_1 = 1.  Several independent strategies
compute the same terms; their agreement is what the test suite certifies.
All values are plain Python ints and every function is pure.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, RegimeError

__all__ = [
    "SequenceParams",
    "CompanionKind",
    "term_definition",
    "term_table",
    "term_shortcut",
    "term_fast",
    "term_fast_many",
    "companion_term",
    "companion_table",
    "theorem3_term",
    "series_coefficients",
]


@dataclass(frozen=True)
class SequenceParams:
    """The pair (q, k): weight q >= 1 on the first back-term, order k >= 2."""

    q: int
    k: int

    def __post_init__(self):
        if not isinstance(self.q, int) or self.q < 1:
            raise DomainError(f"q must be an integer >= 1, got {self.q!r}")
        if not isinstance(self.k, int) or self.k < 2:
            raise DomainError(f"k must be an integer >= 2, got {self.k!r}")

    @property
    def min_index(self) -> int:
        """Smallest admissible term index; the zero seeds occupy [2-k, 0]."""
        return 2 - self.k

    @property
    def bounds_certified(self) -> bool:
        """True when q >= 3, where the lemma and bound checks are certified."""
        return self.q >= 3


def _check_index(params: SequenceParams, n: int) -> None:
    if n < params.min_index:
        raise DomainError(
            f"index n={n} below domain: need n >= 2-k = {params.min_index} "
            f"for k={params.k}"
        )


def term_definition(params: SequenceParams, n: int) -> int:
    """F_n by the defining order-k recurrence with a sliding window."""
    _check_index(params, n)
    q, k = params.q, params.k
    if n <= 0:
        return 0
    # window holds F_{n-k+1}..F_n; total is its running sum
    window = deque([0] * (k - 1) + [1], maxlen=k)
    total = 1
    for _ in range(n - 1):
        nxt = total + (q - 1) * window[-1]
        total += nxt - window[0]
        window.append(nxt)
    return window[-1]


def term_table(params: SequenceParams, n_max: int) -> list[int]:
    """All terms F_n for n in [2-k, n_max]; entry i holds F_{2-k+i}."""
    _check_index(params, n_max)
    q, k = params.q, params.k
    vals = [0] * (k - 1) + [1]  # F_{2-k} .. F_1
    for _ in range(2, n_max + 1):
        window = vals[-k:]
        vals.append(q * window[-1] + sum(window[:-1]))
    return vals[: n_max - (2 - k) + 1]


def term_shortcut(params: SequenceParams, n: int) -> int:
    """F_n via the order-(k+1) identity
    F_n = (q+1)F_{n-1} - (q-1)F_{n-2} - F_{n-k-1}.

    The identity is stated for n >= 3 only; smaller indices come straight
    from the stored seeds and the single definitional step F_2 = q.
    """
    _check_index(params, n)
    q, k = params.q, params.k
    if n <= 0:
        return 0
    if n == 1:
        return 1
    if n == 2:
        return q
    # window holds the last k+1 terms F_{m-k-1}..F_{m-1} when computing F_m
    window = deque([0] * (k - 1) + [1, q], maxlen=k + 1)
    for _ in range(n - 2):
        nxt = (q + 1) * window[-1] - (q - 1) * window[-2] - window[0]
        window.append(nxt)
    return window[-1]


def _companion_matrix(params: SequenceParams) -> list[list[int]]:
    q, k = params.q, params.k
    mat = [[0] * k for _ in range(k)]
    mat[0][0] = q
    for j in range(1, k):
        mat[0][j] = 1
        mat[j][j - 1] = 1
    return mat


def _mat_mul(a, b, k):
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(k)]
        for i in range(k)
    ]


def term_fast(params: SequenceParams, n: int) -> int:
    """F_n by square-and-multiply powering of the k x k companion matrix.

    Applied to the seed vector (F_1, F_0, ..., F_{2-k}) = e_0, so F_n is
    the top-left entry of the (n-1)-th matrix power.  Cost is
    O(k^3 log n) big-integer multiplications.
    """
    if n < 1:
        raise DomainError(
            f"term_fast requires n >= 1, got n={n}; indices <= 0 are served "
            "by term_definition"
        )
    k = params.k
    base = _companion_matrix(params)
    result = [[int(i == j) for j in range(k)] for i in range(k)]
    e = n - 1
    while e:
        if e & 1:
            result = _mat_mul(result, base, k)
        e >>= 1
        if e:
            base = _mat_mul(base, base, k)
    return result[0][0]


def term_fast_many(params: SequenceParams, indices) -> list[int]:
    """term_fast for many indices, sharing one binary power ladder.

    Each lookup multiplies the unit row vector through the cached matrix
    powers (O(k^2) per set bit) instead of redoing full matrix powers.
    """
    indices = list(indices)
    if any(n < 1 for n in indices):
        raise DomainError("term_fast_many requires all indices >= 1")
    k = params.k
    if not indices:
        return []
    ladder = [_companion_matrix(params)]
    max_e = max(indices) - 1
    while (1 << len(ladder)) <= max_e:
        ladder.append(_mat_mul(ladder[-1], ladder[-1], k))
    out = []
    for n in indices:
        vec = [1] + [0] * (k - 1)
        e, j = n - 1, 0
        while e:
            if e & 1:
                mat = ladder[j]
                vec = [sum(vec[t] * mat[t][c] for t in range(k)) for c in range(k)]
            e >>= 1
            j += 1
        out.append(vec[0])
    return out


class CompanionKind(Enum):
    """The two order-2 companion sequences sharing
    X_n = (q+1)X_{n-1} - (q-1)X_{n-2}: U seeded (1, q), V seeded (1, q+1).
    """

    U = "U"
    V = "V"

    def seeds(self, q: int) -> tuple[int, int]:
        return (1, q) if self is CompanionKind.U else (1, q + 1)


def companion_table(q: int, kind: CompanionKind, n_max: int) -> list[int]:
    """X_1..X_{n_max} of the chosen companion sequence."""
    if q < 3:
        raise RegimeError(f"companion sequences are defined for q >= 3, got q={q}")
    if n_max < 1:
        raise DomainError(f"companion index must be >= 1, got {n_max}")
    x1, x2 = kind.seeds(q)
    vals = [x1, x2]
    for _ in range(3, n_max + 1):
        vals.append((q + 1) * vals[-1] - (q - 1) * vals[-2])
    return vals[:n_max]


def companion_term(q: int, kind: CompanionKind, n: int) -> int:
    """U_n or V_n by the two-term recurrence."""
    return companion_table(q, kind, n)[-1]


def theorem3_term(params: SequenceParams, n: int) -> int:
    """F_n from the companion pair: U_n for n <= k+1, and
    U_n - sum_{j=1}^{n-k-1} V_j * F_{n-k-j} beyond.
    """
    if params.q < 3:
        raise RegimeError(
            f"theorem3_term is defined for q >= 3, got q={params.q}"
        )
    if n < 1:
        raise DomainError(f"theorem3_term requires n >= 1, got n={n}")
    q, k = params.q, params.k
    u = companion_table(q, CompanionKind.U, n)
    if n <= k + 1:
        return u[n - 1]
    m = n - k - 1
    v = companion_table(q, CompanionKind.V, m)
    return _theorem3_sum(u, v, term_table(params, m), k, n)


def _theorem3_sum(u, v, table, k: int, n: int) -> int:
    """U_n - sum_{j=1}^{n-k-1} V_j * F_{n-k-j}, from U_1.., V_1.. and a
    term table F_{2-k}.. reaching F_{n-k-1}; F_j sits at j + k - 2."""
    return u[n - 1] - sum(v[j - 1] * table[n - j - 2] for j in range(1, n - k))


def series_coefficients(params: SequenceParams, count: int) -> list[int]:
    """First `count` coefficients of x / (1 - q x - x^2 - ... - x^k).

    Exact power-series long division over the integers; c_0 = 0 and
    c_n = F_n thereafter, which the tests use as an independent oracle.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    q, k = params.q, params.k
    den = [1, -q] + [-1] * (k - 1)  # 1 - q x - x^2 - ... - x^k
    num = (0, 1)  # numerator x
    coeffs: list[int] = []
    for n in range(count):
        acc = num[n] if n < len(num) else 0
        for i in range(1, min(n, k) + 1):
            acc -= den[i] * coeffs[n - i]
        coeffs.append(acc)  # leading denominator coefficient is 1
    return coeffs
