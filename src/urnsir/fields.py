"""Scalar fields on [0, 1] and rate kernels on [0, 1]^2.

Everything the model is parameterized by (recovery rate, initial profile,
infection kernel, test functions) is one of three closed-form shapes so that
model files stay serializable and sup-norms stay computable:

* ``constant``  -- a single value c,
* ``affine``    -- a + b*u,
* ``table``     -- node values with linear (1-D) or bilinear (2-D)
  interpolation.

One-dimensional tables live on the right-endpoint grid m/M, m = 1..M, the
same convention as the urn sites i/N; evaluation left of the first node
clamps to the first value.  Two-dimensional kernel tables live on the
corner-inclusive grid k/(M-1), k = 0..M-1, so bilinear interpolation covers
the whole square without extrapolation.

Every kernel is exactly finite rank, lambda(u, v) = sum_a left_a(u) right_a(v),
and is evaluated only through these factors: a constant is (lam0, 1) and a
separable kernel (h1(u), h2(v)), both of rank 1; an M x M table G is
(hat(u) @ G, hat(v)) over the M hat functions of its grid, of rank M.  The
site matrix, the node sums, the event engine's pressure and the clock
tables' pair-clock rates all use them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["ScalarField", "TestFunction", "Kernel", "sites"]

_FIELD_FORMS = ("constant", "affine", "table")
_KERNEL_FORMS = ("constant", "separable", "table")
_SUM_ROWS = 64  # rows of values per block of the node-sum products


def sites(n: int) -> np.ndarray:
    """Urn sites i/N for i = 1..N."""
    return np.arange(1, n + 1, dtype=float) / n


def _check_unit_interval(u: np.ndarray, name: str) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.size and (np.min(u) < 0.0 or np.max(u) > 1.0):
        raise ValueError(f"{name} outside [0, 1]")
    return u


@dataclass(frozen=True)
class ScalarField:
    """A function [0, 1] -> R in one of the three serializable forms.

    ``values`` holds (c,) for constants, (a, b) for affine a + b*u, and the
    node values at m/M for tables.  Sign constraints are not imposed here;
    they belong to the model that uses the field (rates nonnegative, initial
    profiles in [0, 1], test functions unconstrained).
    """

    form: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.form not in _FIELD_FORMS:
            raise ValueError(f"unknown field form {self.form!r}")
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        expected = {"constant": 1, "affine": 2}.get(self.form)
        if expected is not None and len(vals) != expected:
            raise ValueError(f"{self.form} field takes {expected} value(s)")
        if self.form == "table" and len(vals) < 1:
            raise ValueError("table field needs at least one node value")

    @classmethod
    def constant(cls, c: float) -> "ScalarField":
        return cls("constant", (c,))

    @classmethod
    def affine(cls, a: float, b: float) -> "ScalarField":
        return cls("affine", (a, b))

    @classmethod
    def table(cls, values) -> "ScalarField":
        return cls("table", tuple(values))

    def __call__(self, u):
        scalar = np.isscalar(u)
        arr = _check_unit_interval(u, "u")
        if self.form == "constant":
            out = np.full_like(arr, self.values[0], dtype=float)
        elif self.form == "affine":
            a, b = self.values
            out = a + b * arr
        else:
            m = len(self.values)
            nodes = np.arange(1, m + 1, dtype=float) / m
            out = np.interp(arr, nodes, self.values)
        return float(out) if scalar else out

    def at_sites(self, n: int) -> np.ndarray:
        """Values at the urn sites i/N, i = 1..N."""
        return self(sites(n))

    # Piecewise-linear shapes attain their extremes at nodes/endpoints, and
    # the left clamp never extends the range, so these are exact.
    def min_value(self) -> float:
        if self.form == "constant":
            return self.values[0]
        if self.form == "affine":
            a, b = self.values
            return min(a, a + b)
        return min(self.values)

    def max_value(self) -> float:
        if self.form == "constant":
            return self.values[0]
        if self.form == "affine":
            a, b = self.values
            return max(a, a + b)
        return max(self.values)

    def sup_norm(self) -> float:
        return max(abs(self.min_value()), abs(self.max_value()))

    def constant_value(self) -> float | None:
        """The single value this field takes, or None if non-constant."""
        if self.form == "affine":
            constant = self.values[1] == 0.0
        else:
            constant = len(set(self.values)) == 1
        return self.values[0] if constant else None


#: Test functions share the scalar-field representation; negative node
#: values are allowed because no model-side range check applies to them.
TestFunction = ScalarField


@dataclass(frozen=True)
class Kernel:
    """An infection-rate kernel lambda(u, v) on [0, 1]^2.

    Forms: ``constant`` (lam0), ``separable`` (h1(u) * h2(v)) and ``table``
    (M x M node values, row index = u on the corner-inclusive grid, bilinear
    interpolation in between).
    """

    form: str
    lam0: float | None = None
    h1: ScalarField | None = None
    h2: ScalarField | None = None
    values: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.form not in _KERNEL_FORMS:
            raise ValueError(f"unknown kernel form {self.form!r}")
        if self.form == "constant":
            if self.lam0 is None or not np.isfinite(self.lam0):
                raise ValueError("constant kernel needs a finite lam0")
            object.__setattr__(self, "lam0", float(self.lam0))
        elif self.form == "separable":
            if self.h1 is None or self.h2 is None:
                raise ValueError("separable kernel needs h1 and h2")
        else:
            if not self.values:
                raise ValueError("table kernel needs node values")
            rows = tuple(tuple(float(v) for v in row) for row in self.values)
            m = len(rows)
            if m < 2 or any(len(row) != m for row in rows):
                raise ValueError("table kernel needs a square table, M >= 2")
            if not all(np.isfinite(v) for row in rows for v in row):
                raise ValueError("kernel values must be finite")
            object.__setattr__(self, "values", rows)
        if self.min_value() < 0.0:
            raise ValueError("kernel rates must be nonnegative")

    @classmethod
    def constant(cls, lam0: float) -> "Kernel":
        return cls("constant", lam0=lam0)

    @classmethod
    def separable(cls, h1: ScalarField, h2: ScalarField) -> "Kernel":
        return cls("separable", h1=h1, h2=h2)

    @classmethod
    def table(cls, rows) -> "Kernel":
        return cls("table", values=tuple(tuple(r) for r in rows))

    def __call__(self, u, v):
        scalar = np.isscalar(u) and np.isscalar(v)
        uu = _check_unit_interval(u, "u")
        vv = _check_unit_interval(v, "v")
        left, right = self._factors(uu, vv)
        out = (left * right).sum(-1)
        return float(out) if scalar else out

    def _factors(self, u: np.ndarray, v: np.ndarray):
        """(left(u), right(v)), each (..., r); lambda is their row-wise dot."""
        if self.form == "constant":
            return np.full(u.shape + (1,), self.lam0), np.ones(v.shape + (1,))
        if self.form == "separable":
            return (np.asarray(self.h1(u))[..., None],
                    np.asarray(self.h2(v))[..., None])
        grid = np.asarray(self.values, dtype=float)
        return _hat(u, grid.shape[0]) @ grid, _hat(v, grid.shape[0])

    def factors(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (left, right) at the urn sites i/N, each (N, r).

        lambda(i/N, j/N) = left[i] @ right[j], so the pressure on every
        urn from the infected set is left @ (infected @ right) / N.
        """
        return _factors_cached(self, n)

    def site_matrix(self, n: int) -> np.ndarray:
        """Read-only lambda(i/N, j/N); row = target site, column = source."""
        return _site_matrix_cached(self, n)

    def node_average(self, values: np.ndarray) -> np.ndarray:
        """(1/M) sum_q lambda(u_m, q/M) values[q] on the grid of ``values``.

        This right-endpoint node sum is the package-wide quadrature; it
        mirrors the empirical sums (1/N) sum_j f(j/N) exactly.  A (rows, M)
        table of values forms its (rows, r, M) products _SUM_ROWS rows at a
        time, which bounds that temporary.
        """
        values = np.asarray(values, dtype=float)
        left, right = self.factors(values.shape[-1])
        # sum along the last axis, as values.mean(-1) does: constant and
        # separable kernels then give the closed-form sums bit for bit; each
        # row is summed on its own, so blocks of rows give the same sums
        if values.ndim != 2:
            sums = np.add.reduce(right.T * values[..., None, :], -1)
        else:
            sums = np.empty((len(values), right.shape[1]))
            for k in range(0, len(values), _SUM_ROWS):
                np.add.reduce(right.T * values[k:k + _SUM_ROWS, None, :], -1,
                              out=sums[k:k + _SUM_ROWS])
        return np.dot(sums / values.shape[-1], left.T)

    def min_value(self) -> float:
        if self.form == "constant":
            return self.lam0
        if self.form == "table":
            return min(min(row) for row in self.values)
        lo1, hi1 = self.h1.min_value(), self.h1.max_value()
        lo2, hi2 = self.h2.min_value(), self.h2.max_value()
        return min(a * b for a in (lo1, hi1) for b in (lo2, hi2))

    def sup_norm(self) -> float:
        if self.form == "constant":
            return abs(self.lam0)
        if self.form == "table":
            return max(abs(v) for row in self.values for v in row)
        return self.h1.sup_norm() * self.h2.sup_norm()

    def constant_value(self) -> float | None:
        if self.form == "constant":
            return self.lam0
        if self.form == "separable":
            c1, c2 = self.h1.constant_value(), self.h2.constant_value()
            if c1 is not None and c2 is not None:
                return c1 * c2
            return None
        flat = {v for row in self.values for v in row}
        return flat.pop() if len(flat) == 1 else None


def _hat(u: np.ndarray, m: int) -> np.ndarray:
    """Hat functions of the corner-inclusive grid k/(M-1) at u, (..., M)."""
    return np.maximum(0.0, 1.0 - np.abs(u[..., None] * (m - 1) - np.arange(m)))


@lru_cache(maxsize=32)
def _factors_cached(kernel: Kernel, n: int) -> tuple[np.ndarray, np.ndarray]:
    s = sites(n)
    # column-major, so that left.T and right.T are contiguous (r, N) rows
    left, right = map(np.asfortranarray, kernel._factors(s, s))
    left.setflags(write=False)
    right.setflags(write=False)
    return left, right


@lru_cache(maxsize=32)
def _site_matrix_cached(kernel: Kernel, n: int) -> np.ndarray:
    left, right = _factors_cached(kernel, n)
    mat = left @ right.T
    mat.setflags(write=False)
    return mat
