"""The benchmark's own computations, made apart from the kellipse package.

Nothing here imports kellipse. The checks compare the program's outputs with
these functions, so a fault shared by both would go unseen: keep them simple
and written from the definitions, not from the package's code.

A metric is a pair (kind, p) with kind in "l1", "l2", "linf", "lp".
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# float distances and sum-of-distances fields
# ---------------------------------------------------------------------------

def dist_rows(metric, a, b) -> np.ndarray:
    """Distances between rows of `a` and `b` (broadcast over leading axes).

    Coordinates are summed left to right, as a reader of the definition would,
    so L1 and L2 agree with a plain scalar loop to the last bit.
    """
    kind, p = metric
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    if kind == "linf":
        return d.max(axis=-1)
    if kind == "l1":
        out = d[..., 0]
        for i in range(1, d.shape[-1]):
            out = out + d[..., i]
        return out
    if kind == "l2":
        out = d[..., 0] * d[..., 0]
        for i in range(1, d.shape[-1]):
            out = out + d[..., i] * d[..., i]
        return np.sqrt(out)
    m = d.max(axis=-1)
    safe = np.where(m > 0, m, 1.0)
    s = (d[..., 0] / safe) ** p
    for i in range(1, d.shape[-1]):
        s = s + (d[..., i] / safe) ** p
    return np.where(m > 0, m * s ** (1.0 / p), 0.0)


def field_rows(metric, foci, pts) -> np.ndarray:
    """Sum of distances from every row of `pts` to the foci, focus by focus."""
    pts = np.asarray(pts, dtype=float)
    total = np.zeros(pts.shape[:-1])
    for f in foci:
        total = total + dist_rows(metric, pts, np.asarray(f, dtype=float))
    return total


def field_at(metric, foci, x) -> float:
    return float(field_rows(metric, foci, np.asarray([x], dtype=float))[0])


def norm_of(metric, v) -> np.ndarray:
    return dist_rows(metric, v, np.zeros(np.shape(v)[-1]))


# ---------------------------------------------------------------------------
# level-set extent (input generation) and minimum radius
# ---------------------------------------------------------------------------

def level_bbox(metric, foci, r, centre, pad=0.04, directions=72):
    """Axis box around the level curve {f = r}, padded by `pad` of its extent.

    The sublevel set of a sum of norms is convex, and `centre` lies inside it,
    so every ray from `centre` meets the curve once; the box is taken over
    `directions` rays found by bisection.
    """
    foci = np.asarray(foci, dtype=float)
    k = len(foci)
    c = np.asarray(centre, dtype=float)
    ang = np.linspace(0.0, 2 * math.pi, directions, endpoint=False)
    u = np.column_stack([np.cos(ang), np.sin(ang)])
    fc = field_at(metric, foci, c)
    if not fc < r:
        raise ValueError("centre is not inside the level curve")
    # f(c + t u) >= k t |u| - f(c), so the curve is crossed before t_hi
    t_hi = 1.01 * (r + fc) / (k * norm_of(metric, u))
    t_lo = np.zeros(directions)
    for _ in range(60):
        mid = 0.5 * (t_lo + t_hi)
        inside = field_rows(metric, foci, c + mid[:, None] * u) < r
        t_lo = np.where(inside, mid, t_lo)
        t_hi = np.where(inside, t_hi, mid)
    pts = c + t_hi[:, None] * u
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = hi - lo
    return tuple((float(a - pad * s), float(b + pad * s)) for a, b, s in zip(lo, hi, span))


def median_closed_form(metric, foci):
    """(minimum, argmin) where a closed form exists: L1, and Linf in 2D."""
    foci = np.asarray(foci, dtype=float)
    kind, _ = metric
    if kind == "l1":
        m = np.sort(foci, axis=0)[(len(foci) - 1) // 2]
        return field_at(metric, foci, m), m
    if kind == "linf" and foci.shape[1] == 2:
        # max(|u|, |v|) = (|u + v| + |u - v|) / 2: L1 in coordinates rotated by 45 degrees
        s = np.sort(foci[:, 0] + foci[:, 1])[(len(foci) - 1) // 2]
        d = np.sort(foci[:, 0] - foci[:, 1])[(len(foci) - 1) // 2]
        m = np.array([(s + d) / 2, (s - d) / 2])
        return field_at(metric, foci, m), m
    return None


def no_descent(metric, foci, x, value, rel_tol=1e-9, directions=16):
    """Whether no compass step of several lengths lowers the field below `value`.

    The field is convex, so a point with no descent at any tried step in any
    of many directions is at (or within the steps' reach of) the minimum.
    """
    foci = np.asarray(foci, dtype=float)
    x = np.asarray(x, dtype=float)
    dim = foci.shape[1]
    scale = max(1.0, float(np.ptp(foci, axis=0).max()))
    rng = np.random.default_rng(12345)
    u = rng.normal(size=(directions, dim))
    u = np.vstack([u / np.linalg.norm(u, axis=1)[:, None], np.eye(dim), -np.eye(dim)])
    floor = value - rel_tol * max(1.0, abs(value))
    for h in (1e-1, 1e-3, 1e-5, 1e-7):
        if (field_rows(metric, foci, x + h * scale * u) < floor).any():
            return False
    return True


# ---------------------------------------------------------------------------
# traced points against the benchmark's own grid
# ---------------------------------------------------------------------------

def grid_axes(bbox, resolution):
    return [np.linspace(float(lo), float(hi), resolution + 1) for lo, hi in bbox]


def edge_keys(points, axes):
    """Grid edge holding each point, as (axis, i0, i1[, i2]) rows, or None.

    A point lies on the edge along `axis` when its other coordinates are
    exactly node coordinates. Returns None if some point is on no grid line,
    and the count of points sitting exactly on a node (their edge is not
    unique).
    """
    pts = np.asarray(points, dtype=float)
    dim = len(axes)
    on_line = np.stack([np.isin(pts[:, a], axes[a]) for a in range(dim)], axis=1)
    count = on_line.sum(axis=1)
    if (count < dim - 1).any():
        return None, 0
    at_node = int((count == dim).sum())
    along = np.argmin(on_line, axis=1)          # the one free axis (0 at nodes)
    idx = np.empty((len(pts), dim), dtype=np.int64)
    for a in range(dim):
        # node index for fixed coordinates; cell index for the free one
        pos = np.searchsorted(axes[a], pts[:, a], side="right") - 1
        idx[:, a] = np.clip(pos, 0, len(axes[a]) - 1)
    keys = np.column_stack([along, idx])
    for a in range(dim):
        free = along == a
        if (idx[free, a] >= len(axes[a]) - 1).any():
            return None, 0
    return keys, at_node


def sign_edges_2d(metric, foci, r, axes, amb_tol):
    """Sign-changing grid edges of f - r, and the count of near-zero nodes."""
    xs, ys = axes
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    g = field_rows(metric, foci, np.stack([gx, gy], axis=-1)) - r
    neg = g < 0
    ex = neg[1:, :] != neg[:-1, :]
    ey = neg[:, 1:] != neg[:, :-1]
    return (ex, ey), int((np.abs(g) <= amb_tol).sum())


def sign_edges_3d(metric, foci, r, axes, amb_tol, block=8):
    """Sign-changing edges of f - r on a 3D grid, with Lipschitz pruning.

    The field is k-Lipschitz in its metric, and every metric here is bounded
    by L1, so a block of block^3 cells whose centre c has
    |f(c) - r| > k * (L1 half-diagonal) holds nodes of one sign only. Only the
    nodes of the other blocks are evaluated. Blocks share their face nodes, so
    every grid edge lies in some block. Returns the three boolean edge masks
    (along x, y, z) and the count of evaluated nodes within amb_tol of r.
    """
    foci = np.asarray(foci, dtype=float)
    k = len(foci)
    n = [len(a) for a in axes]
    starts = [np.arange(0, m - 1, block) for m in n]
    ends = [np.minimum(st + block, m - 1) for st, m in zip(starts, n)]
    lo = [a[st] for a, st in zip(axes, starts)]
    hi = [a[en] for a, en in zip(axes, ends)]
    centre = np.stack(np.meshgrid(*[(a + b) / 2 for a, b in zip(lo, hi)], indexing="ij"), axis=-1)
    half = sum(np.meshgrid(*[(b - a) / 2 for a, b in zip(lo, hi)], indexing="ij"))
    gc = field_rows(metric, foci, centre) - r
    keep = np.abs(gc) <= k * half + 1e-9 * (1 + abs(r))
    sign = np.empty(n, dtype=np.int8)
    need = np.zeros(n, dtype=bool)
    for bi, bj, bk in np.argwhere(~keep):
        sl = tuple(slice(st[b], en[b] + 1) for st, en, b in zip(starts, ends, (bi, bj, bk)))
        sign[sl] = -1 if gc[bi, bj, bk] < 0 else 1
    for bi, bj, bk in np.argwhere(keep):
        sl = tuple(slice(st[b], en[b] + 1) for st, en, b in zip(starts, ends, (bi, bj, bk)))
        need[sl] = True
    idx = np.nonzero(need)
    g = field_rows(metric, foci, np.column_stack([axes[a][idx[a]] for a in range(3)])) - r
    sign[idx] = np.where(g < 0, -1, 1)
    masks = (sign[1:, :, :] != sign[:-1, :, :], sign[:, 1:, :] != sign[:, :-1, :],
             sign[:, :, 1:] != sign[:, :, :-1])
    return masks, int((np.abs(g) <= amb_tol).sum())


# ---------------------------------------------------------------------------
# Halton off-set samples, as documented for float sample plans
# ---------------------------------------------------------------------------

def halton(index: int, base: int) -> float:
    out, f, i = 0.0, 1.0, index
    while i > 0:
        f /= base
        out += f * (i % base)
        i //= base
    return out


# ---------------------------------------------------------------------------
# exact 1D: piecewise-affine maps and level sets
# ---------------------------------------------------------------------------

class Piecewise:
    """A piecewise-affine map from its table: breakpoint j goes to the piece on
    its right unless owns_left[j]."""

    def __init__(self, breakpoints, pieces, owns_left):
        self.bps = [Fraction(b) for b in breakpoints]
        self.pieces = [(Fraction(a), Fraction(b)) for a, b in pieces]
        self.owns = list(owns_left)

    def piece_of(self, x) -> int:
        i = 0
        while i < len(self.bps) and (x > self.bps[i] or (x == self.bps[i] and not self.owns[i])):
            i += 1
        return i

    def __call__(self, x):
        a, b = self.pieces[self.piece_of(x)]
        return a * x + b

    def is_fixed(self, x) -> bool:
        return self(x) == x

    def segment_fixed(self, lo, hi) -> bool:
        """Whether every x in [lo, hi] is fixed: at every breakpoint inside, and
        at two points of each open stretch between them (an affine piece that
        fixes two points is the identity there)."""
        cuts = [lo] + [b for b in self.bps if lo < b < hi] + [hi]
        if not all(self.is_fixed(c) for c in cuts):
            return False
        for a, b in zip(cuts, cuts[1:]):
            if not (self.is_fixed(a + (b - a) / 3) and self.is_fixed(a + 2 * (b - a) / 3)):
                return False
        return True

    def interesting(self):
        """Breakpoints and the fixed point of every non-identity piece."""
        out = list(self.bps)
        for a, b in self.pieces:
            if a != 1:
                out.append(b / (1 - a))
        return sorted(set(out))


def xi(foci, x):
    return sum(abs(x - f) for f in foci)


def min_radius_1d(foci):
    fs = sorted(Fraction(f) for f in foci)
    k = len(fs)
    return xi(fs, fs[(k - 1) // 2]), fs[(k - 1) // 2], fs[k // 2]


class Line:
    """Exact level sets {x : sum |x - f_i| = r} for one set of foci.

    Each branch is found by walking out from the median, focus by focus, to
    the stretch where the field passes r, and interpolating linearly there
    (slope k beyond the outermost focus).
    """

    def __init__(self, foci):
        self.fs = sorted(Fraction(f) for f in foci)
        self.r_star, self.m_lo, self.m_hi = min_radius_1d(self.fs)
        self.left = [(f, xi(self.fs, f)) for f in reversed(self.fs) if f <= self.m_lo]
        self.right = [(f, xi(self.fs, f)) for f in self.fs if f >= self.m_hi]

    def _walk(self, knots, r, sign):
        prev_x, prev_v = knots[0]
        for x, v in knots[1:]:
            if v >= r:
                return prev_x + (x - prev_x) * (r - prev_v) / (v - prev_v)
            prev_x, prev_v = x, v
        return prev_x + sign * (r - prev_v) / len(self.fs)

    def level_set(self, r):
        """("empty" | "points" | "interval", values), exact."""
        r = Fraction(r)
        if r < self.r_star:
            return "empty", ()
        if r == self.r_star:
            return ("points", (self.m_lo,)) if self.m_lo == self.m_hi else ("interval", (self.m_lo, self.m_hi))
        return "points", (self._walk(self.left, r, -1), self._walk(self.right, r, +1))


def kellipse_fixed(f: Piecewise, level) -> bool:
    """Whether the map fixes every point of a level set from Line.level_set."""
    kind, vals = level
    if kind == "empty":
        return False
    if kind == "points":
        return all(f.is_fixed(x) for x in vals)
    return f.segment_fixed(*vals)


def union_contains(parts, x) -> bool:
    """Membership in a union of (lo, hi, lo_open, hi_open) intervals."""
    for lo, hi, lo_open, hi_open in parts:
        above = x > lo or (x == lo and not lo_open)
        below = x < hi or (x == hi and not hi_open)
        if above and below:
            return True
    return False


def probe_points(values):
    """Points that decide equality of two interval unions whose endpoints are
    among `values`: the values, midpoints between them, and one beyond each end."""
    vs = sorted(set(values))
    out = list(vs)
    out += [(a + b) / 2 for a, b in zip(vs, vs[1:])]
    if vs:
        out += [vs[0] - 1, vs[-1] + 1]
    else:
        out.append(Fraction(0))
    return out


# ---------------------------------------------------------------------------
# fixed-figure conditions, recomputed from their definitions
# ---------------------------------------------------------------------------

PASS, FAIL, VACUOUS = "Pass", "Fail", "Vacuous"
PAIR_THRESHOLD = {"Ek3": Fraction(1, 2), "E'k3": Fraction(1, 2), "E'''k4": 1, "Bk3": 1}
FAMILIES = {
    "t1": (("Ek1", "Ek2"), ("Ek3",)),
    "t2": (("E'k1", "E'k2"), ("E'k3",)),
    "t3": (("Ek1", "E''k2"), ("Ek3",)),
    "t4": (("E'''k1", "E'''k2", "E'''k3"), ("E'''k4",)),
    "t5": (("Ik",), ()),
}
TAU_FLOAT = 1e-9      # documented slack on floating-point plans (0 on exact ones)


def conditions_float(metric, foci, r, on, off, tx_on, tx_off, ids):
    """Recompute float-plan conditions with numpy.

    Returns {id: (verdict, fitted, margin, extreme)} where `extreme` is a
    function from a witness tuple of plan indices to the value the condition
    takes there, so a reported witness can be checked without relying on the
    order in which ties are broken.
    """
    tau = strict = TAU_FLOAT
    on, off = np.asarray(on, float).reshape(-1, len(foci[0])), np.asarray(off, float).reshape(-1, len(foci[0]))
    tx_on, tx_off = np.asarray(tx_on, float).reshape(on.shape), np.asarray(tx_off, float).reshape(off.shape)
    k = len(foci)
    F = lambda p: field_rows(metric, foci, p)          # noqa: E731
    D = lambda a, b: dist_rows(metric, a, b)           # noqa: E731
    out = {}
    for cid in ids:
        if cid == "Ik":
            allp = np.vstack([on, off])
            allt = np.vstack([tx_on, tx_off])
            marg = (F(allp) - F(allt)) / (k + 1) - D(allp, allt)
            out[cid] = _pointwise(marg, tau)
            continue
        if len(on) == 0:
            out[cid] = (VACUOUS, None, 0, None)
            continue
        if cid in ("Ek1", "Ek2", "E'k1", "E'k2", "E'''k1"):
            fx, ftx, dxt = F(on), F(tx_on), D(on, tx_on)
            marg = {"Ek1": (fx - ftx) - dxt, "Ek2": ftx - r, "E'k1": (fx + ftx - 2 * r) - dxt,
                    "E'k2": r - ftx, "E'''k1": -np.abs(ftx - r)}[cid]
            out[cid] = _pointwise(marg, tau)
        elif cid in PAIR_THRESHOLD:
            X, TX = on[:, None, :], tx_on[:, None, :]
            Y, TY = off[None, :, :], tx_off[None, :, :]
            num = D(TX, TY)
            den = {"Ek3": lambda: D(TX, X) + D(TY, Y),
                   "E'k3": lambda: D(TX, Y) + D(TY, X),
                   "E'''k4": lambda: np.maximum(np.maximum(np.maximum(D(X, TX), D(Y, TY)),
                                                           np.maximum(D(X, TY), D(Y, TX))), D(X, Y)),
                   "Bk3": lambda: D(X, Y)}[cid]()
            num, den = np.broadcast_arrays(num, den)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(den <= tau, np.where(num <= tau, np.nan, np.inf), num / den)
            if np.isnan(ratio).all():
                out[cid] = (VACUOUS, None, 0, None)
                continue
            fitted = float(np.nanmax(ratio))
            thr = float(PAIR_THRESHOLD[cid])
            margin = thr - fitted if math.isfinite(fitted) else -math.inf
            verdict = PASS if math.isfinite(fitted) and fitted < thr - strict else FAIL
            out[cid] = (verdict, fitted, margin, lambda w, R=ratio: float(R[w[0], w[1]]))
        elif cid == "E''k2":
            deficit = r - F(tx_on)
            step = D(on, tx_on)
            with np.errstate(divide="ignore", invalid="ignore"):
                need = np.where(deficit <= 0, 0.0, np.where(step <= tau, np.inf, deficit / step))
            fitted = float(need.max())
            margin = 1 - fitted if math.isfinite(fitted) else -math.inf
            verdict = PASS if math.isfinite(fitted) and fitted < 1 - strict else FAIL
            out[cid] = (verdict, fitted, margin, lambda w, N=need: float(N[w[0]]))
        elif cid == "E'''k2":
            i, j = np.triu_indices(len(on), 1)
            keep = (on[i] != on[j]).any(axis=1)
            i, j = i[keep], j[keep]
            if len(i) == 0:
                out[cid] = (VACUOUS, None, 0, None)
                continue
            marg = D(tx_on[i], tx_on[j]) - r
            worst = float(marg.min())
            M = np.full((len(on), len(on)), np.nan)
            M[i, j] = marg
            out[cid] = (PASS if worst > -TAU_FLOAT else FAIL, None, worst,
                        lambda w, M=M: float(M[w[0], w[1]]))
        elif cid == "E'''k3":
            dxt = D(on, tx_on)
            gap = np.where(dxt > 0, dxt - r, 0.0)
            M = (D(on[:, None, :], on[None, :, :]) - gap[:, None]) - D(tx_on[:, None, :], tx_on[None, :, :])
            worst = float(M.min())
            out[cid] = (PASS if worst >= -tau else FAIL, None, worst,
                        lambda w, M=M: float(M[w[0], w[1]]))
        else:
            raise ValueError(f"unknown condition {cid}")
    return out


def _pointwise(marg, tau):
    worst = float(marg.min())
    return (PASS if worst >= -tau else FAIL, None, worst, lambda w, m=marg: float(m[w[0]]))


def conditions_exact(on, off, T, foci, r, ids):
    """Recompute exact-plan conditions (1D, rational arithmetic, zero slack).

    Same return shape as conditions_float; `on`/`off` are lists of rationals.
    """
    k = len(foci)
    memo = {}

    def F(x):
        if x not in memo:
            memo[x] = xi(foci, x)
        return memo[x]

    out = {}
    t_on = [T(x) for x in on]
    t_off = [T(y) for y in off]
    for cid in ids:
        if cid == "Ik":
            pts = list(on) + list(off)
            tp = t_on + t_off
            marg = [(F(x) - F(t)) / (k + 1) - abs(x - t) for x, t in zip(pts, tp)]
            out[cid] = _pointwise_exact(marg)
            continue
        if not on:
            out[cid] = (VACUOUS, None, 0, None)
            continue
        if cid in ("Ek1", "Ek2", "E'k1", "E'k2", "E'''k1"):
            fn = {"Ek1": lambda x, t: (F(x) - F(t)) - abs(x - t),
                  "Ek2": lambda x, t: F(t) - r,
                  "E'k1": lambda x, t: (F(x) + F(t) - 2 * r) - abs(x - t),
                  "E'k2": lambda x, t: r - F(t),
                  "E'''k1": lambda x, t: -abs(F(t) - r)}[cid]
            out[cid] = _pointwise_exact([fn(x, t) for x, t in zip(on, t_on)])
        elif cid in PAIR_THRESHOLD:
            R = {}
            for i, (x, tx) in enumerate(zip(on, t_on)):
                for j, (y, ty) in enumerate(zip(off, t_off)):
                    num = abs(tx - ty)
                    den = {"Ek3": lambda: abs(tx - x) + abs(ty - y),
                           "E'k3": lambda: abs(tx - y) + abs(ty - x),
                           "E'''k4": lambda: max(abs(x - tx), abs(y - ty), abs(x - ty), abs(y - tx), abs(x - y)),
                           "Bk3": lambda: abs(x - y)}[cid]()
                    if den <= 0:
                        if num > 0:
                            R[i, j] = math.inf
                    else:
                        R[i, j] = Fraction(num) / Fraction(den)
            if not R:
                out[cid] = (VACUOUS, None, 0, None)
                continue
            fitted = max(R.values())
            thr = PAIR_THRESHOLD[cid]
            margin = thr - fitted if fitted != math.inf else -math.inf
            verdict = PASS if fitted != math.inf and fitted < thr else FAIL
            out[cid] = (verdict, fitted, margin, lambda w, R=R: R.get(tuple(w)))
        elif cid == "E''k2":
            need = []
            for x, t in zip(on, t_on):
                deficit = r - F(t)
                step = abs(x - t)
                need.append(0 if deficit <= 0 else (math.inf if step <= 0 else Fraction(deficit) / step))
            fitted = max(need)
            margin = 1 - fitted if fitted != math.inf else -math.inf
            out[cid] = (PASS if fitted != math.inf and fitted < 1 else FAIL, fitted, margin,
                        lambda w, n=need: n[w[0]])
        elif cid == "E'''k2":
            M = {(i, j): abs(t_on[i] - t_on[j]) - r
                 for i in range(len(on)) for j in range(i + 1, len(on)) if on[i] != on[j]}
            if not M:
                out[cid] = (VACUOUS, None, 0, None)
                continue
            worst = min(M.values())
            out[cid] = (PASS if worst > 0 else FAIL, None, worst, lambda w, M=M: M.get(tuple(w)))
        elif cid == "E'''k3":
            M = {}
            for i, (x, tx) in enumerate(zip(on, t_on)):
                s = abs(x - tx)
                gap = s - r if s > 0 else 0
                for j, (y, ty) in enumerate(zip(on, t_on)):
                    M[i, j] = (abs(x - y) - gap) - abs(tx - ty)
            worst = min(M.values())
            out[cid] = (PASS if worst >= 0 else FAIL, None, worst, lambda w, M=M: M[tuple(w)])
        else:
            raise ValueError(f"unknown condition {cid}")
    return out


def _pointwise_exact(marg):
    worst = min(marg)
    return (PASS if worst >= 0 else FAIL, None, worst, lambda w, m=marg: m[w[0]])
