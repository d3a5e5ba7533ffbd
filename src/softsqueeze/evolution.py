"""Integration of the evolution-matrix ODE and zone classification.

The forward equation du/dtau = L(tau) u, u(tau0, tau0) = 1, with
L(tau) = [[0, 1], [-beta(tau), 0]], is solved by classical fixed-step RK4,
the package's only integrator, written as a step map: on a linear ODE one
RK4 step is the 2x2 polynomial S_k in h and the beta samples at the step's
node, midpoint and end.  Every integration here (integrate, integrate_path,
integrate_symmetric and the batched mathieu_batch) goes through one engine
that builds these maps vectorised and multiplies them in order.

The engine keeps each map in delta form, D_k = S_k - 1, and multiplies by
(1 + a)(1 + b) - 1 = a + b + ab, adding the identity once at the end.  The
entries of D_k are O(h), so no product rounds them against the identity;
multiplying the S_k themselves doubles the error against the 30-digit
references of the tests.  The columns of a run are g intervals, each on
its own linspace grid, times a batch of w.  The h-only factors of S_k are
computed once per run.  A block of m maps over c columns runs along its
longer axis, which is last and contiguous: if its 2m + 1 beta rows
outnumber its columns it is a (2, 2, c, m) array (entry, entry, column,
step), and a pair of neighbouring maps is a stride-2 slice of long rows;
else it is (2, 2, m, c), and the maps of a pair are alternate rows of all
c columns.  A merge is five numpy calls on whole arrays, two products and
three sums, each entry being (a_ij + b_ij) + (a_i0 b_0j + a_i1 b_1j); the
merges of the block stack write into the earlier product in place.

The product is the level-wise pairwise tree over all steps: each level
multiplies neighbours, later step on the left, and an odd last element is
carried up.  The engine walks it in aligned blocks of n = 2^k steps, n
taken from the run's width w and a fixed element budget B
(_BLOCK_ELEMENTS): the largest with (n + 3) w at most 4 B (_block_steps).
So a narrow run takes few long blocks, whose numpy calls are long enough
to outweigh their fixed cost (a one-column run of up to 2 B steps takes
one), and a run of B columns takes blocks of one step.  The budget, not
the block, bounds a generic profile's beta_array calls: _sampler asks for
at most B + 1 samples at a time.  A mathieu_batch run has at most B
columns, and mathieu_batch chunks and pairs its nodes so that no run is
narrower than B / 2 unless its batch is.  Every array of a block is a
view into one flat workspace, filled with out= arithmetic in the order of
the formulas: the beta rows, the maps, the tree's levels in two spaces
taken in turn, scratch and the block stack, 4 doubles per column for each
of at most bit_length(steps) levels.  A run is planned once (_rk4_plan),
and may then run any number of times.  A plan of w columns takes one
fresh workspace of at most (8 n + 4) w + 4 w bit_length(steps) doubles,
2 n + 1 more if each of its intervals has one column, and 7 more to start
it on a 64-byte boundary (_workspace); for w at most B that is under
40 B + 4 w bit_length(steps); a one-column run's is 1.3 MB at most at
B = 8192.  So memory is bounded for any step count, and no block
allocates anything.
A run has at most three block shapes, the first block, the full blocks
and a shorter last one, whose layouts may differ, and the plan takes the
views of each once (_block), into the workspace and a grid index of
n + 1 doubles; a run then does arithmetic into them, and slices only for
the stack's merges.  On 2-step blocks of a few columns, where the numpy
work is near zero, that cut a block's fixed cost from 36-39 us, carving
every view afresh, to 22-25 us (2-vCPU Xeon).  The tree's shape depends
only on the step count, never on the block size, the block's layout or
the batch width, so a node's result is bit-identical alone or inside any
batch, and run to run, however often its plan has run.
Determinant drift is checked after every run and never silently
corrected.  A run over a finite interval whose entries overflow a float
raises OverflowError without a numpy warning.

A run's step is h = (tau1 - tau0) / steps.  A run of integrate or of an
integrate_path segment over a CompositeBeta restarts at every join
strictly inside it (_split): a designed pulse's beta and beta' are
continuous at its joins but beta'' is not, and an RK4 step across such a
join loses order.  Each part takes ceil(steps * length / (tau1 - tau0))
steps, at least 1 (_step_counts), and samples its own piece's profile
directly, so a part that starts on a join takes its sample there from the
later piece, where CompositeBeta.beta_array gives a join to the earlier
piece; designed joins agree there to rounding.  Parts of one step count
run as one engine run.  The Mathieu drive is even
about every multiple of pi, so mathieu_batch, which every Mathieu
integration goes through, builds a one-period map from half a period at
that step (_MathieuRun).  The reflection D u^-1 D, D = diag(1, -1), is
taken in adjugate form (_reflect), never divided by det u, so the
determinant gate still sees the drift of every piece; integrate_symmetric
builds u(tau, -tau) with it too, from the half [0, tau] at that step.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .core import (
    BetaProfile, CanonicalState, CompositeBeta, ConstantBeta, MathieuBeta, SymplecticMatrix2,
    _det_gate,
)


class IntegrationError(RuntimeError):
    """Raised when an integration cannot meet its accuracy contract."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Numerical settings shared by all integrations.

    steps fixes the RK4 step h = (tau1 - tau0) / steps of any interval; a
    one-period Mathieu interval and integrate_symmetric run half of it at
    that h.  The rest are class constants, not settings: `method`, the one
    integrator, fixed-step RK4; `max_steps`, the most RK4 steps one call may
    take, more raising IntegrationError; `det_tol`, the allowed |det - 1|
    drift of a result.
    """

    method: ClassVar[str] = "rk4"
    max_steps: ClassVar[int] = 10_000_000
    det_tol: ClassVar[float] = 1e-9
    steps: int = 20000

    def __post_init__(self):
        if self.steps <= 0:
            raise ValueError("step counts must be positive")

    def check_steps(self, steps: int):
        """Raise IntegrationError if a run of `steps` RK4 steps exceeds max_steps."""
        if steps > self.max_steps:
            raise IntegrationError(
                f"{steps} RK4 steps exceed max_steps = {self.max_steps}"
            )


DEFAULT_CONFIG = IntegratorConfig()


# Zone names by code; code 0 marks a scan node that failed the determinant gate.
ZONES = ("failed", "I", "II", "III")
THRESHOLD_BAND = 1e-9  # zone_codes: most ||Gamma| - 2| of zone II
CLASSIFY_DET_TOL = 1e-6  # classify: allowed |det - 1| drift of its matrix
# classify: most |component| of the unit a+ read as rounding, not as its sign;
# a near-diagonal map, as of a designed chain's, gives one of about 1e-15
AXIS_SIGN_TOL = 1e-12
PROFILE_TOL = 1e-9  # check_symmetry, monodromy: most residual of an even or periodic beta


def zone_codes(gamma) -> np.ndarray:
    """Zone code of each trace Gamma: 2 (II) if ||Gamma| - 2| <= THRESHOLD_BAND,
    else 1 (I) if |Gamma| < 2, else 3 (III), NaN included."""
    g = np.abs(gamma)
    return np.where(np.abs(g - 2.0) <= THRESHOLD_BAND, 2, np.where(g < 2.0, 1, 3)).astype(np.int8)


@dataclass(frozen=True)
class ZoneReport:
    """Stability classification of an evolution matrix by its trace."""

    gamma: float
    zone: str  # "I" | "II" | "III"
    lam_plus: complex
    lam_minus: complex
    a_plus: Optional[tuple] = None  # left row eigenvectors, zone III only
    a_minus: Optional[tuple] = None


# ---------------------------------------------------------------------------
# RK4 step-map engine

# The engine's element budget B.  A block of n steps over w <= B columns
# holds at most 4 B - 3 w step maps (_block_steps), and _sampler hands a
# profile's beta_array at most B + 1 samples per call.  B also bounds
# a mathieu_batch run's columns, so a wide run's stack of block products,
# 4 doubles per column and level, spans at most B columns: a chunk has at
# most B nodes, or B / 2 when its two half-period pieces run together.
# Bounds the engine's working set; results do not depend on it (see the
# module docstring).
_BLOCK_ELEMENTS = 8192


def _block_steps(w: int, steps: int) -> int:
    """Steps per block of a run of w columns: the largest power of 2, n,
    with (n + 3) w <= 4 B, at least 1, or all the steps if fewer.  The 3 w
    keeps a run of B columns at one step per block, and so the widest runs'
    workspace within mathieu_batch's bound."""
    n = max(4 * _BLOCK_ELEMENTS // w - 3, 1)
    return min(1 << (n.bit_length() - 1), steps)


def _workspace(size: int) -> np.ndarray:
    """The flat buffer of size doubles that one run of _rk4 carves its
    arrays from, starting on a 64-byte boundary.  malloc aligns it to 16
    bytes only, and with 64-byte vector loads an 80x80 scan ran 1.2 s with
    the buffer 16 bytes past a boundary against 0.8 s on one."""
    raw = np.empty(size + 7)
    start = -raw.ctypes.data % 64 // 8
    return raw[start:start + size]


def _step_deltas(k, b1, b2, b3, d11, d12, d21, d22):
    """S - 1 for the RK4 step maps of a block of m steps, written into the
    (m, w) views d11, d12, d21 and d22.  b1, b2 and b3 hold beta at each
    step's node, midpoint and end, (m, w) views of the block's beta rows; k
    holds the step's h-only factors (h, h^4/24, h^2/6, h^2/3, h^3/6,
    h^3/12, h/6, 2h/3), computed once per run:

      d11 = b1 b2 h^4/24 - h^2 (b1/6 + b2/3)
      d12 = h - b2 h^3/6
      d21 = h ((b1 + b3) b2 h^2/12 - (b1 + 4 b2 + b3)/6)
      d22 = b2 b3 h^4/24 - h^2 (b2/3 + b3/6)

    evaluated as d11 = b1 r - q and d22 = b3 r - q with
    r = b2 h^4/24 - h^2/6 and q = b2 h^2/3, which first take the places of
    d12 and d21, and d21 = (b1 + b3)(b2 h^3/12 - h/6) - b2 2h/3.
    """
    h, h4_24, h2_6, h2_3, h3_6, h3_12, h_6, h_23 = k
    r, q = d12, d21
    np.multiply(b2, h4_24, out=r)
    r -= h2_6
    np.multiply(b2, h2_3, out=q)
    np.multiply(b1, r, out=d11)
    d11 -= q
    np.multiply(b3, r, out=d22)
    d22 -= q
    np.multiply(b2, h3_12, out=d12)
    d12 -= h_6
    np.add(b1, b3, out=d21)
    d21 *= d12
    np.multiply(b2, h_23, out=d12)
    d21 -= d12
    np.multiply(b2, h3_6, out=d12)
    np.subtract(h, d12, out=d12)


def _mul(a, b, out=None, t=None):
    """Matrix product ab of (2, 2, ...) arrays, each entry a_i0 b_0j + a_i1 b_1j.
    out and t are optional scratch arrays of the product's shape."""
    out = np.multiply(a[:, :1], b[:1], out=out)
    out += np.multiply(a[:, 1:], b[1:], out=t)
    return out


def _merge_views(a, b, out, p, t):
    """The operands of _merge for the delta form of (1 + a)(1 + b) into out,
    a the later map: a's columns and b's rows as slices, then a, b, out and
    the scratch arrays p and t of b's shape.  out may be b, or t when out is
    neither a nor b."""
    return a[:, :1], b[:1], a[:, 1:], b[1:], a, b, out, p, t


def _merge(a0, b0, a1, b1, a, b, out, p, t):
    """a + b + ab into out, each entry (a_ij + b_ij) + (a_i0 b_0j + a_i1 b_1j),
    from the operands of _merge_views."""
    np.multiply(a0, b0, out=p)
    p += np.multiply(a1, b1, out=t)
    np.add(a, b, out=out)
    out += p


def _carve(buf, shape, steps_last=False):
    """The first elements of the flat buffer buf as an array of shape,
    C-ordered, or if steps_last a view of one with its last two axes
    swapped, so that the steps, axis -2, are contiguous."""
    if steps_last:
        return _carve(buf, shape[:-2] + shape[:-3:-1]).swapaxes(-1, -2)
    return buf[:math.prod(shape)].reshape(shape)


def _tree(d, axis, levels, p):
    """The level-wise pairwise product of the maps along axis 2 or 3 of d:
    the _merge_views of each level with the copy, as (to, from), of its odd
    last map, or None; the view that ends up holding the product; and the
    one of the two flat buffers of levels that does not hold it.  The
    levels are written into those buffers in turn, d's own buffer being
    the second, with scratch from the flat buffer p."""
    at = (slice(None),) * axis
    merges = []
    while d.shape[axis] > 1:
        m = d.shape[axis]
        half = m // 2
        shape = list(d.shape)
        shape[axis] = m - half
        out = _carve(levels[0], tuple(shape))
        levels = levels[::-1]
        top = out[at + (slice(0, half),)]
        merges.append((
            _merge_views(d[at + (slice(1, 2 * half, 2),)], d[at + (slice(0, 2 * half, 2),)],
                         top, _carve(p, top.shape), top),
            (out[at + (-1,)], d[at + (-1,)]) if m % 2 else None))
        d = out
    return merges, d[at + (0,)], levels[0]


def _block(spaces, index, m: int, first: int, g: int, width: int):
    """The views of a block of m steps of _rk4 into its workspace spaces
    (beta rows, maps, scratch), laid out along the block's longer axis;
    first is 1 if the block takes its first node from the previous block.
    In order: the doubled grid indices of its nodes at s0 = 0, and of its
    midpoints less 1, as views of index = 0, 2, ..., 2 n; the scratch that
    takes them at s0, and a column view of all of it; the (rows, g) taus
    and the row of the last node; the (rows, g, width) beta rows it
    samples; beta at its first and last node; the operands of
    _step_deltas; the merges and product of _tree; and the stack merges'
    scratch map p."""
    beta_space, map_space, scratch = spaces
    w = g * width
    steps_last = 2 * m + 1 > w
    b = _carve(beta_space, (2 * m + 1, w), steps_last)
    e = _carve(map_space, (2, 2, m, w), steps_last)
    # grid rows 2 (s0 + j): the nodes, then 2 (s0 + j) + 1: the midpoints
    nodes, rows = m + 1 - first, 2 * m + 1 - first
    j = scratch[:rows]
    taus = _carve(scratch[rows:], (rows, g), steps_last)
    (d11, d12), (d21, d22) = e
    merges, d, free = _tree(e.swapaxes(2, 3) if steps_last else e, 2 + steps_last,
                            (beta_space, map_space), scratch)
    return ((index[first:m + 1], index[:m]), (j[:nodes], j[nodes:]), j[:, None],
            taus, taus[nodes - 1], b[first:].reshape(rows, g, width), b[0], b[m],
            (b[:m], b[m + 1:], b[1:m + 1], d11, d12, d21, d22), merges, d,
            _carve(free, (2, 2, w)))


def _rk4_plan(t0, t1, steps: int, width: int):
    """The RK4 run over g intervals [t0, t1] (scalars, g = 1, or arrays)
    for a batch of width columns each, planned: the workspace (_workspace), the
    views of each block shape with its tree's merge operands (_block), the
    grid index and the h-only factors are built once.  Returns
    run(beta_at), which only does arithmetic into them and returns a fresh
    (2, 2, g * width) array, the columns of each interval together, as
    often as it is called.

    beta_at(taus, out) writes beta at the (rows, g) taus into the
    (rows, g, width) view out, and may overwrite taus.  The steps run in
    blocks of _block_steps(g * width, steps): each samples beta at its
    nodes, then its midpoints (a later block takes its first node from the
    previous block's last), into rows laid out along the block's longer
    axis, builds the maps and multiplies them in a tree.  Full blocks are
    pushed on a stack whose equal-sized neighbours merge at once, and what
    is left is merged from right to left: together this is the level-wise
    tree over all steps, whatever the block size.  The workspace's four
    spaces are the beta rows, whose space the odd tree levels reuse, the
    maps, whose space the even levels reuse, a scratch space for the grid
    and the merge products, and the stack.  The stack's merges take their
    two scratch maps from the scratch space and from the level space that
    does not hold the block's product, and are all that slices in a run.
    h stays a scalar when the g intervals share it.
    """
    g = np.size(t0)
    w = g * width
    h = (t1 - t0) / steps
    dt = (t1 - t0) / (2 * steps)  # the grid step of np.linspace(t0, t1, 2 * steps + 1)
    if np.ndim(h):
        h = h[0] if (h == h[0]).all() else np.repeat(h, width)
    h2 = h * h
    k = (h, h2 * h2 / 24.0, h2 / 6.0, h2 / 3.0, h2 * h / 6.0, h2 * h / 12.0, h / 6.0, 2.0 * h / 3.0)
    n = _block_steps(w, steps)
    rows = 2 * n + 1
    depth = (steps // n).bit_length() + (steps % n > 0)  # most stack entries at once
    ends = list(itertools.accumulate(
        ((rows + 1) * w, 4 * n * w, max(2 * n * w, 4 * w, rows * (g + 1)), depth * 4 * w)))
    ws = _workspace(ends[-1])
    spaces = [ws[a:b] for a, b in zip([0] + ends, ends[:-1])]
    stack = _carve(ws[ends[2]:], (depth, 2, 2, w))
    t = _carve(spaces[2], (2, 2, w))  # scratch of the stack's merges, with p
    index = np.arange(0.0, rows, 2.0)  # the doubled nodes 0, 2, ..., 2 n
    last = np.empty(w)  # beta at the previous block's last node
    blocks = {}  # the views of each block shape, by (m, first)
    for s0 in (0, n, (steps - 1) // n * n):  # the first, a full and the last block
        key = min(n, steps - s0), int(s0 > 0)
        if s0 < steps and key not in blocks:
            blocks[key] = _block(spaces, index, *key, g, width)

    def run(beta_at) -> np.ndarray:
        counts = []  # steps covered by each stack entry; entry i is stack[i]
        for s0 in range(0, steps, n):
            m = min(n, steps - s0)
            first = 1 if s0 else 0
            ((node0, mid0), (node, mid), column, taus, end, sampled, b0, bm, deltas, merges, d,
             p) = blocks[m, first]
            np.add(node0, 2.0 * s0, out=node)
            np.add(mid0, 2.0 * s0 + 1.0, out=mid)
            np.multiply(column, dt, out=taus)
            taus += t0
            more = s0 + m < steps
            if not more:
                end[...] = t1
            beta_at(taus, sampled)
            if first:
                b0[...] = last
            if more:
                last[...] = bm
            _step_deltas(k, *deltas)
            for operands, carry in merges:
                _merge(*operands)
                if carry:
                    carry[0][...] = carry[1]
            size = m
            while counts and counts[-1] == size:
                size *= 2
                counts.pop()
                below = stack[len(counts)]
                _merge(*_merge_views(d, below, below, p, t))
                d = below
            if size == m and more:  # the last block's product stays put
                stack[len(counts)] = d
            counts.append(size)
        for i in range(len(counts) - 2, -1, -1):
            below = stack[i]
            _merge(*_merge_views(d, below, below, p, t))
            d = below
        u = d.copy()
        u[0, 0] += 1.0
        u[1, 1] += 1.0
        return u
    return run


def _rk4(beta_at, t0, t1, steps: int, width: int) -> np.ndarray:
    """The run of _rk4_plan(t0, t1, steps, width) on beta_at, planned for it."""
    return _rk4_plan(t0, t1, steps, width)(beta_at)


def _sampler(pieces: list, which: list):
    """beta_at for _rk4, one column per interval, that copies in the
    samples of interval i from pieces[which[i]].beta_array, neighbouring
    intervals of one piece together.  It asks for them in pieces contiguous
    in memory of at most _BLOCK_ELEMENTS + 1 samples, whole rows of taus or,
    laid out steps last, whole intervals, a longer one cut, so that the
    temporaries of a costly profile stay small whatever the block."""
    edges = [0, *(i for i in range(1, len(which)) if which[i] != which[i - 1]), len(which)]
    size = _BLOCK_ELEMENTS + 1

    def beta_at(taus, rows):
        rows = rows[..., 0]
        steps_last = not taus.flags.c_contiguous
        if steps_last:
            taus, rows = taus.T, rows.T
        for s, e in zip(edges, edges[1:]):
            t, r = (taus[s:e], rows[s:e]) if steps_last else (taus[:, s:e], rows[:, s:e])
            profile = pieces[which[s]]
            step = max(size // t.shape[1], 1)
            for i in range(0, len(t), step):
                for j in range(0, t.shape[1], size):
                    r[i:i + step, j:j + size] = profile.beta_array(t[i:i + step, j:j + size])
    return beta_at


def _finite(u, t0, t1):
    """u, the entries of a run over [t0, t1] made with numpy's overflow and
    invalid-value warnings off, if they are finite or the interval is not.
    A non-finite entry over a finite interval means that beta or the
    interval overflowed a float, or that beta was not finite to begin with
    (the command line rejects such input first): OverflowError, which no
    step count fixes.  Over an infinite interval the NaN entries are left
    to the determinant gate."""
    if not np.isfinite(u).all() and np.isfinite(t0).all() and np.isfinite(t1).all():
        raise OverflowError(
            "evolution matrices overflow double precision: beta or the interval "
            "is too large, or beta is not finite"
        )
    return u


def _reflect(u):
    """D u^-1 D for D = diag(1, -1) in adjugate form, [[u22, u12], [u21, u11]],
    as a view of the (2, 2, ...) array u.  It is not divided by det u, so a
    product through it keeps the determinant drift of u."""
    return u[::-1, ::-1].swapaxes(0, 1)


def _step_counts(lengths, span, steps, least: int = 1) -> np.ndarray:
    """RK4 steps of pieces of the given lengths cut from a run of steps
    steps over span: ceil(steps * length / span) each, at least least, so
    that no piece's h exceeds span / steps.  The one count rule for a run
    cut into pieces, all in this module: the parts of _split, the halves of
    _MathieuRun and integrate_symmetric and the segments of integrate_path
    (at least 8 steps each).  steps and span may be arrays."""
    return np.maximum(np.ceil(steps * (np.asarray(lengths) / span)).astype(int), least)


def _gate(cols, cfg: IntegratorConfig):
    """_det_gate's (ok, drift, floor) of the entry arrays (u11, u12, u21,
    u22) at cfg.det_tol; huge finite entries overflow its products and fail,
    as NaN does."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _det_gate(*cols, cfg.det_tol)


def _check_batch(cols, cfg: IntegratorConfig, what):
    """cols, the entry arrays (u11, u12, u21, u22) of a batch, if every
    matrix passes _det_gate at cfg.det_tol; else IntegrationError names the
    first failing column n as what(n).  It asks for a finer step only where
    cfg.det_tol, not the rounding floor of large entries, sets the bound; no
    step count lowers that floor."""
    ok, drift, floor = _gate(cols, cfg)
    if not np.all(ok):
        n = int(np.argmin(ok))
        drift, floor = float(np.ravel(drift)[n]), float(np.ravel(floor)[n])
        hint = ("refine the step" if floor <= cfg.det_tol else
                "the entries are not finite" if math.isnan(floor) else
                "the entries are too large for double precision to check it")
        raise IntegrationError(
            f"{what(n)}: determinant drift {drift:.3e} exceeds {cfg.det_tol:.1e} "
            f"+ rounding floor {floor:.1e}; {hint}"
        )
    return cols


def _split(profile: BetaProfile, edges, counts):
    """The splitting rule of every run of integrate and integrate_path: the
    parts of the runs between neighbouring edges, run i of counts[i] steps.
    A finite span is cut at the CompositeBeta joins strictly inside its
    runs; each part takes its _step_counts share of its run's count (all
    of it if the run is not cut) and samples the piece it starts in, on a
    join the later piece.  Any other profile is one piece.  Returns the
    arrays (run, piece, a, b, steps) of the parts [a, b] in tau order, and
    the pieces' profiles."""
    if isinstance(profile, CompositeBeta):
        starts, pieces = profile._starts, [prof for _, _, prof in profile.pieces]
    else:
        starts, pieces = np.array([-math.inf]), [profile]
    edges = np.asarray(edges, dtype=float)
    run, a, b, steps = np.arange(edges.size - 1), edges[:-1], edges[1:], np.asarray(counts)
    joins = starts[1:]
    cuts = joins[(edges[0] < joins) & (joins < edges[-1])]
    if cuts.size and np.isfinite(edges[-1] - edges[0]):
        a = np.union1d(a, cuts)
        b = np.append(a[1:], edges[-1])
        run = np.searchsorted(edges, a, side="right") - 1
        steps = _step_counts(b - a, np.diff(edges)[run], steps[run])
    piece = np.maximum(np.searchsorted(starts, a, side="right") - 1, 0)
    return run, piece, a, b, steps, pieces


def _runs(profile: BetaProfile, edges, counts, cfg: IntegratorConfig) -> np.ndarray:
    """RK4 evolution matrices, (2, 2, runs), of the runs between
    neighbouring edges, run i of counts[i] steps: each the product of its
    parts (_split), later on the left.  Parts of one step count run as one
    engine run, each sampling its own piece.  cfg.check_steps sees the
    parts' total steps before beta is sampled; _finite checks the parts."""
    run, piece, a, b, steps, pieces = _split(profile, edges, counts)
    cfg.check_steps(int(steps.sum()))
    parts = np.empty((2, 2, run.size))
    for n in sorted(set(steps.tolist())):
        idx = np.flatnonzero(steps == n)
        parts[..., idx] = _rk4(_sampler(pieces, piece[idx].tolist()), a[idx], b[idx], n, 1)
    _finite(parts, a, b)
    first = np.append(True, run[1:] != run[:-1])
    out = parts[..., first]
    for i in np.flatnonzero(~first):
        out[..., run[i]] = _mul(parts[..., i], out[..., run[i]])
    return out


def _require_finite(**values) -> None:
    """Raise ValueError naming the first of values that is not finite."""
    for name, x in values.items():
        if not math.isfinite(x):
            raise ValueError(f"{name} is not finite: {x}")


@np.errstate(over="ignore", invalid="ignore")
def integrate(
    profile: BetaProfile,
    tau0: float,
    tau1: float,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> SymplecticMatrix2:
    """Evolution matrix u(tau1, tau0) for q'' + beta(tau) q = 0.

    RK4 with step h = (tau1 - tau0) / cfg.steps; a Mathieu profile runs
    through mathieu_batch, which integrates a one-period interval from half
    a period.  Over a CompositeBeta the run restarts at every join strictly
    inside [tau0, tau1]: each part takes ceil(cfg.steps * length /
    (tau1 - tau0)) steps, at least 1, and samples its own piece, a part
    that starts on a join taking that sample from the later piece (_split).
    Raises IntegrationError before sampling beta if the steps of all parts
    exceed cfg.max_steps, and ValueError before any work if tau0 or tau1
    is not finite.
    """
    _require_finite(tau0=tau0, tau1=tau1)
    if tau1 < tau0:
        raise ValueError(f"need tau1 >= tau0, got [{tau0}, {tau1}]")
    profile.check_interval(tau0, tau1)
    if tau1 == tau0:
        return SymplecticMatrix2.identity()
    if isinstance(profile, MathieuBeta):
        cfg.check_steps(cfg.steps)
        u = mathieu_batch(profile.beta0, profile.beta1, tau0, tau1, cfg.steps)
    else:
        u = _runs(profile, [tau0, tau1], [cfg.steps], cfg).ravel()
    _check_batch(u, cfg, lambda n: f"integrate over [{tau0}, {tau1}]")
    return SymplecticMatrix2(*map(float, u))


def check_symmetry(profile: BetaProfile, tau: float) -> float:
    """Max |beta(s) - beta(-s)| over 33 samples s in [0, tau]; raises if above
    PROFILE_TOL."""
    s = np.linspace(0.0, tau, 33)
    diff = float(np.max(np.abs(profile.beta_array(s) - profile.beta_array(-s))))
    if diff > PROFILE_TOL:
        raise ValueError(
            f"profile is not symmetric about 0: max |beta(s) - beta(-s)| = {diff:.3e}"
        )
    return diff


def integrate_symmetric(
    profile: BetaProfile,
    tau: float,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> SymplecticMatrix2:
    """u(tau, -tau) for beta even in tau, as U D U^-1 D.

    U = u(tau, 0) and D = diag(1, -1), and D U^-1 D is _reflect(U), so the
    result is [[ad + bc, 2ab], [2cd, ad + bc]] for U = [[a, b], [c, d]]:
    equidiagonal, u11 = u22 = theta'(tau)/2 with theta = u12.  cfg.steps
    counts all of [-tau, tau], as in integrate: U takes ceil(cfg.steps / 2)
    (_step_counts).  A tau that is not finite raises ValueError, and
    cfg.steps above max_steps IntegrationError, before beta is sampled.
    """
    _require_finite(tau=tau)
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    cfg.check_steps(cfg.steps)
    profile.check_interval(-tau, tau)
    check_symmetry(profile, tau)
    if tau == 0.0:
        return SymplecticMatrix2.identity()
    half = IntegratorConfig(int(_step_counts(tau, 2.0 * tau, cfg.steps)))
    u = integrate(profile, 0.0, tau, half).as_array()
    u = _mul(u, _reflect(u)).ravel()
    _check_batch(u, cfg, lambda n: f"symmetric integrate to tau = {tau}")
    return SymplecticMatrix2(*map(float, u))


def monodromy(
    profile: BetaProfile,
    tau0: float,
    period: float,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> SymplecticMatrix2:
    """One-period evolution matrix u(tau0 + period, tau0).

    The profile must actually be periodic with the given period; this is
    verified structurally for constant/Mathieu profiles and by sampling
    otherwise.  A tau0 or period that is not finite raises ValueError
    before any work.
    """
    _require_finite(tau0=tau0, period=period)
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    _verify_periodic(profile, tau0, period)
    return integrate(profile, tau0, tau0 + period, cfg)


def _verify_periodic(profile: BetaProfile, tau0: float, period: float):
    if isinstance(profile, ConstantBeta):
        return
    if isinstance(profile, MathieuBeta):
        k = period / (2.0 * math.pi)
        if abs(k - round(k)) > 1e-12 or round(k) == 0:
            raise ValueError(
                f"Mathieu profile has period 2*pi; {period} is not a multiple"
            )
        return
    lo, hi = profile.domain()
    if tau0 < lo or tau0 + 2.0 * period > hi:
        raise ValueError(
            "cannot verify periodicity: domain does not cover one extra period"
        )
    s = np.linspace(tau0, tau0 + period, 17)
    diff = float(np.max(np.abs(profile.beta_array(s + period) - profile.beta_array(s))))
    if diff > PROFILE_TOL:
        raise ValueError(f"profile not periodic with period {period}: residual {diff:.3e}")


def classify(u: SymplecticMatrix2) -> ZoneReport:
    """Zone classification by the trace Gamma of u, which must pass the
    determinant gate at CLASSIFY_DET_TOL.

    zone I   |Gamma| < 2          stable; eigenvalues on the unit circle
    zone II  |Gamma| = 2 (band)   threshold
    zone III |Gamma| > 2          real reciprocal pair, squeezing axes a+-

    In zone III the left row eigenvectors are returned normalized so that
    a+ has unit Euclidean norm with its first component larger than
    AXIS_SIGN_TOL in magnitude positive, a smaller one being rounding, and
    a- is scaled to make the symplectic pairing a+ J a-^T equal 1.
    """
    gamma = u.require_symplectic(CLASSIFY_DET_TOL).trace
    zone = ZONES[zone_codes(gamma)]
    if zone == "II":
        lam = 1.0 if gamma > 0 else -1.0
        return ZoneReport(gamma=gamma, zone="II", lam_plus=complex(lam), lam_minus=complex(lam))
    root = cmath.sqrt(complex(gamma * gamma - 4.0))
    lam_p = (gamma + root) / 2.0
    lam_m = (gamma - root) / 2.0
    if zone == "I":
        return ZoneReport(gamma=gamma, zone="I", lam_plus=lam_p, lam_minus=lam_m)
    a_p = _left_eigenvector(u, lam_p.real)
    a_m = _left_eigenvector(u, lam_m.real)
    a_p, a_m = _normalize_axes(a_p, a_m)
    return ZoneReport(
        gamma=gamma, zone="III", lam_plus=lam_p, lam_minus=lam_m, a_plus=a_p, a_minus=a_m,
    )


def _left_eigenvector(u: SymplecticMatrix2, lam: float) -> tuple:
    """Row vector a with a u = lam a, the longer candidate: both vanish only
    if u = lam 1, but in zone III classify's lam is 3e-5 or more off Gamma/2."""
    cand1 = (u.u21, lam - u.u11)
    cand2 = (lam - u.u22, u.u12)
    n1 = math.hypot(*cand1)
    n2 = math.hypot(*cand2)
    return cand1 if n1 >= n2 else cand2


def _normalize_axes(a_p: tuple, a_m: tuple) -> tuple:
    # a+ to unit norm, first component above rounding positive
    norm = math.hypot(*a_p)
    a_p = (a_p[0] / norm, a_p[1] / norm)
    lead = a_p[0] if abs(a_p[0]) > AXIS_SIGN_TOL else a_p[1]
    if lead < 0:
        a_p = (-a_p[0], -a_p[1])
    # a- scaled so that a+ J a-^T = 1 with J = [[0, 1], [-1, 0]]
    pairing = a_p[0] * a_m[1] - a_p[1] * a_m[0]
    if pairing == 0.0:
        raise ValueError("degenerate eigenvector pair; cannot normalize axes")
    a_m = (a_m[0] / pairing, a_m[1] / pairing)
    return a_p, a_m


def apply_to_state(u: SymplecticMatrix2, s: CanonicalState) -> CanonicalState:
    """(q', p')^T = u (q, p)^T."""
    return CanonicalState(
        q=u.u11 * s.q + u.u12 * s.p,
        p=u.u21 * s.q + u.u22 * s.p,
    )


@np.errstate(over="ignore", invalid="ignore")
def integrate_path(
    profile: BetaProfile,
    taus,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> list:
    """Cumulative matrices u(tau_i, taus[0]) along an increasing grid.

    Each segment gets max(ceil(length / span * cfg.steps), 8) RK4 steps, so
    the whole span uses about cfg.steps, and is cut at the joins of a
    CompositeBeta strictly inside it, as integrate cuts a run of that many
    steps (_split).  Parts with the same step count run as one batch of the
    step-map engine, which gives each the matrix of a direct run over it
    alone, bit for bit, so a segment's matrix is integrate()'s over it,
    except for a one-period Mathieu segment, which integrate() builds from
    half a period.  max_steps bounds the steps of all parts together.  The
    first segment that fails the determinant gate raises IntegrationError;
    the segments are composed left to right.  A grid point that is not
    finite raises ValueError before any work: over an infinite span every
    segment would take the minimum 8 steps.
    """
    taus = [float(t) for t in taus]
    if len(taus) < 2:
        raise ValueError("need at least two grid points")
    bad = next((i for i, t in enumerate(taus) if not math.isfinite(t)), None)
    if bad is not None:
        raise ValueError(f"tau grid point {bad} is not finite: {taus[bad]}")
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError("tau grid must be strictly increasing")
    profile.check_interval(taus[0], taus[-1])
    counts = _step_counts(np.diff(taus), taus[-1] - taus[0], cfg.steps, 8)
    entries = _runs(profile, taus, counts, cfg).reshape(4, -1)
    _check_batch(entries, cfg, lambda n: f"integrate over [{taus[n]}, {taus[n + 1]}]")
    out = [SymplecticMatrix2.identity()]
    for e in entries.T.tolist():
        out.append(SymplecticMatrix2(*e) @ out[-1])
    return out


class _MathieuRun:
    """mathieu_batch's engine runs for a chunk of `nodes` (beta0, beta1)
    pairs over [tau0, tau1] at `steps`, planned once (_rk4_plan): called
    with the pairs, it returns their entries, a (4, nodes) array (u11, u12,
    u21, u22) checked by _finite.  mathieu.find_double_zero runs all its
    points on one.

    A one-period interval, tau1 - tau0 = 2pi, is integrated from half a
    period.  With c = pi floor(tau0/pi), V = u(tau0, c), W = u(c + pi, tau0)
    and U = W V, periodicity and the reflection about c + pi give
    u(tau1, tau0) = (V (D U^-1 D)) W.  Each piece takes its _step_counts of
    steps over 2pi, at least 1, so h never exceeds (tau1 - tau0) / steps; a
    zero-length V is one step of h = 0, the identity.  Pieces of equal step
    count are one run of 2 nodes columns when those fit the element budget.
    Else each piece is its own run, planned anew at each call, one at a
    time, so that no two workspaces are alive at once.  Any other interval
    is one direct run.  Only a single run's plan is held between calls.
    """

    def __init__(self, nodes: int, tau0: float, tau1: float, steps: int):
        self.nodes, self.tau0, self.tau1 = nodes, tau0, tau1
        self.reflect = tau1 - tau0 == 2.0 * math.pi
        if not self.reflect:
            self.pieces = [(tau0, tau1, steps)]
        else:
            c = math.pi * math.floor(tau0 / math.pi)
            ends = np.array([c, tau0, c + math.pi])
            counts = _step_counts(np.diff(ends), tau1 - tau0, steps).tolist()
            if counts[0] == counts[1] and 2 * nodes <= _BLOCK_ELEMENTS:
                self.pieces = [(ends[:2], ends[1:], counts[0])]  # V and W as one run
            else:
                self.pieces = list(zip(ends, ends[1:], counts))
        self.plan = _rk4_plan(*self.pieces[0], nodes) if len(self.pieces) == 1 else None

    @np.errstate(over="ignore", invalid="ignore")
    def __call__(self, beta0, beta1) -> np.ndarray:
        two_beta1 = 2.0 * beta1

        def beta_at(taus, rows):
            np.cos(taus, out=taus)
            np.multiply(two_beta1, taus[..., None], out=rows)
            rows += beta0

        if self.plan is None:
            u = [_rk4_plan(*piece, self.nodes)(beta_at) for piece in self.pieces]
        else:
            u = [self.plan(beta_at)]
        if self.reflect:
            v, w = u if len(u) == 2 else (u[0][..., :self.nodes], u[0][..., self.nodes:])
            u = [_mul(_mul(v, _reflect(_mul(w, v))), w)]
        return _finite(u[0], self.tau0, self.tau1).reshape(4, -1)


def mathieu_batch(beta0, beta1, tau0: float, tau1: float, steps: int = DEFAULT_CONFIG.steps):
    """RK4 evolution entries for many (beta0, beta1) pairs at once.

    beta = beta0 + 2 beta1 cos(tau), sampled with MathieuBeta.beta_array's
    arithmetic: 2 beta1 cos(tau) is written into the engine's workspace and
    beta0 added, the same sum.  The pairs are the batch axis of the step-map
    engine; a pair's entries do not depend on the batch size, bit for bit.
    A one-period interval, tau1 - tau0 = 2pi, is integrated from half a
    period by reflection; any other interval is the direct run at
    h = (tau1 - tau0) / steps (_MathieuRun).  integrate runs its Mathieu
    profiles through here.  Entries that overflow over a finite interval
    raise OverflowError (_finite).

    A batch of more than B = _BLOCK_ELEMENTS pairs runs in the fewest
    chunks of at most B pairs, balanced to within one pair, so each has at
    least B / 2, each through its own _MathieuRun, one at a time.  A
    one-period chunk of at most B / 2 pairs runs its two half-period pieces
    as one run of twice its width, a wider one as two runs, one after the
    other.  So every engine run has at most B columns, and at least B / 2
    unless the batch has fewer pairs.  One run is alive at a time.  A run
    of w columns at s steps takes blocks of n steps, n w <= 4 B - 3 w, and
    a workspace of at most (8 n + 4) w + 4 w bit_length(s) doubles, 2 n + 1
    more for a single pair; besides it a call holds at most 9 doubles per
    column of its widest run, 11 if that run is both pieces, 18 if its two
    pieces differ in h, n + 1 for the run's grid index and 7 per pair of
    the batch.  Over the
    default [pi/2, 5pi/2] at 20000 steps each piece takes 5000 steps.  A
    call of B pairs runs B columns in blocks of one step and peaks under
    (12 + 52 + 9 + 7) B = 80 B doubles, 5.2 MB at B = 8192; since
    (8 n + 4) w <= 32 B - 20 w, and a run of both pieces has w / 2 pairs, a
    call of fewer pairs stays under that too.

    Returns four arrays (u11, u12, u21, u22) of the broadcast input shape.
    """
    beta0 = np.asarray(beta0, dtype=float)
    beta1 = np.asarray(beta1, dtype=float)
    shape = np.broadcast_shapes(beta0.shape, beta1.shape)
    beta0 = np.broadcast_to(beta0, shape).ravel()
    beta1 = np.broadcast_to(beta1, shape).ravel()
    out = np.empty((4, beta0.size))
    chunks = -(-beta0.size // _BLOCK_ELEMENTS)  # the fewest of at most B pairs
    edges = [beta0.size * i // max(chunks, 1) for i in range(chunks + 1)]
    for a, b in zip(edges, edges[1:]):
        out[:, a:b] = _MathieuRun(b - a, tau0, tau1, steps)(beta0[a:b], beta1[a:b])
    return tuple(e.reshape(shape) for e in out)
