"""Serialization of fields, meshes, and reports.

Node tables are comma-separated text with a fixed header and one row per
node in theta-major order; floats carry 17 significant digits so a
re-read reproduces the in-memory values bit for bit.  Meshes use the
plain-text polygon format (`v x y z` vertices, `f ...` faces) with the
Euclidean visualization embedding x = rho * z for every ambient
curvature; reports are flat `key = value` text.

Every float of a node table or a mesh vertex line is written as exactly
the bytes of '%.17g' % v, by one vectorized kernel (`format_g17`).  It
decides all zeros and every value with 1e-27 <= |v| < 1e15 that is not
within 1e-6 of a rounding tie of its 17 digits; the rest (non-finite
values, other magnitudes, near-ties) go through '%.17g' % v one at a
time.  Both files are written to an open binary handle in blocks of about
BLOCK_ROWS rows, one kernel call per block.  Mesh face lines are laid out
from one table of vertex-id cells, each a space and the id's digits behind
0 bytes (`_id_cells`): a block of faces is one `take` of its ids' cells
between b'f' and the newline, with the 0 bytes dropped.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .geometry import GeometryState
from .grid import ScalarField, SphereGrid

NODE_TABLE_HEADER = "theta,phi,rho,kappa1,kappa2,u,residual"


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


# --- the '%.17g' kernel ------------------------------------------------------
# A value v is written as the 17-digit integer D = round(|v| 10^(16 - e)),
# with e its decimal exponent, laid out by a per-value byte template.  For
# 1e-27 <= |v| < 1e15 the scale s = 16 - e lies in [1, 45], where
# 10^s = hi + lo exactly in two doubles.  Dekker's error-free product
# (Numer. Math. 18, 1971) gives |v| hi as p + pe exactly, so |v| 10^s =
# p + pe + |v| lo is known to ~1e-14, which decides the rounding of every
# value not within 1e-6 of a tie.  Zeros are laid out as '0' or '-0'; all
# other values (non-finite ones, nonzero |v| outside that range, near-ties)
# go through '%.17g' % v one at a time.

BLOCK_ROWS = 1024
_SPLIT = 134217729.0                       # 2^27 + 1, Dekker's splitting factor
_D_MIN, _D_MAX = 10 ** 16, 10 ** 17


def _pow10() -> np.ndarray:
    """Rows hi, lo, hh, hl over s = 0..45: 10^s = hi + lo exactly, and
    hi = hh + hl with 26-bit halves."""
    exact = [10 ** s for s in range(46)]
    hi = np.array([float(p) for p in exact])
    lo = [float(p - int(h)) for p, h in zip(exact, hi.tolist())]
    hh = hi * _SPLIT - (hi * _SPLIT - hi)
    return np.array([hi, lo, hh, hi - hh])


_POW10 = _pow10()

# One cell per value, 48 bytes or six little-endian words: the sign, '0.000'
# (fixed forms with e < 0), the digits d0..d16 at bytes 6, 8, ..., 38, each
# followed by a slot for the decimal point, then 'e-XX' and the separator.
# Word k > 0 holds the digit group d(4k-3)..d(4k).  A template row holds
# the constant bytes of one layout, 0xFF where a digit is written and 0 in
# every slot the layout leaves out, which the writers drop.  Layouts are
# keyed by the sign, the form (0: an exponent e <= -5, or fixed with
# e = form - 5 for -4 <= e <= 14) and the number of significant digits.
_WIDTH = 48
_DIGIT0, _EXP = 6, 40
_SEP_SHIFT = 32                            # the separator is byte 4 of word 5


def _masks(count: int, at: list) -> np.ndarray:
    """For k < count, a word of 0xFF bytes with k's zero-padded decimal
    digits as ASCII at the bytes `at`."""
    out = np.full((count, 8), 0xFF, dtype=np.uint8)
    k = np.arange(count, dtype=np.uint32)
    for byte in reversed(at):
        high = k // 10
        out[:, byte] = k - high * 10 + 48
        k = high
    return out.view("<u8").ravel()


def _trailing_zeros() -> np.ndarray:
    """The number of trailing zero digits of each 4-digit group k < 10^4."""
    k = np.arange(10 ** 4, dtype=np.uint32)
    return sum(k // p * p == k for p in (10, 100, 1000, 10000)).astype(np.uint8)


_LEAD_MASKS = _masks(10, [6])
_GROUP_MASKS = _masks(10 ** 4, [0, 2, 4, 6])
_EXP_MASKS = _masks(100, [2, 3])
_ZEROS4 = _trailing_zeros()


def _templates() -> np.ndarray:
    t = np.zeros((2, 20, 17, _WIDTH), dtype=np.uint8)
    t[1, ..., 0] = ord("-")
    n = np.arange(1, 18)
    for form in range(20):
        e = form - 5 if form else 0
        rows = t[:, form]
        kept = np.arange(17) < np.maximum(n, e + 1)[:, None]
        rows[..., _DIGIT0:_EXP:2] = np.where(kept, 0xFF, 0)
        if e >= 0:
            rows[:, n > e + 1, _DIGIT0 + 2 * e + 1] = ord(".")
        else:
            rows[..., 1:2 - e] = np.frombuffer(b"0.000"[:1 - e], dtype=np.uint8)
        if not form:
            rows[..., _EXP:_EXP + 4] = np.frombuffer(b"e-\xff\xff", dtype=np.uint8)
    return t.reshape(-1, _WIDTH)


_TEMPLATES = _templates()


def _scaled(a: np.ndarray, e: np.ndarray):
    """D = round(a 10^(16 - e)) and a 10^(16 - e) - D."""
    hi, lo, hh, hl = _POW10.take(16 - e, axis=1)
    p = a * hi
    t = a * _SPLIT
    ah = t - (t - a)
    al = a - ah
    r = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    rr = np.rint(r)
    return p.astype(np.int64) + rr.astype(np.int64), r - rr


def format_g17(values: np.ndarray, seps: bytes) -> np.ndarray:
    """The bytes of '%.17g' % v followed by its separator, for every value of
    a (rows, len(seps)) array, as rows of 0-padded cells: one row per input
    row, the i-th cell ending in seps[i]."""
    v = np.asarray(values, dtype=float).reshape(-1, len(seps)).ravel()
    a = np.abs(v)
    zero = a == 0
    ok = zero | (a >= 1e-27) & (a < 1e15)
    a[zero | ~ok] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    d, frac = _scaled(a, e)
    # log10 may miss e by one next to a power of ten: scale those again;
    # a rounding that carries to 10^17 is 10^16 at the next exponent
    below = (d < _D_MIN) | ((d == _D_MIN) & (frac < 0))
    off = np.flatnonzero(below | (d > _D_MAX))
    if off.size:
        e[off] += np.where(below[off], -1, 1)
        d[off], frac[off] = _scaled(a[off], e[off])
    carry = d == _D_MAX
    d[carry] = _D_MIN
    e += carry
    ok &= np.abs(np.abs(frac) - 0.5) > 1e-6
    d[zero] = 0                                              # '0', or '-0'
    lead = (d // 10 ** 8).astype(np.uint32)                  # d0..d8
    rest = (d - lead * np.int64(10 ** 8)).astype(np.uint32)  # d9..d16
    top, mid = lead // 10 ** 4, rest // 10 ** 4              # d0..d4, d9..d12
    first = top // 10 ** 4                                   # d0
    groups = (top - first * 10 ** 4, lead - top * 10 ** 4, mid, rest - mid * 10 ** 4)
    zeros = _ZEROS4[groups[3]]
    tail = groups[3] == 0
    for g in groups[2::-1]:
        zeros += tail * _ZEROS4[g]
        tail &= g == 0
    form = np.maximum(e + 5, 0)
    cells = _TEMPLATES.take((np.signbit(v) * 20 + form) * 17 + 16 - zeros, axis=0)
    words = cells.view("<u8")
    words[:, 0] &= _LEAD_MASKS.take(first)
    for k, g in enumerate(groups, 1):
        words[:, k] &= _GROUP_MASKS.take(g)
    words[:, 5] &= _EXP_MASKS.take(-e, mode="clip")
    words.reshape(-1, len(seps), 6)[..., 5] |= (
        np.frombuffer(seps, dtype=np.uint8).astype("<u8") << _SEP_SHIFT)
    for k in np.flatnonzero(~ok).tolist():
        text = ("%.17g" % v[k]).encode() + seps[k % len(seps):k % len(seps) + 1]
        cells[k] = 0
        cells[k, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return cells.reshape(-1, len(seps) * _WIDTH)


def _packed(*parts: np.ndarray) -> bytes:
    """The rows of 0-padded byte blocks side by side, 0 bytes dropped."""
    return np.concatenate(parts, axis=1).tobytes().translate(None, b"\0")


def _strings(values: np.ndarray, sep: bytes) -> np.ndarray:
    """One 0-padded row per value: '%.17g' % v followed by sep."""
    text = _packed(format_g17(np.asarray(values).reshape(-1, 1), b"\n"))
    words = [w + sep for w in text.split(b"\n")[:-1]]
    return np.array(words).view(np.uint8).reshape(len(words), -1)


def _id_cells(count: int) -> np.ndarray:
    """Row i < count: b' ' followed by i's decimal digits, right-aligned in a
    cell as wide as the widest row, with 0 bytes in the unused leading places."""
    width = len(str(count - 1)) + 1
    k = np.arange(count)
    digits = 1 + sum(k >= 10 ** j for j in range(1, width - 1))
    cells = np.zeros((count, width), dtype=np.uint8)
    for j in range(width - 1):
        cells[:, width - 1 - j] = np.where(j < digits, k // 10 ** j % 10 + 48, 0)
    cells[k, width - 1 - digits] = ord(" ")
    return cells


def write_node_table(path, state: GeometryState, residual_values: np.ndarray) -> None:
    """Written in blocks of whole theta rows, about BLOCK_ROWS nodes each;
    theta and phi are formatted once per grid line."""
    g = state.grid
    cols = [np.asarray(c, dtype=float).reshape(g.shape)
            for c in (state.rho, state.kappa1, state.kappa2, state.u, residual_values)]
    thetas, phis = np.split(_strings(np.concatenate([g.theta, g.phi]), b","), [g.n_theta])
    step = max(1, BLOCK_ROWS // g.n_phi)
    with open(path, "wb") as fh:
        fh.write(NODE_TABLE_HEADER.encode() + b"\n")
        for i in range(0, g.n_theta, step):
            block = np.stack([c[i:i + step] for c in cols], axis=-1)
            fh.write(_packed(np.repeat(thetas[i:i + step], g.n_phi, axis=0),
                             np.tile(phis, (len(block), 1)),
                             format_g17(block, b",,,,\n")))


def read_node_table(path) -> dict:
    """Columns of a node table as float arrays, keyed by header name."""
    names = NODE_TABLE_HEADER.split(",")
    with open(path) as fh:
        if fh.readline().strip() != NODE_TABLE_HEADER:
            raise ValueError(f"{path}: not a node table (bad header)")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # no rows: checked below
            data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    if data.shape[0] == 0 or data.shape[1] != len(names):
        raise ValueError(f"{path}: malformed node table")
    return {name: data[:, idx] for idx, name in enumerate(names)}


def field_from_node_table(path, grid: SphereGrid) -> ScalarField:
    """The rho column of a node table, on the grid whose nodes it lists, as
    a contiguous array of its own: a column view would keep the whole table
    alive and make every stencil read strided memory."""
    cols = read_node_table(path)
    rho = cols["rho"]
    if rho.size != grid.n_nodes:
        raise ValueError(
            f"{path}: node table has {rho.size} rows, grid expects {grid.n_nodes}")
    tt, pp = grid.mesh()
    if not (np.allclose(cols["theta"], tt.ravel(), rtol=0.0, atol=1e-12)
            and np.allclose(cols["phi"], pp.ravel(), rtol=0.0, atol=1e-12)):
        raise ValueError(f"{path}: node table nodes are not those of the "
                         f"{grid.n_theta}x{grid.n_phi} grid")
    return ScalarField(grid, np.ascontiguousarray(rho.reshape(grid.shape)))


def write_mesh(path, grid: SphereGrid, rho: np.ndarray) -> None:
    """Quad-dominant mesh of the graph with triangulated polar caps.

    Vertices are the Euclidean chart embedding x = rho * z (a
    visualization of the radial graph; not an isometric embedding when
    the ambient curvature is nonzero).  Pole vertices take the mean
    radius of the adjacent ring.
    """
    nt, nphi = grid.shape
    z, _, _ = grid.unit_vectors()
    poles = [[0.0, 0.0, float(np.mean(rho[0]))], [0.0, 0.0, -float(np.mean(rho[-1]))]]
    verts = np.concatenate([(rho[..., None] * z).reshape(-1, 3), poles])
    ids = np.arange(1, nt * nphi + 1).reshape(nt, nphi)
    east = np.roll(ids, -1, axis=1)
    quads = np.stack([ids[:-1], ids[1:], east[1:], east[:-1]], axis=-1).reshape(-1, 4)
    north_id, south_id = nt * nphi + 1, nt * nphi + 2
    caps = np.stack([np.full(nphi, north_id), ids[0], east[0],
                     np.full(nphi, south_id), east[-1], ids[-1]], axis=-1).reshape(-1, 3)
    vertex, face, newline = (np.frombuffer(b, dtype=np.uint8) for b in (b"v ", b"f", b"\n"))
    cells = _id_cells(south_id + 1)
    with open(path, "wb") as fh:
        for i in range(0, len(verts), BLOCK_ROWS):
            block = verts[i:i + BLOCK_ROWS]
            fh.write(_packed(np.broadcast_to(vertex, (len(block), 2)),
                             format_g17(block, b"  \n")))
        for faces in (quads, caps):
            for i in range(0, len(faces), BLOCK_ROWS):
                rows = faces[i:i + BLOCK_ROWS]
                fh.write(_packed(np.broadcast_to(face, (len(rows), 1)),
                                 cells.take(rows, axis=0).reshape(len(rows), -1),
                                 np.broadcast_to(newline, (len(rows), 1))))


def write_report(path, mapping: dict) -> None:
    lines = [f"{key} = {_fmt(value)}" for key, value in mapping.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_report(path) -> dict:
    """Flat report text back as a str -> str mapping."""
    out = {}
    for line in Path(path).read_text().splitlines():
        body = line.strip()
        if not body or "=" not in body:
            continue
        key, value = (part.strip() for part in body.split("=", 1))
        out[key] = value
    return out
