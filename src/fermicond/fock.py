"""Dense matrix representation of the CAR algebra on N lattice sites.

The Fock space is (C^2)^{tensor N} with the occupation basis ordered so that
site_order[0] is the most significant bit.  Annihilators are built with the
usual fermionic string construction (Z x ... x Z x s- x 1 x ... x 1), which
makes every generator a real matrix; the antilinear time-reversal map that
fixes all a_x is then entry-wise complex conjugation in this basis.

Even operators are assembled from the occupation bits of the basis index
instead: a_x^* a_y is a signed partial permutation (FockRep.hop) and number
operators are diagonals.  The string matrices stay as the algebra's oracle.

Every many-body operator is a plain dim x dim complex ndarray; the driven
propagator (while it steps) and SpectralData's U hold number-conserving ones
as the tuple of their sector blocks (BlockLayout).  Fermionic parity is not
carried along as a label; is_even reads it off the entries.
"""

from __future__ import annotations

from functools import cache, cached_property

import numpy as np

DEFAULT_SITE_CAP = 14

_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
_SMINUS = np.array([[0.0, 1.0], [0.0, 0.0]])  # a|1> = |0>
_I2 = np.eye(2)


class DimensionCapError(Exception):
    """Fock dimension would exceed the configured site cap."""


class UnknownSiteError(KeyError):
    pass


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[A, B], block by block over the number sectors when both conserve N."""
    if a.shape != b.shape:
        raise ValueError(f"operator shapes differ: {a.shape} != {b.shape}")
    layout = sector_layout(a)
    if layout is None or sector_layout(b) is None:
        return a @ b - b @ a
    out = np.zeros(a.shape, dtype=complex)
    for ix in layout.grids:
        ak, bk = a[ix], b[ix]
        out[ix] = ak @ bk - bk @ ak
    return out


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b + b @ a


def opnorm_mat(m: np.ndarray) -> float:
    """Spectral norm; trivial shapes short-circuited.  A matrix that is exactly
    zero off the number sectors has the largest of its block norms (exact)."""
    if m.size == 0:
        return 0.0
    layout = sector_layout(m)
    if layout is None:
        return float(np.linalg.norm(m, 2))
    return max(float(np.linalg.norm(m[ix], 2)) for ix in layout.grids)


@cache
def number_sectors(dim: int) -> tuple[np.ndarray, ...]:
    """Basis indices of each particle-number sector (equal popcount), by
    ascending number; the whole space as one block if dim is not a power of 2."""
    states = np.arange(dim)
    if dim & (dim - 1):
        sectors = (states,)
    else:
        n = np.bitwise_count(states)
        sectors = tuple(states[n == k] for k in range(int(n.max()) + 1))
    for idx in sectors:
        idx.flags.writeable = False  # shared by every caller through the cache
    return sectors


class BlockLayout:
    """Diagonal blocks over disjoint groups of basis states that cover the
    space, each group in ascending order: the number sectors, or the whole
    space as one block.

    An operator that is exactly zero off the blocks is held as the tuple of
    its blocks in group order (gather; join is the inverse).  flat() places
    an entry in one buffer whose consecutive slices are the blocks (split),
    so one scatter fills every block at once; for the one block the buffer
    is the dense matrix in row-major order and gather and join copy nothing.
    """

    def __init__(self, groups):
        self.groups = tuple(groups)
        self.grids = tuple(np.ix_(idx, idx) for idx in self.groups)
        self.dim = sum(len(idx) for idx in self.groups)
        sizes = [len(idx) for idx in self.groups]
        self._bounds = np.cumsum([0] + [n * n for n in sizes])
        self.size = int(self._bounds[-1])
        # per basis state: its block's start in the buffer, the block's size
        # and the state's position in its group
        start, width, local = (np.empty(self.dim, dtype=np.intp) for _ in range(3))
        for idx, lo, n in zip(self.groups, self._bounds, sizes):
            start[idx], width[idx], local[idx] = lo, n, np.arange(n)
        self._place = start, width, local

    @cached_property
    def off(self) -> np.ndarray:
        """Read-only mask of the entries off the blocks."""
        off = np.ones((self.dim, self.dim), dtype=bool)
        for ix in self.grids:
            off[ix] = False
        off.flags.writeable = False  # shared by every caller through the caches
        return off

    def flat(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Buffer positions of the entries (rows, cols); each pair lies in one block."""
        start, width, local = self._place
        return start[cols] + local[rows] * width[cols] + local[cols]

    def split(self, buf: np.ndarray) -> tuple:
        """The blocks of a flat buffer, as views."""
        return tuple(buf[lo:hi].reshape(len(idx), len(idx))
                     for idx, lo, hi in zip(self.groups, self._bounds, self._bounds[1:]))

    def gather(self, m: np.ndarray) -> tuple:
        """The blocks of a dense matrix (copies, except for the one block)."""
        return (m,) if len(self.grids) == 1 else tuple(m[ix] for ix in self.grids)

    def join(self, blocks) -> np.ndarray:
        """The dense matrix of the blocks, exactly zero off them."""
        if len(blocks) == 1:
            return blocks[0]
        out = np.zeros((self.dim, self.dim), dtype=np.result_type(*blocks))
        for ix, b in zip(self.grids, blocks):
            out[ix] = b
        return out


@cache
def whole_layout(dim: int) -> BlockLayout:
    """The whole space as one block: the dense route."""
    return BlockLayout((np.arange(dim),))


@cache
def number_layout(dim: int) -> BlockLayout | None:
    """The particle-number sectors as a layout; None if there is only one."""
    sectors = number_sectors(dim)
    return BlockLayout(sectors) if len(sectors) > 1 else None


def sector_layout(m: np.ndarray) -> BlockLayout | None:
    """The layout of the particle-number sectors if m is exactly zero off
    them, else None (also for a dim that is not a power of 2, or one sector).

    H, W_t, bond observables, Gibbs data and their products are exactly zero
    off the sectors, so their eigenproblems, basis changes, norms,
    commutators and propagators split into independent blocks (the
    symmetry-block idiom of exact diagonalisation, cf. Weinberg & Bukov,
    SciPost Phys. 2, 003 (2017)).
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return None
    layout = number_layout(m.shape[0])
    if layout is None or m[layout.off].any():
        return None
    return layout


def is_even(m: np.ndarray) -> bool:
    """True if m is exactly zero between basis states of opposite number
    parity, i.e. commutes with (-1)^N; read off the entries, with no matrix
    product and no SVD."""
    odd = np.bitwise_count(np.arange(len(m))) & 1
    return not m[odd[:, None] != odd[None, :]].any()


class FockRep:
    """Concrete CAR representation for an ordered tuple of sites."""

    def __init__(self, site_order, cap: int = DEFAULT_SITE_CAP):
        self.site_order = tuple(site_order)
        self.n_sites = len(self.site_order)
        if self.n_sites > cap:
            raise DimensionCapError(
                f"{self.n_sites} sites exceeds cap {cap} (dim 2^{self.n_sites})"
            )
        self.dim = 2 ** self.n_sites
        self.site_index = {s: i for i, s in enumerate(self.site_order)}
        self._hops: dict = {}  # (x, y) -> read-only hop triple
        self._plans: dict = {}  # (pairs, layout) -> read-only scatter plan

    @classmethod
    def of_box(cls, box, cap: int = DEFAULT_SITE_CAP) -> "FockRep":
        return cls(box.sites, cap)

    def mode(self, site) -> int:
        try:
            return self.site_index[site]
        except KeyError:
            raise UnknownSiteError(f"site {site} not in representation")

    @cached_property
    def _annihilator_mats(self) -> list[np.ndarray]:
        ops = []
        for j in range(self.n_sites):
            m = np.array([[1.0]])
            for k in range(self.n_sites):
                if k < j:
                    m = np.kron(m, _SZ)
                elif k == j:
                    m = np.kron(m, _SMINUS)
                else:
                    m = np.kron(m, _I2)
            op = m.astype(complex)
            op.flags.writeable = False  # handed out bare by annihilator()
            ops.append(op)
        return ops

    @cached_property
    def _states(self) -> np.ndarray:
        return np.arange(self.dim)

    def _bit(self, mode: int) -> int:
        return 1 << (self.n_sites - 1 - mode)

    def occupied(self, site) -> np.ndarray:
        """Boolean mask of the basis states in which site is occupied."""
        return (self._states & self._bit(self.mode(site))) != 0

    def hop(self, x, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nonzero entries of a_x^* a_y as read-only (rows, cols, signs), built
        once per (x, y) and representation.

        Column s contributes where y is occupied and x is empty (or s occupies
        x when x == y); its row is s with both bits flipped and its sign is the
        Jordan-Wigner parity of the occupied modes strictly between x and y.
        """
        triple = self._hops.get((x, y))
        if triple is None:
            triple = self._hops[(x, y)] = self._build_hop(self.mode(x), self.mode(y))
        return triple

    def scatter_plan(self, pairs, layout: BlockLayout) -> tuple[np.ndarray, ...]:
        """(positions, signs, counts) that scatter sum_(x, y) (f a_x^* a_y +
        g a_y^* a_x) over distinct pairs x != y into layout's flat buffer,
        built once per (pairs, layout) and representation.

        Per pair, the entries of a_x^* a_y come first and then those of
        a_y^* a_x (the hop triple transposed); counts holds the length of
        each of those runs, so the values are repeat([f1, g1, f2, ...],
        counts) * signs.  a_x^* a_y conserves N, so every entry lies in one
        number sector.
        """
        key = (tuple(pairs), layout)
        plan = self._plans.get(key)
        if plan is None:
            positions, signs, counts = [np.empty(0, dtype=np.intp)], [np.empty(0)], []
            for x, y in key[0]:
                rows, cols, sgn = self.hop(x, y)
                positions += [layout.flat(rows, cols), layout.flat(cols, rows)]
                signs += [sgn, sgn]
                counts += [len(sgn), len(sgn)]
            plan = np.concatenate(positions), np.concatenate(signs), np.array(counts, dtype=np.intp)
            for arr in plan:
                arr.flags.writeable = False  # shared by every caller through the memo
            self._plans[key] = plan
        return plan

    def _build_hop(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        s = self._states
        if i == j:
            cols = s[(s & self._bit(i)) != 0]
            triple = cols, cols, np.ones(len(cols))
        else:
            bx, by = self._bit(i), self._bit(j)
            cols = s[((s & by) != 0) & ((s & bx) == 0)]
            between = self._bit(min(i, j)) - 2 * self._bit(max(i, j))
            signs = 1.0 - 2.0 * (np.bitwise_count(cols & between) & 1)
            triple = cols ^ (bx | by), cols, signs
        for arr in triple:
            arr.flags.writeable = False  # shared by every caller through the memo
        return triple

    def annihilator(self, site) -> np.ndarray:
        return self._annihilator_mats[self.mode(site)]

    def identity(self) -> np.ndarray:
        return np.eye(self.dim, dtype=complex)

    def zero(self) -> np.ndarray:
        return np.zeros((self.dim, self.dim), dtype=complex)

    def number(self, site) -> np.ndarray:
        return np.diag(self.occupied(site).astype(complex))

    def total_number(self) -> np.ndarray:
        return np.diag(np.bitwise_count(self._states).astype(complex))

    def parity_operator(self) -> np.ndarray:
        """(-1)^N as a diagonal matrix."""
        return np.diag((1.0 - 2.0 * (np.bitwise_count(self._states) & 1)).astype(complex))

    def parity_of(self, mat: np.ndarray) -> str:
        """Classify a matrix as even/odd/mixed against (-1)^N, read off the
        entries as is_even does: odd is exactly zero between basis states of
        equal number parity."""
        odd = np.bitwise_count(self._states) & 1
        flip = odd[:, None] != odd[None, :]
        if not mat[flip].any():
            return "even"
        return "odd" if not mat[~flip].any() else "mixed"


def bilinear(rep: FockRep, x, y, c: complex) -> np.ndarray:
    """c * a_x^dagger a_y (even for every coefficient)."""
    rows, cols, signs = rep.hop(x, y)
    m = np.zeros((rep.dim, rep.dim), dtype=complex)
    m[rows, cols] = c * signs
    return m


def time_reversal(rep: FockRep, a: np.ndarray) -> np.ndarray:
    """Antilinear morphism with T(a_x) = a_x: conjugation in the occupation basis."""
    return a.conj()
