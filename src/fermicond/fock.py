"""Dense matrix representation of the CAR algebra on N lattice sites.

The Fock space is (C^2)^{tensor N} with the occupation basis ordered so that
site_order[0] is the most significant bit.  Annihilators are built with the
usual fermionic string construction (Z x ... x Z x s- x 1 x ... x 1), which
makes every generator a real matrix; the antilinear time-reversal map that
fixes all a_x is then entry-wise complex conjugation in this basis.

Even operators are assembled from the occupation bits of the basis index
instead: a_x^* a_y is a signed partial permutation (FockRep.hop) and number
operators are diagonals.  The string matrices stay as the algebra's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
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


class ShapeMismatchError(ValueError):
    pass


def _combine_parity(p1: str, p2: str) -> str:
    if "mixed" in (p1, p2):
        return "mixed"
    return "even" if p1 == p2 else "odd"


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex matrix on the Fock space, tagged with fermionic parity."""

    mat: np.ndarray
    parity: str = "mixed"

    def __post_init__(self):
        object.__setattr__(self, "mat", np.asarray(self.mat, dtype=complex))
        if self.mat.ndim != 2 or self.mat.shape[0] != self.mat.shape[1]:
            raise ShapeMismatchError(f"expected square matrix, got {self.mat.shape}")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def _check(self, other: "OperatorMatrix"):
        if self.dim != other.dim:
            raise ShapeMismatchError(f"{self.dim} != {other.dim}")

    def __add__(self, other):
        self._check(other)
        par = self.parity if self.parity == other.parity else "mixed"
        return OperatorMatrix(self.mat + other.mat, par)

    def __sub__(self, other):
        self._check(other)
        par = self.parity if self.parity == other.parity else "mixed"
        return OperatorMatrix(self.mat - other.mat, par)

    def __neg__(self):
        return OperatorMatrix(-self.mat, self.parity)

    def __mul__(self, c):
        return OperatorMatrix(c * self.mat, self.parity)

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check(other)
        return OperatorMatrix(self.mat @ other.mat, _combine_parity(self.parity, other.parity))

    @property
    def H(self) -> "OperatorMatrix":
        return OperatorMatrix(self.mat.conj().T, self.parity)

    def is_selfadjoint(self, tol: float = 1e-12) -> bool:
        return opnorm_mat(self.mat - self.mat.conj().T) <= tol * max(1.0, opnorm_mat(self.mat))


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """[A, B], block by block over the number sectors when both conserve N."""
    if a.dim != b.dim:
        raise ShapeMismatchError(f"{a.dim} != {b.dim}")
    par = _combine_parity(a.parity, b.parity)
    grids = sector_blocks(a.mat)
    if grids is None or sector_blocks(b.mat) is None:
        return OperatorMatrix(a.mat @ b.mat - b.mat @ a.mat, par)
    out = np.zeros((a.dim, a.dim), dtype=complex)
    for ix in grids:
        ak, bk = a.mat[ix], b.mat[ix]
        out[ix] = ak @ bk - bk @ ak
    return OperatorMatrix(out, par)


def anticommutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    if a.dim != b.dim:
        raise ShapeMismatchError(f"{a.dim} != {b.dim}")
    return OperatorMatrix(a.mat @ b.mat + b.mat @ a.mat, _combine_parity(a.parity, b.parity))


def opnorm_mat(m: np.ndarray) -> float:
    """Spectral norm; trivial shapes short-circuited.  A matrix that is exactly
    zero off the number sectors has the largest of its block norms (exact)."""
    if m.size == 0:
        return 0.0
    grids = sector_blocks(m)
    if grids is None:
        return float(np.linalg.norm(m, 2))
    return max(float(np.linalg.norm(m[ix], 2)) for ix in grids)


def opnorm(a: OperatorMatrix) -> float:
    return opnorm_mat(a.mat)


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


def block_layout(groups) -> tuple[tuple, np.ndarray]:
    """np.ix_ grids of the diagonal blocks spanned by disjoint index groups and
    the read-only mask of the entries off those blocks."""
    dim = sum(len(idx) for idx in groups)
    grids = tuple(np.ix_(idx, idx) for idx in groups)
    off = np.ones((dim, dim), dtype=bool)
    for ix in grids:
        off[ix] = False
    off.flags.writeable = False  # shared by every caller through the caches
    return grids, off


@cache
def _sector_layout(dim: int) -> tuple[tuple, np.ndarray] | None:
    sectors = number_sectors(dim)
    return block_layout(sectors) if len(sectors) > 1 else None


def sector_blocks(m: np.ndarray) -> tuple | None:
    """np.ix_ grids of the particle-number sectors if m is exactly zero off
    them, else None (also for a dim that is not a power of 2, or one sector).

    H, W_t, bond observables, Gibbs data and their products are exactly zero
    off the sectors, so their eigenproblems, basis changes, norms and
    commutators split into independent blocks (the symmetry-block idiom of
    exact diagonalisation, cf. Weinberg & Bukov, SciPost Phys. 2, 003 (2017)).
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return None
    layout = _sector_layout(m.shape[0])
    if layout is None or m[layout[1]].any():
        return None
    return layout[0]


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
            ops.append(m.astype(complex))
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

    def annihilator(self, site) -> OperatorMatrix:
        return OperatorMatrix(self._annihilator_mats[self.mode(site)], "odd")

    def identity(self) -> OperatorMatrix:
        return OperatorMatrix(np.eye(self.dim), "even")

    def zero(self) -> OperatorMatrix:
        return OperatorMatrix(np.zeros((self.dim, self.dim), dtype=complex), "even")

    def number(self, site) -> OperatorMatrix:
        return OperatorMatrix(np.diag(self.occupied(site).astype(float)), "even")

    def total_number(self) -> OperatorMatrix:
        return OperatorMatrix(np.diag(np.bitwise_count(self._states).astype(float)), "even")

    def parity_operator(self) -> OperatorMatrix:
        """(-1)^N as a diagonal matrix."""
        return OperatorMatrix(np.diag(1.0 - 2.0 * (np.bitwise_count(self._states) & 1)),
                              "even")

    def parity_of(self, mat: np.ndarray, tol: float = 1e-12) -> str:
        """Classify a matrix as even/odd/mixed against (-1)^N."""
        p = self.parity_operator().mat
        scale = max(1.0, opnorm_mat(mat))
        comm = opnorm_mat(mat @ p - p @ mat)
        anti = opnorm_mat(mat @ p + p @ mat)
        if comm <= tol * scale:
            return "even"
        if anti <= tol * scale:
            return "odd"
        return "mixed"


def build_annihilators(rep: FockRep) -> list[OperatorMatrix]:
    return [rep.annihilator(s) for s in rep.site_order]


def bilinear(rep: FockRep, x, y, c: complex) -> OperatorMatrix:
    """c * a_x^dagger a_y (even for every coefficient)."""
    rows, cols, signs = rep.hop(x, y)
    m = np.zeros((rep.dim, rep.dim), dtype=complex)
    m[rows, cols] = c * signs
    return OperatorMatrix(m, "even")


def time_reversal(rep: FockRep, a: OperatorMatrix) -> OperatorMatrix:
    """Antilinear morphism with T(a_x) = a_x: conjugation in the occupation basis."""
    return OperatorMatrix(a.mat.conj(), a.parity)
