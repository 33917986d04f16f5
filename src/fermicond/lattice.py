"""Lattice geometry and disorder realizations.

Sites live on Z^d.  A box is a finite rectangular set of sites together with
the nearest-neighbor bonds having both endpoints inside it.  Disorder is a
pair (omega1, omega2): site potentials in [-1, 1] and bond hoppings in the
closed complex unit disc.

Reproducibility: each distribution owns a 64-bit seed.  A Philox stream keyed
by that seed draws site values first (lexicographic site order, one uniform
each) and bond values second (lexicographic bond order; two uniforms per bond
for the disc kind, one for the real kind).  Parallel realizations derive
per-sample seeds with `DisorderDistribution.derived(i)`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product

import numpy as np

Site = tuple[int, ...]
Bond = tuple[Site, Site]

DISORDER_KINDS = ("iid-uniform", "deterministic-zero", "iid-real-hopping")


class DomainExceededError(Exception):
    """Requested sites/bonds fall outside the stored disorder domain."""


def as_site(coords) -> Site:
    """Tuple of plain ints (keeps sites hashable and JSON-friendly)."""
    return tuple(int(c) for c in coords)


def shift(x: Site, v) -> Site:
    """x + v component-wise."""
    return tuple(int(a) + int(b) for a, b in zip(x, v))


def canonical_bond(x: Site, y: Site) -> Bond:
    """Unordered bond as a lexicographically sorted pair."""
    return (x, y) if x <= y else (y, x)


@dataclass(frozen=True)
class LatticeSpec:
    """Symmetric box Lambda_l = {x : |x_i| <= l} of Z^d."""

    d: int
    l: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.l < 0:
            raise ValueError(f"box radius must be >= 0, got {self.l}")

    @property
    def n_sites(self) -> int:
        return (2 * self.l + 1) ** self.d


class Box:
    """Finite set of lattice sites with its internal nearest-neighbor bonds.

    Sites are kept in lexicographic order; each unordered bond appears
    exactly once, in canonical (sorted-pair) form.
    """

    def __init__(self, dim: int, sites):
        self.dim = dim
        self.sites: tuple[Site, ...] = tuple(sorted(as_site(s) for s in sites))
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("duplicate sites")
        self.index = {s: i for i, s in enumerate(self.sites)}
        bonds = []
        unit = np.eye(dim, dtype=int)
        for s in self.sites:
            for j in range(dim):
                nb = shift(s, unit[j])
                if nb in self.index:
                    bonds.append(canonical_bond(s, nb))
        self.bonds: tuple[Bond, ...] = tuple(sorted(bonds))
        self._bondset = set(self.bonds)

    @classmethod
    def cube(cls, spec: LatticeSpec) -> "Box":
        return cls.rect((2 * spec.l + 1,) * spec.d)

    @classmethod
    def chain(cls, n: int) -> "Box":
        """1d chain of n sites, centered at the origin."""
        return cls.rect((n,))

    @classmethod
    def rect(cls, shape) -> "Box":
        """Rectangular box with shape[i] sites along axis i, centered."""
        ranges = []
        for n in shape:
            lo = -((n - 1) // 2)
            ranges.append(range(lo, lo + n))
        return cls(len(shape), product(*ranges))

    def __len__(self) -> int:
        return len(self.sites)

    def __contains__(self, site: Site) -> bool:
        return site in self.index

    def has_bond(self, x: Site, y: Site) -> bool:
        return canonical_bond(x, y) in self._bondset

    def translated(self, x: Site) -> "Box":
        return Box(self.dim, (shift(s, x) for s in self.sites))


@dataclass
class DisorderSample:
    """One realization: site values in [-1,1], bond values in the unit disc."""

    box: Box
    omega1: dict = field(default_factory=dict)
    omega2: dict = field(default_factory=dict)

    def __post_init__(self):
        for s in self.box.sites:
            self.omega1.setdefault(s, 0.0)
        for b in self.box.bonds:
            self.omega2.setdefault(b, 0j)

    def check(self, tol: float = 1e-12) -> None:
        for s, v in self.omega1.items():
            if abs(v) > 1 + tol:
                raise ValueError(f"omega1({s}) = {v} outside [-1, 1]")
        for b, z in self.omega2.items():
            if abs(z) > 1 + tol:
                raise ValueError(f"|omega2({b})| = {abs(z)} > 1")

    def site(self, x: Site) -> float:
        try:
            return self.omega1[x]
        except KeyError:
            raise DomainExceededError(f"site {x} not in disorder domain")

    def bond(self, x: Site, y: Site):
        b = canonical_bond(x, y)
        try:
            return self.omega2[b]
        except KeyError:
            raise DomainExceededError(f"bond {b} not in disorder domain")

    def translate(self, x: Site) -> "DisorderSample":
        """(chi_x omega)_1(y) = omega_1(y + x); domain moves to box - x.

        The result is a faithful copy on the shifted box; restricting a
        translated sample back to a fixed box raises DomainExceededError
        when the shift leaves the stored domain (no silent wrap-around).
        """
        neg = tuple(-int(c) for c in x)
        new_box = Box(self.box.dim, (shift(s, neg) for s in self.box.sites))
        o1 = {s: self.omega1[shift(s, x)] for s in new_box.sites}
        o2 = {}
        for (a, b) in new_box.bonds:
            src = canonical_bond(shift(a, x), shift(b, x))
            o2[(a, b)] = self.omega2[src]
        return DisorderSample(new_box, o1, o2)

    def restrict(self, box: Box) -> "DisorderSample":
        for s in box.sites:
            if s not in self.box.index:
                raise DomainExceededError(f"site {s} outside stored domain")
        o1 = {s: self.omega1[s] for s in box.sites}
        o2 = {b: self.omega2[b] for b in box.bonds}
        return DisorderSample(box, o1, o2)

    def conjugate(self) -> "DisorderSample":
        """omega-bar = (omega1, conj(omega2)), the time-reversal partner."""
        o2 = {b: np.conj(z) for b, z in self.omega2.items()}
        return DisorderSample(self.box, dict(self.omega1), o2)

    def is_real(self, tol: float = 0.0) -> bool:
        return all(abs(z.imag) <= tol for z in self.omega2.values())

    def to_json(self) -> str:
        payload = {
            "sites": [[list(s), self.omega1[s]] for s in self.box.sites],
            "bonds": [
                [[list(b[0]), list(b[1])], [self.omega2[b].real, self.omega2[b].imag]]
                for b in self.box.bonds
            ],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "DisorderSample":
        payload = json.loads(text)
        sites = [tuple(s) for s, _ in payload["sites"]]
        dim = len(sites[0])
        box = Box(dim, sites)
        o1 = {tuple(s): float(v) for s, v in payload["sites"]}
        o2 = {
            canonical_bond(tuple(a), tuple(b)): complex(re, im)
            for (a, b), (re, im) in payload["bonds"]
        }
        return cls(box, o1, o2)


@dataclass(frozen=True)
class DisorderDistribution:
    """Seedable product law over (omega1, omega2); see module docstring."""

    kind: str
    seed: int

    def __post_init__(self):
        if self.kind not in DISORDER_KINDS:
            raise ValueError(f"unknown disorder kind {self.kind!r}; choose from {DISORDER_KINDS}")

    def derived(self, index: int) -> "DisorderDistribution":
        """Disjoint stream for parallel realization #index."""
        child = np.random.SeedSequence([self.seed, int(index)]).generate_state(1)[0]
        return DisorderDistribution(self.kind, int(child))

    def sample(self, box: Box) -> DisorderSample:
        if self.kind == "deterministic-zero":
            return DisorderSample(box)
        rng = np.random.Generator(np.random.Philox(key=self.seed))
        o1 = {s: rng.uniform(-1.0, 1.0) for s in box.sites}
        o2 = {}
        for b in box.bonds:
            if self.kind == "iid-real-hopping":
                o2[b] = complex(rng.uniform(-1.0, 1.0))
            else:
                # uniform on the closed unit disc (area measure)
                r = np.sqrt(rng.uniform(0.0, 1.0))
                phi = rng.uniform(0.0, 2 * np.pi)
                o2[b] = r * np.exp(1j * phi)
        return DisorderSample(box, o1, o2)


def bond_count(d: int, l: int) -> int:
    """d * 2l * (2l+1)^(d-1): internal bonds of Lambda_l, per axis."""
    return d * (2 * l) * (2 * l + 1) ** (d - 1)
