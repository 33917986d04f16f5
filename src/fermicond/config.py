"""Experiment configuration: a JSON-compatible key-value tree with strict
validation and a canonical hash (stable under key reordering)."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .fock import DEFAULT_SITE_CAP
from .lattice import DISORDER_KINDS, Box, LatticeSpec
from .model import DecayFunction, FlatPulse, InterparticleInteraction, box_extent

FIELD_SHAPES = ("flat-sin2", "flat-gauss")


class ConfigError(Exception):
    """Invalid configuration; .errors lists field-level messages."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid config:\n" + "\n".join(f"  - {e}" for e in self.errors))


def _is_a(v, kinds=(int, float)) -> bool:
    """v is of kinds (a real number by default) as JSON or the command line
    gives it; a bool is not an int here, and a float such as 4.5 not an int."""
    return isinstance(v, kinds) and not isinstance(v, bool)


@dataclass
class ModelBlock:
    d: int = 1
    l: int | None = None          # symmetric box radius (Lambda_l) ...
    sites: int | None = 6         # ... or an explicit chain/rect site count
    shape: list | None = None     # explicit rectangular shape, d >= 2
    theta: float = 0.0
    lam: float = 0.0
    beta: float = 1.0
    interaction: str = "none"     # none | hubbard | density-density
    U: float = 0.0
    range_: int = 1
    decay_form: str = "polynomial"
    decay_epsilon: float = 3.0
    decay_sigma: float = 1.0

    def box(self) -> Box:
        if self.l is not None:
            return Box.cube(LatticeSpec(self.d, self.l))
        if self.shape is not None:
            return Box.rect(self.shape)
        if self.d == 1:
            return Box.chain(self.sites)
        raise ConfigError([f"model: d={self.d} needs 'l' or 'shape'"])

    def ip(self) -> InterparticleInteraction:
        if self.interaction == "none":
            return InterparticleInteraction("none")
        if self.interaction == "hubbard":
            return InterparticleInteraction("hubbard", U=self.U)
        u, rng = self.U, self.range_
        return InterparticleInteraction(
            "density-density", U=u, v=lambda r: u if 1 <= r <= rng else 0.0, range_=rng)

    def decay(self) -> DecayFunction:
        return DecayFunction(self.d, self.decay_form, self.decay_epsilon, self.decay_sigma)


@dataclass
class FieldBlock:
    shape: str = "flat-sin2"
    t0: float = 0.0
    t1: float = 1.0
    etas: list = field(default_factory=lambda: [0.02, 0.04, 0.08])
    w: list = field(default_factory=lambda: [1.0])
    halfwidth: float = 1.0
    scale: float = 1.0            # spatial rescale factor l in A_l(t,x) = A(t, x/l)

    def base_potential(self, d: int) -> FlatPulse:
        """The unit-strength pulse at scale 1; the experiments rescale it."""
        envelope = "sin2" if self.shape == "flat-sin2" else "gauss"
        return FlatPulse(d, np.asarray(self.w, dtype=float), self.t0, self.t1,
                         self.halfwidth, envelope)


@dataclass
class DisorderBlock:
    kind: str = "deterministic-zero"
    seed: int = 20240901
    n_samples: int = 8


@dataclass
class RunBlock:
    t_max: float = 10.0
    n_times: int = 201
    dt: float = 0.02
    out_dir: str = "out"
    cache_dir: str | None = None
    workers: int = 1

    def times(self) -> np.ndarray:
        return np.linspace(-self.t_max, self.t_max, self.n_times)


@dataclass
class ExperimentConfig:
    model: ModelBlock = field(default_factory=ModelBlock)
    field_: FieldBlock = field(default_factory=FieldBlock)
    disorder: DisorderBlock = field(default_factory=DisorderBlock)
    run: RunBlock = field(default_factory=RunBlock)

    # -- (de)serialization ----------------------------------------------

    _KEYMAP = {"field_": "field", "lam": "lambda", "range_": "range"}

    def to_dict(self) -> dict:
        def fix(d):
            return {self._KEYMAP.get(k, k): v for k, v in d.items()}
        raw = asdict(self)
        return {self._KEYMAP.get(k, k): fix(v) for k, v in raw.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        inv = {v: k for k, v in cls._KEYMAP.items()}
        errors = []
        blocks = {}
        factories = {"model": ModelBlock, "field": FieldBlock,
                     "disorder": DisorderBlock, "run": RunBlock}
        for name, factory in factories.items():
            sub = data.get(name, {})
            if not isinstance(sub, dict):
                errors.append(f"{name}: expected an object")
                sub = {}
            kwargs = {}
            valid = factory().__dict__.keys()
            for k, v in sub.items():
                attr = inv.get(k, k)
                if attr not in valid:
                    errors.append(f"{name}.{k}: unknown key")
                else:
                    kwargs[attr] = v
            try:
                blocks[inv.get(name, name)] = factory(**kwargs)
            except TypeError as exc:
                errors.append(f"{name}: {exc}")
                blocks[inv.get(name, name)] = factory()
        unknown = set(data) - set(factories)
        errors.extend(f"{k}: unknown block" for k in sorted(unknown))
        cfg = cls(**blocks)
        errors.extend(cfg.validate())
        if errors:
            raise ConfigError(errors)
        return cfg

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError([f"not valid JSON: {exc}"])
        return cls.from_dict(data)

    def validate(self) -> list[str]:
        m, f, dis, r = self.model, self.field_, self.disorder, self.run
        # counts, sizes and seeds: every check and the run below compare and
        # count with them, so a wrong type is reported alone
        counts = {"model.d": m.d, "model.l": m.l, "model.sites": m.sites,
                  "model.range": m.range_, "disorder.seed": dis.seed,
                  "disorder.n_samples": dis.n_samples, "run.n_times": r.n_times,
                  "run.workers": r.workers}
        e = [f"{key}: must be an integer" for key, v in counts.items()
             if v is not None and not _is_a(v, int)]
        if m.shape is not None and not (isinstance(m.shape, list) and len(m.shape) == m.d
                                        and all(_is_a(n, int) and n >= 1 for n in m.shape)):
            e.append(f"model.shape: must list {m.d} integers >= 1")
        # real-valued parameters and lists of them, likewise: ints or floats (a
        # nan beta passed every check below and gave an all-zero measure)
        reals = {"model.theta": m.theta, "model.lambda": m.lam, "model.beta": m.beta,
                 "model.U": m.U, "model.decay_epsilon": m.decay_epsilon,
                 "model.decay_sigma": m.decay_sigma, "field.t0": f.t0, "field.t1": f.t1,
                 "field.halfwidth": f.halfwidth, "field.scale": f.scale,
                 "run.t_max": r.t_max, "run.dt": r.dt}
        e += [f"{key}: must be a finite number" for key, v in reals.items()
              if not (_is_a(v) and math.isfinite(v))]
        e += [f"{key}: must be a list of numbers" for key, v in
              (("field.etas", f.etas), ("field.w", f.w))
              if not (isinstance(v, list) and all(_is_a(x) for x in v))]
        if e:
            return e
        if m.d < 1:
            e.append("model.d: must be >= 1")
        if m.l is not None and m.l < 0:
            e.append("model.l: must be >= 0")
        if m.l is None and m.shape is None and (m.sites is None or m.sites < 1):
            e.append("model.sites: must be >= 1")
        if m.theta < 0:
            e.append("model.theta: must be >= 0")
        if m.beta < 0:
            e.append("model.beta: must be >= 0 (0 is the trace-state fixture)")
        if m.interaction not in ("none", "hubbard", "density-density"):
            e.append(f"model.interaction: unknown kind {m.interaction!r}")
        if m.decay_form not in ("polynomial", "exponential"):
            e.append(f"model.decay_form: unknown form {m.decay_form!r}")
        if m.decay_epsilon <= 0:
            e.append("model.decay_epsilon: must be > 0")
        if m.decay_sigma <= 0:
            e.append("model.decay_sigma: must be > 0")
        if not e:  # the box is well defined only for a valid model block
            e.extend(self._box_errors())
        if f.shape not in FIELD_SHAPES:
            e.append(f"field.shape: unknown shape {f.shape!r}; choose from {FIELD_SHAPES}")
        if not f.t1 > f.t0:
            e.append("field.t1: must exceed field.t0")
        if len(f.w) != m.d:
            e.append(f"field.w: needs {m.d} components, got {len(f.w)}")
        elif not (np.all(np.isfinite(f.w)) and np.any(f.w)):
            e.append("field.w: must be finite and not all zero")
        if not f.etas:
            e.append("field.etas: must be non-empty")
        elif not all(eta > 0 for eta in f.etas):
            e.append("field.etas: must all be > 0")
        elif len(set(f.etas)) < max(2, len(f.etas)):
            e.append("field.etas: needs at least two values, all distinct")
        if not f.halfwidth > 0:
            e.append("field.halfwidth: must be > 0")
        if f.scale <= 0:
            e.append("field.scale: must be > 0")
        if dis.kind not in DISORDER_KINDS:
            e.append(f"disorder.kind: unknown kind {dis.kind!r}; choose from {DISORDER_KINDS}")
        if dis.seed < 0:
            e.append("disorder.seed: must be >= 0")
        if dis.n_samples < 1:
            e.append("disorder.n_samples: must be >= 1")
        if r.t_max <= 0:
            e.append("run.t_max: must be > 0")
        if r.n_times < 3:
            e.append("run.n_times: must be >= 3")
        if r.dt <= 0:
            e.append("run.dt: must be > 0")
        if r.workers < 1:
            e.append("run.workers: must be >= 1")
        return e

    def _box_errors(self) -> list[str]:
        """Site cap and interaction range, checked before any Fock space is
        allocated; the site count is taken without enumerating the box."""
        m = self.model
        if m.l is not None:
            key, n = "model.l", (2 * m.l + 1) ** m.d
        elif m.shape is not None:
            key, n = "model.shape", math.prod(m.shape)
        else:
            key, n = "model.sites", m.sites
        if n > DEFAULT_SITE_CAP:
            return [f"{key}: the box has {n} sites, above the cap of {DEFAULT_SITE_CAP}"]
        try:
            box = m.box()
        except ConfigError as exc:
            return exc.errors
        if m.interaction == "density-density" and m.range_ > box_extent(box):
            return [f"model.range: {m.range_} exceeds the box extent {box_extent(box)}"]
        return []

    def canonical(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def hash(self) -> str:
        """Hash of the physics content; execution details (worker count,
        output/cache locations) do not change results and are excluded."""
        data = self.to_dict()
        for key in ("workers", "out_dir", "cache_dir"):
            data["run"].pop(key, None)
        canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def model_hash(self) -> str:
        sub = {"model": self.to_dict()["model"]}
        return hashlib.sha256(json.dumps(sub, sort_keys=True).encode()).hexdigest()[:16]
