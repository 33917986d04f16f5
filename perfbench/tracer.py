"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the fermicond modules from outside the
package.  A function imported by name into another module (``from .model
import build_hamiltonian``) is a second binding of the same object, so every
fermicond module attribute that *is* the original function is replaced, not
only the one in the defining module.  A listed name that no longer exists
raises ``MissingTarget``: a renamed function must not drop out of the
per-layer numbers unnoticed.

Spans (name, start, end, parent, call id) are kept in memory; a layer's self
time is its span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# (defining module, attribute path, span name)
TARGETS = (
    ("fermicond.fock", "opnorm_mat", "fock.opnorm"),
    ("fermicond.fock", "anticommutator", "fock.anticommutator"),
    ("fermicond.model", "build_hamiltonian", "model.hamiltonian"),
    ("fermicond.model", "build_w", "model.w"),
    ("fermicond.equilibrium", "SpectralData.from_hamiltonian", "equilibrium.spectral"),
    ("fermicond.equilibrium", "step_unitary", "equilibrium.step"),
    ("fermicond.equilibrium", "lieb_robinson_check", "equilibrium.lieb_robinson"),
    ("fermicond.equilibrium", "work_functional", "equilibrium.work"),
    ("fermicond.equilibrium", "GibbsState.kms_defect", "equilibrium.kms"),
    ("fermicond.transport", "TransportKernel.__init__", "transport.kernel"),
    ("fermicond.transport", "current_obs", "transport.obs"),
    ("fermicond.transport", "paramagnetic_partner_obs", "transport.obs"),
    ("fermicond.transport", "diamagnetic_obs", "transport.obs"),
    ("fermicond.transport", "driven_currents", "transport.driven"),
    ("fermicond.transport", "ohm_linear", "transport.ohm_linear"),
    ("fermicond.transport", "TransportKernel.xi_p", "transport.xi"),
    ("fermicond.transport", "TransportKernel.xi_plus", "transport.xi"),
    ("fermicond.transport", "TransportKernel.xi_minus", "transport.xi"),
    ("fermicond.measure", "extract_measure", "measure.extract"),
    ("fermicond.measure", "levy_khintchine", "measure.lk"),
    ("fermicond.measure", "cesaro_mean", "measure.cesaro"),
    ("fermicond.joule", "energy_increments", "joule.increments"),
    ("fermicond.joule", "joule_integrand_x", "joule.integrand"),
    ("fermicond.levy", "sample_paths", "levy.sample"),
    ("fermicond.levy", "validate_char", "levy.validate"),
    ("fermicond.cache", "SpectralCache.get", "cache.get"),
    ("fermicond.cache", "SpectralCache.put", "cache.put"),
    ("fermicond.experiments", "build_system", "experiments.build_system"),
)

# Root span of one `fermicond run` call; its self time is orchestration plus
# CSV and manifest writes.
ROOT = "experiments"


def _count_atoms(result, args):
    return {"transport.atoms": len(args[0].atom_nu)}


def _count_jumps(result, args):
    return {"levy.jumps": int(result.jump_counts.sum())}


def _count_lookup(result, args):
    return {"cache.hits" if result is not None else "cache.misses": 1}


# span name -> hook(result, args) returning counts recorded on the span
COUNTERS = {"transport.kernel": _count_atoms, "levy.sample": _count_jumps,
            "cache.get": _count_lookup}

# per-layer metric -> (unit, how it is derived); "self"/"calls" read the span
# of that name, "count" a counter recorded on spans
PER_LAYER = {
    "fock.opnorm_s": ("s", "self", "fock.opnorm"),
    "fock.opnorm_calls": ("count", "calls", "fock.opnorm"),
    "fock.anticommutator_s": ("s", "self", "fock.anticommutator"),
    "model.hamiltonian_s": ("s", "self", "model.hamiltonian"),
    "model.hamiltonian_calls": ("count", "calls", "model.hamiltonian"),
    "model.w_s": ("s", "self", "model.w"),
    "model.w_calls": ("count", "calls", "model.w"),
    "equilibrium.spectral_s": ("s", "self", "equilibrium.spectral"),
    "equilibrium.spectral_calls": ("count", "calls", "equilibrium.spectral"),
    "equilibrium.step_s": ("s", "self", "equilibrium.step"),
    "equilibrium.step_calls": ("count", "calls", "equilibrium.step"),
    "equilibrium.lieb_robinson_s": ("s", "self", "equilibrium.lieb_robinson"),
    "equilibrium.work_s": ("s", "self", "equilibrium.work"),
    "equilibrium.kms_s": ("s", "self", "equilibrium.kms"),
    "transport.kernel_s": ("s", "self", "transport.kernel"),
    "transport.kernel_calls": ("count", "calls", "transport.kernel"),
    "transport.atoms": ("count", "count", "transport.atoms"),
    "transport.obs_s": ("s", "self", "transport.obs"),
    "transport.obs_calls": ("count", "calls", "transport.obs"),
    "transport.driven_s": ("s", "self", "transport.driven"),
    "transport.ohm_linear_s": ("s", "self", "transport.ohm_linear"),
    "transport.xi_s": ("s", "self", "transport.xi"),
    "measure.extract_s": ("s", "self", "measure.extract"),
    "measure.lk_s": ("s", "self", "measure.lk"),
    "measure.cesaro_s": ("s", "self", "measure.cesaro"),
    "joule.increments_s": ("s", "self", "joule.increments"),
    "joule.integrand_s": ("s", "self", "joule.integrand"),
    "levy.sample_s": ("s", "self", "levy.sample"),
    "levy.jumps": ("count", "count", "levy.jumps"),
    "levy.validate_s": ("s", "self", "levy.validate"),
    "cache.get_s": ("s", "self", "cache.get"),
    "cache.put_s": ("s", "self", "cache.put"),
    "cache.hits": ("count", "count", "cache.hits"),
    "cache.misses": ("count", "count", "cache.misses"),
    "cache.useful_hit_ratio": ("1", "useful_hit_ratio", None),
    "experiments.build_system_s": ("s", "self", "experiments.build_system"),
    "experiments.build_system_calls": ("count", "calls", "experiments.build_system"),
    "experiments.self_s": ("s", "self", ROOT),
    "experiments.bytes_written": ("B", "count", "experiments.bytes_written"),
}

# Self-test of the wrappers: call counts that must be non-zero (True) or zero
# (False) on a workload.  A wrapper that silently stops firing shows up here.
EXPECTED_CALLS = {
    "fock.opnorm_calls": {"study": True, "battery": True},
    "model.hamiltonian_calls": {"sweep": True, "drive": True, "study": True,
                                "battery": True},
    "model.w_calls": {"drive": True, "sweep": False, "study": False},
    "equilibrium.spectral_calls": {"sweep": True, "study": True},
    "equilibrium.step_calls": {"drive": True, "battery": True, "sweep": False,
                               "study": False},
    "transport.kernel_calls": {"sweep": True},
    "transport.obs_calls": {"sweep": True, "drive": True},
    "experiments.build_system_calls": {"sweep": True, "drive": True, "study": True,
                                       "battery": True},
}


class MissingTarget(Exception):
    pass


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or None, call id, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._call = None
        self.bindings: dict[str, list[str]] = {}

    # -- recording ----------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._call, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, sid):
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def call(self, call_id, fn, *args):
        """Run one experiment call as a root span."""
        self._call = call_id
        sid = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(sid)

    def _wrap(self, name, fn):
        hook = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if hook is not None:
                self.spans[sid][5] = hook(result, args)
            return result
        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self):
        """Wrap every target at every binding site in the loaded fermicond modules."""
        for modname, attr, name in TARGETS:
            module = importlib.import_module(modname)
            owner_name, _, member = attr.rpartition(".")
            try:
                if owner_name:
                    owner = getattr(module, owner_name)
                    raw = owner.__dict__[member]
                else:
                    owner, raw = module, getattr(module, member)
            except (AttributeError, KeyError) as exc:
                raise MissingTarget(f"{modname}.{attr} not found") from exc
            if isinstance(raw, classmethod):
                setattr(owner, member, classmethod(self._wrap(name, raw.__func__)))
                self.bindings[f"{modname}.{attr}"] = [f"{modname}.{attr}"]
            elif owner_name:
                setattr(owner, member, self._wrap(name, raw))
                self.bindings[f"{modname}.{attr}"] = [f"{modname}.{attr}"]
            else:
                wrapper = self._wrap(name, raw)
                sites = []
                for other_name, other in list(sys.modules.items()):
                    if other_name.split(".")[0] != "fermicond" or other is None:
                        continue
                    for key, value in list(vars(other).items()):
                        if value is raw:
                            setattr(other, key, wrapper)
                            sites.append(f"{other_name}.{key}")
                self.bindings[f"{modname}.{attr}"] = sites

    # -- reduction ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        child = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s, calls, counts = defaultdict(float), Counter(), Counter()
        for sid, (name, start, end, _, _, extra) in enumerate(self.spans):
            self_s[name] += end - start - child[sid]
            calls[name] += 1
            counts.update(extra or {})
        out = {}
        for metric, (_, kind, source) in PER_LAYER.items():
            if kind == "self":
                out[metric] = self_s[source]
            elif kind == "calls":
                out[metric] = calls[source]
            elif kind == "count":
                out[metric] = counts[source]
            else:
                out[metric] = self._useful_hit_ratio()
        return out

    def _useful_hit_ratio(self) -> float:
        """Hits whose build_system span ran no eigendecomposition, over lookups."""
        spectral_under = Counter(parent for name, _, _, parent, _, _ in self.spans
                                 if name == "equilibrium.spectral")
        lookups = useful = 0
        for name, _, _, parent, _, extra in self.spans:
            if name != "cache.get":
                continue
            lookups += 1
            if "cache.hits" in (extra or {}) and not spectral_under[parent]:
                useful += 1
        return useful / lookups if lookups else 0.0

    def dump(self) -> list[dict]:
        return [{"id": sid, "name": name, "start": start, "end": end, "parent": parent,
                 "call": call, **({"counts": extra} if extra else {})}
                for sid, (name, start, end, parent, call, extra) in enumerate(self.spans)]


def self_test(workload: str, metrics: dict) -> list[str]:
    """Violations of EXPECTED_CALLS on this workload's traced metrics."""
    bad = []
    for metric, expect in EXPECTED_CALLS.items():
        if workload in expect and (metrics[metric] > 0) != expect[workload]:
            want = "> 0" if expect[workload] else "== 0"
            bad.append(f"{metric} = {metrics[metric]} on {workload}, expected {want}")
    return bad
