"""The traced benchmark (perfbench/tracer.py) wraps fermicond functions by
name and counts their calls.  A renamed target, or a kernel that stops going
through the bond observables, must fail here and not only in a traced run.
The tracer module is parsed, not imported or installed.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

from fermicond import transport
from fermicond.model import FlatPulse, InterparticleInteraction, rescale
from fermicond.transport import TransportKernel

from conftest import make_system

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_targets():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_tracer_targets_resolve():
    targets = _tracer_targets()
    assert targets
    for modname, attr, _ in targets:
        module = importlib.import_module(modname)
        owner_name, _, member = attr.rpartition(".")
        if owner_name:  # the tracer patches the class's own attribute
            assert member in vars(getattr(module, owner_name)), f"{modname}.{attr}"
        else:
            assert callable(getattr(module, member, None)), f"{modname}.{attr}"


def test_kernel_builds_through_bond_observables(monkeypatch):
    traced = {"current_obs", "paramagnetic_partner_obs"}
    assert traced <= {attr for mod, attr, _ in _tracer_targets()
                      if mod == "fermicond.transport"}
    sys = make_system(4, "iid-uniform", seed=3, theta=0.5)
    calls = dict.fromkeys(traced, 0)
    for name in traced:
        def counted(*args, _fn=getattr(transport, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(transport, name, counted)
    kernel = TransportKernel(sys["rep"], sys["box"], sys["omega"], sys["theta"], sys["state"])
    assert calls["current_obs"] > 0 and calls["paramagnetic_partner_obs"] > 0
    assert len(kernel.atom_nu) == len(sys["kernel"].atom_nu)


def test_driven_path_builds_only_what_it_reports(monkeypatch):
    # drive pins model.w and transport.obs calls; the driven path reads J_p
    # only, so it builds no diamagnetic observable
    names = ("build_w", "current_obs", "diamagnetic_obs")
    sys = make_system(4, "iid-uniform", seed=9)
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(transport, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(transport, name, counted)
    a = rescale(FlatPulse(1, [1.0], 0.0, 1.0, halfwidth=1.0), 4.0, 0.05)
    tr = transport.driven_currents(sys["rep"], sys["box"], sys["omega"], 0.0, 0.0,
                                   InterparticleInteraction("none"), sys["state"],
                                   a, np.linspace(0.0, 1.2, 7), 0.05)
    assert tr.j_p.shape == (7, 1)
    assert calls["build_w"] > 0 and calls["current_obs"] > 0
    assert calls["diamagnetic_obs"] == 0


def test_driven_path_steps_only_inside_the_pulse(monkeypatch):
    # drive pins equilibrium.step and model.w calls: CF4 steps are taken only
    # in the gaps that start before t1, and W_t is still built once per
    # generator evaluation there
    from fermicond import equilibrium
    sys = make_system(4, "iid-uniform", seed=9)
    calls = {"step_unitary": 0, "build_w": 0}

    def counted(mod, name):
        def wrapped(*args, _fn=getattr(mod, name)):
            calls[name] += 1
            return _fn(*args)
        monkeypatch.setattr(mod, name, wrapped)

    counted(equilibrium, "step_unitary")
    counted(transport, "build_w")
    a = rescale(FlatPulse(1, [1.0], 0.0, 1.0, halfwidth=1.0), 4.0, 0.05)
    times, dt = np.linspace(0.0, 1.6, 9), 0.07  # gaps of 0.2: 3 steps each
    transport.driven_currents(sys["rep"], sys["box"], sys["omega"], 0.0, 0.0,
                              InterparticleInteraction("none"), sys["state"],
                              a, times, dt)
    inside = sum(int(np.ceil((tb - ta) / dt - 1e-12))
                 for ta, tb in zip(times[:-1], times[1:]) if ta < a.t1)
    assert inside == 15 and calls["step_unitary"] == inside
    assert calls["build_w"] == 2 * inside
