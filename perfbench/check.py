"""Output checker of the fermicond benchmark.

Byte hashes of the CSVs are not pinned: later changes may reorder sums and
move the last bits.  A call is checked instead by
  * its exit code (0, or 3 together with a non-empty `gate_failures`),
  * its manifest: every listed file exists with the recorded sha256 and size,
  * a few headline numbers against references recorded per seed, within the
    acceptance tolerances,
  * gate values re-read from the outputs, which must agree with the gate
    verdicts the program reports.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

# Report CSVs currently write numpy-2 reprs such as `np.float64(1.91)`.
_NUMBER = re.compile(r"^\s*(?:np\.float64\()?\s*([^()\s]+)\s*\)?\s*$")

# headline -> (relative, absolute) tolerance against the recorded reference
TOLERANCES = {
    "transport.xi_p_final": (1e-9, 1e-10),
    "ohm.j_lin_final": (1e-9, 1e-12),
    "joule.S_final": (1e-6, 1e-14),
    "measure.total_mass": (1e-9, 1e-12),
    "levy.pass_fraction": (0.0, 0.01),
    "invariants.passed": (0.0, 0.0),
}


def number(text: str) -> float:
    """Parse `1.91` or `np.float64(1.91)`."""
    m = _NUMBER.match(text)
    if not m:
        raise ValueError(f"not a number: {text!r}")
    return float(m.group(1))


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return [r for r in csv.reader(fh) if r and not r[0].startswith("#")]


def _report(path: Path) -> dict:
    return {r[0]: number(r[1]) for r in _rows(path)[1:]}


# -- per-experiment readers: (headlines, gates) ------------------------------
# A gate is {name: (value, pass condition, passed, failure-message prefix)}.

def _transport(out: Path):
    rows = [r for r in _rows(out / "transport_mean.csv")[1:] if r[0] != "xi_d"]
    return {"transport.xi_p_final": [float(v) for v in rows[-1][1:]]}, {}


def _ohm(out: Path):
    rows = _rows(out / "ohm.csv")
    header, last = rows[0], rows[-1]
    j_lin = [float(v) for h, v in zip(header, last) if h.startswith("J_lin[")]
    rep = _report(out / "ohm_report.csv")
    order, rich = rep["remainder_order"], rep["richardson_vs_convolution"]
    return ({"ohm.j_lin_final": j_lin},
            {"ohm.remainder_order": (order, ">= 1.9", order >= 1.9, "Ohm remainder order"),
             "ohm.richardson": (rich, "<= 1e-4", rich <= 1e-4, "Richardson vs convolution")})


def _joule(out: Path):
    s_final, worst_balance = {}, 0.0
    for path in sorted(out.glob("energy_eta*.csv")):
        eta = float(path.stem[len("energy_eta"):])
        rows = _rows(path)
        col = {name: rows[0].index(name) for name in ("S", "P", "Ip", "Id")}
        vals = [{k: float(r[i]) for k, i in col.items()} for r in rows[1:]]
        s_final[eta] = vals[-1]["S"]
        scale = max(max(abs(v["Ip"]) for v in vals), max(abs(v["S"]) for v in vals), 1e-30)
        defect = max(abs(v["S"] + v["P"] - v["Ip"] - v["Id"]) for v in vals)
        worst_balance = max(worst_balance, defect / scale)
    etas = sorted(s_final)
    gates = {"joule.balance_defect": (worst_balance, "<= 1e-6 (relative)",
                                      worst_balance <= 1e-6, "energy balance defect")}
    if len(etas) >= 2 and all(s_final[e] > 0 for e in etas):
        # least-squares slope of log S against log eta, as the program fits it
        xs = [math.log(e) for e in etas]
        ys = [math.log(s_final[e]) for e in etas]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / \
            sum((x - mx) ** 2 for x in xs)
        gates["joule.s_eta_exponent"] = (slope, "|x - 2| <= 0.08", abs(slope - 2.0) <= 0.08,
                                         "S eta-scaling exponent")
    return {"joule.S_final": [s_final[e] for e in etas]}, gates


def _measure(out: Path):
    rows = _rows(out / "measure_full.csv")[1:]
    zero = [float(v) for v in rows[0][1:]]
    total = [z + 2.0 * sum(float(r[k + 1]) for r in rows[1:]) for k, z in enumerate(zero)]
    excess = max(number(r[1]) - number(r[2]) for r in _rows(out / "cesaro.csv")[1:])
    return ({"measure.total_mass": total},
            {"measure.cesaro_excess": (excess, "<= 1e-12", excess <= 1e-12,
                                       "Cesaro residual")})


def _lieb_robinson(out: Path):
    rows = _rows(out / "lieb_robinson.csv")[1:]
    excess = max((number(r[2]) - number(r[3]) for r in rows), default=-math.inf)
    return {}, {"lieb_robinson.lhs_minus_bound": (excess, "<= 1e-10", excess <= 1e-10,
                                                  "LR bound violated")}


def _green_kubo(out: Path):
    resid = [number(r[2]) for r in _rows(out / "green_kubo.csv")[1:]]
    falling = all(a > b for a, b in zip(resid, resid[1:]))
    return {}, {"green_kubo.residuals": (resid, "strictly decreasing in the box size",
                                         falling, "Green-Kubo residuals not decreasing")}


def _levy(out: Path):
    rows = _rows(out / "levy_char.csv")[1:]
    frac = sum(int(r[-1]) for r in rows) / len(rows)
    return ({"levy.pass_fraction": [frac]},
            {"levy.pass_fraction": (frac, ">= 0.99", frac >= 0.99,
                                    "characteristic function pass fraction")})


def _invariants(out: Path):
    rows = _rows(out / "invariants.csv")[1:]
    passed = {r[0]: int(r[1]) for r in rows}
    detail = {r[0]: r[2] for r in rows}
    lk = number(detail["levy-khintchine-round-trip"])
    return ({"invariants.passed": passed},
            {"invariants.lk_round_trip": (lk, "<= 1e-8", lk <= 1e-8,
                                          "levy-khintchine-round-trip")})


READERS = {"transport": _transport, "ohm": _ohm, "joule": _joule,
           "measure": _measure, "levy": _levy, "invariants": _invariants,
           "lieb-robinson": _lieb_robinson, "green-kubo": _green_kubo}


def _close(value, ref, rel, abs_) -> bool:
    if isinstance(ref, dict):
        return value == ref
    return len(value) == len(ref) and all(
        abs(v - r) <= abs_ + rel * abs(r) for v, r in zip(value, ref))


def check_call(call: dict, reference: dict | None) -> dict:
    """Verdict on one experiment call.

    `failed` is any failure of the call (exception, exit code, gate failure,
    output problem); `problems` lists what makes its output incorrect.
    """
    problems, gates, headlines, gate_failures = [], {}, {}, []
    out = Path(call["out"])
    if call["error"] is not None:
        problems.append(f"exception: {call['error'].strip().splitlines()[-1]}")
    elif call["exit_code"] not in (0, 3):
        problems.append(f"exit code {call['exit_code']}")
    else:
        try:
            manifest = json.loads((out / "manifest.json").read_text())
            gate_failures = manifest["gate_failures"]
            for f in manifest["files"]:
                data = (out / f["name"]).read_bytes()
                if hashlib.sha256(data).hexdigest() != f["sha256"] or len(data) != f["bytes"]:
                    problems.append(f"{f['name']}: does not match its manifest entry")
            if (call["exit_code"] == 3) != bool(gate_failures):
                problems.append(f"exit code {call['exit_code']} with gate failures "
                                f"{gate_failures}")
            reader = READERS.get(call["experiment"])
            if reader is not None:
                headlines, gates = reader(out)
        except (OSError, ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    for name, (value, threshold, passed, prefix) in gates.items():
        reported = any(g.startswith(prefix) for g in gate_failures)
        if reported == passed:
            problems.append(f"gate {name} = {value!r} (pass if {threshold}) but the "
                            f"program reports {'failure' if reported else 'pass'}")
    for name, value in headlines.items():
        ref = (reference or {}).get(name)
        if ref is not None and not _close(value, ref, *TOLERANCES[name]):
            problems.append(f"{name} = {value} differs from reference {ref}")
    return {"experiment": call["experiment"], "exit_code": call["exit_code"],
            "failed": bool(problems or gate_failures), "problems": problems,
            "gate_failures": gate_failures, "headlines": headlines,
            "gates": {k: {"value": v, "threshold": t, "passed": p}
                      for k, (v, t, p, _) in gates.items()}}
