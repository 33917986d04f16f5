"""tools/output_parity.py is the byte-parity gate between two checkouts: its
seed parser and its record comparison, on synthetic records."""

import copy
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_parity.py"
_spec = importlib.util.spec_from_file_location("output_parity", TOOL)
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


@pytest.mark.parametrize("text, seeds", [
    ("7", [7]), ("0-3", [0, 1, 2, 3]), ("0-2,20240901", [0, 1, 2, 20240901]),
    ("5,1-2", [5, 1, 2]),
])
def test_parse_seeds(text, seeds):
    assert parity.parse_seeds(text) == seeds


def _record():
    call = {"exit_code": 0, "error": None, "gate_failures": [],
            "files": {"ohm.csv": "a" * 64, "ohm_report.csv": "b" * 64}}
    failing = {"exit_code": 3, "error": None, "gate_failures": ["Ohm remainder order"],
               "files": {"ohm.csv": "c" * 64}}
    return {"calls": {"drive/seed5/0-ohm": failing, "drive/seed5/1-joule": call}}


def test_identical_records_have_no_differences():
    assert parity.compare(_record(), _record()) == []


def test_each_kind_of_difference_is_listed():
    old = _record()
    new = copy.deepcopy(old)
    joule = new["calls"]["drive/seed5/1-joule"]
    joule["files"]["ohm.csv"] = "d" * 64             # changed sha256
    del joule["files"]["ohm_report.csv"]             # a file on one side only
    joule["exit_code"] = 3                           # changed exit code
    joule["gate_failures"] = ["energy balance"]      # a gate failing on one side
    new["calls"]["sweep/seed5/0-transport"] = joule  # a call on one side only
    lines = parity.compare(old, new)
    assert lines == [
        "drive/seed5/1-joule: exit 0 -> 3",
        "drive/seed5/1-joule: ohm.csv differs",
        "drive/seed5/1-joule: ohm_report.csv differs",
        "drive/seed5/1-joule: gate fails only in new: energy balance",
        "sweep/seed5/0-transport: only in new",
    ]
    # the same failing gate on both sides is no difference; a crash is
    old["calls"]["drive/seed5/0-ohm"]["error"] = "Traceback ..."
    assert parity.compare(old, _record()) == ["drive/seed5/0-ohm: exit 3 -> 3"]
    assert parity.compare(_record(), old) == ["drive/seed5/0-ohm: exit 3 -> 3 (crash)"]
