"""The result records: what `import modwron` loads for them, and the
behaviour every record type shares."""

import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from modwron.cli import VerificationReport
from modwron.modpoly import DivisorData
from modwron.partitions import ColorSpec, RecurrenceReport
from modwron.poly import Poly
from modwron.ssing import CongruenceReport, SupersingularReport
from modwron.symmpow import SymWronskianReport
from modwron.wronskian import VanishingReport

SUBMODULES = ("qseries", "poly", "etaprod", "modpoly", "wronskian", "symmpow",
              "ssing", "partitions", "cli")
# dataclasses and what it pulls in; modwron's records need none of them
NOT_LOADED = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_import_loads_every_submodule_and_no_dataclasses_machinery():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = ("import sys; before = set(sys.modules); import modwron; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert added.isdisjoint(NOT_LOADED), sorted(added & set(NOT_LOADED))
    assert {"modwron." + name for name in SUBMODULES} <= added


# one instance of each record type, with a field to change and its new value
RECORDS = [
    (VerificationReport("chprod", "pass", F(100), None, 0.25),
     "detail", "capped"),
    (DivisorData(12, 1, 0, 0, Poly((F(1),)), Poly((F(0), F(1)))), "t", 2),
    (ColorSpec(5, (11, 1, 1, 11, 0)), "counts", (6, 6, 6, 6, 0)),
    (RecurrenceReport(50, (), ((9, 1, 2),), False), "ok", True),
    (CongruenceReport(7, 6, 6, True, 50, True), "constant", 1),
    (SupersingularReport(13, Poly((F(8), F(1)), 13), (5,), (), True, True,
                         (1, 0)), "oracle_match", False),
    (SymWronskianReport(2, 2, 3, 12, F(40)), "eta_power", None),
    (VanishingReport(True, 1, (0, 1), (F(1), F(-3)), F(2), F(30), "forced",
                     None), "checked", 4),
]


@pytest.mark.parametrize("rec, field, value", RECORDS,
                         ids=[type(r).__name__ for r, _, _ in RECORDS])
def test_record_behaviour(rec, field, value):
    with pytest.raises(AttributeError):
        setattr(rec, field, value)
    rebuilt = type(rec)(**{f: getattr(rec, f) for f in rec._fields})
    assert rebuilt == rec and hash(rebuilt) == hash(rec)
    assert repr(rec) == "%s(%s)" % (type(rec).__name__, ", ".join(
        "%s=%r" % (f, getattr(rec, f)) for f in rec._fields))
    changed = rec._replace(**{field: value})
    assert type(changed) is type(rec) and getattr(changed, field) == value
    assert all(getattr(changed, f) == getattr(rec, f)
               for f in rec._fields if f != field)

