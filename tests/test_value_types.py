"""The contract every value type keeps: immutable fields, equality and
hashing by type and fields, a `Name(field=value, ...)` repr in field order,
and copies and pickles equal to the original."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import rinfinity
from rinfinity import braided, finite_groups, intlinalg, lodha_moore, numbers, plmaps, reidemeister
from rinfinity.braids import BraidWord
from rinfinity.treepairs import X0, X1, Tree, to_pl

_group = intlinalg.FGAbelianGroup.from_relator_columns(2, [(2, 0)])
_auto = intlinalg.AbelianAuto(_group, intlinalg.IntMatrix.of([[1, 0], [0, -1]]))
_witness = lodha_moore.Witness((0, 1), "(10)^w", 3)
_letter = lodha_moore.LMLetter("y", (0, 1), -1)

# Each sample with its fields in order.
SAMPLES = [
    (braided.from_treepair(X1), ("minus", "braid", "plus")),
    (BraidWord(3, (1, -2)), ("n", "letters")),
    (finite_groups.dihedral(3), ("name", "table")),
    (intlinalg.IntMatrix.of([[1, 2], [3, 4]]), ("rows",)),
    (intlinalg.smith_normal_form(intlinalg.IntMatrix.of([[2, 4], [6, 8]])), ("u", "s", "v")),
    (intlinalg.GroupStructure((2,), 1), ("torsion", "free_rank")),
    (_group, ("n", "relators")),
    (_auto, ("group", "matrix")),
    (intlinalg.fix_subgroup(_auto), ("structure", "generators")),
    (_letter, ("kind", "address", "sign")),
    (lodha_moore.LMWord((_letter, _letter.inverse()), "yGy"), ("letters", "variant")),
    (_witness, ("prefix", "tail", "position")),
    (lodha_moore.DepthVerdict(True, 4, _witness), ("distinct", "depth", "witness")),
    (
        lodha_moore.RelationCheck("r1", "s=0", "fail", "why"),
        ("relation", "instance", "status", "detail"),
    ),
    (numbers.ExactNumber(1, 2), ("a", "b")),
    (numbers.AdditiveGroup.z_inv(6), ("kind", "n")),
    (numbers.SlopeGroup.of(2, 3), ("generators",)),
    (to_pl(X0), ("ell", "breakpoints", "slopes")),
    (
        plmaps.PLGroupSpec(numbers.ONE, numbers.AdditiveGroup.z_inv(2), numbers.SlopeGroup.of(2)),
        ("ell", "singularities", "slopes"),
    ),
    (plmaps.MembershipReport(False, ("a", "b")), ("ok", "violations")),
    (reidemeister.CharacterData.of(a=(1, 0), b=(0, 1)), ("labels", "vectors")),
    (
        reidemeister.PipelineResult(True, "ok", (1, 1), (1, 1)),
        ("ok", "reason", "fixed_vector", "summed_character"),
    ),
    (X0, ("minus", "plus")),
    (X0.minus, ("children", "leaves", "carets")),
]

# These two show their values in their own notation.
OWN_REPR = (numbers.ExactNumber, Tree)


@pytest.mark.parametrize("value, fields", SAMPLES, ids=[type(v).__name__ for v, _ in SAMPLES])
def test_value_type_contract(value, fields):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value)
        assert clone == value and hash(clone) == hash(value)
    for other, _ in SAMPLES:
        if type(other) is not type(value):
            assert value != other and not value == other
    if not isinstance(value, OWN_REPR):
        values = [getattr(value, name) for name in fields]
        shown = ", ".join(f"{name}={v!r}" for name, v in zip(fields, values))
        assert repr(value) == f"{type(value).__name__}({shown})"
        assert type(value)(*values) == value == type(value)(**dict(zip(fields, values)))


def test_library_imports_without_dataclasses():
    # Generating a dataclass's methods, and importing dataclasses with
    # inspect behind it, cost more than any workload's own set-up; the value
    # types are plain slotted classes instead.  Checked in a fresh interpreter.
    src = str(Path(rinfinity.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import rinfinity.numbers, rinfinity.plmaps, rinfinity.treepairs, rinfinity.braids, "
        "rinfinity.braided, rinfinity.lodha_moore, rinfinity.intlinalg, rinfinity.finite_groups, "
        "rinfinity.reidemeister; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code, src],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.strip() == "[]"
