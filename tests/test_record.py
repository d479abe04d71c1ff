import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import gbsn
from gbsn.britton import NormalForm
from gbsn.classify import CoarseDensityReport, Evidence, QIVerdict
from gbsn.gog import Edge, GoGSpec, InvalidSpecError, Presentation
from gbsn.linalg import ProjInterval, QMat
from gbsn.matgroups import ScalarCertificate
from gbsn.record import replace
from gbsn.words import Word

from conftest import load_spec


def test_equality_is_type_strict():
    assert CoarseDensityReport("a", "b") != QIVerdict("a", "b")
    assert QIVerdict("a", ("b",)) != ("a", ("b",), ())
    assert NormalForm((1,), ()) != ((1,), ())
    assert ScalarCertificate() == ScalarCertificate()
    assert ScalarCertificate() != ()


def test_uncompared_fields_stay_out_of_equality_and_hash():
    a, b = Evidence("label", "detail", payload=1), Evidence("label", "detail", payload=[2])
    assert a == b and hash(a) == hash(b)
    assert a != Evidence("label", "other")
    assert Presentation(("a",), (), ((Word(), Word()),)) == Presentation(("a",), ())


def test_equal_records_hash_equal():
    a, b = load_spec("specB.gog"), load_spec("specB.gog")
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(NormalForm((1, 2), ())) == hash(NormalForm((1, 2), ()))


def test_a_record_hashes_its_fields_once(monkeypatch):
    calls = []
    qmat_hash = QMat.__hash__
    monkeypatch.setattr(QMat, "__hash__", lambda m: calls.append(m) or qmat_hash(m))
    edge = Edge("t", "X", "X", QMat([[1, 0], [0, 1]]), QMat([[2, 1], [0, 1]]))
    spec = GoGSpec.make(2, ["X"], [edge])
    first = hash(spec)
    assert len(calls) == 2
    assert hash(spec) == first and len(calls) == 2


def test_records_are_frozen():
    nf = NormalForm((1,), ())
    with pytest.raises(AttributeError):
        nf.head = (2,)
    with pytest.raises(AttributeError):
        nf.other = 1
    with pytest.raises(AttributeError):
        del nf.head
    assert nf.head == (1,)


def test_repr_keeps_the_dataclass_format():
    nf = NormalForm((1, -2), (("t", 1, (0, 3)),))
    assert repr(nf) == "NormalForm(head=(1, -2), tail=(('t', 1, (0, 3)),))"
    edge = Edge("t", "X", "Y", QMat([[1, 0], [0, 1]]), QMat([[2, 1], [0, 1]]))
    assert repr(edge) == (
        "Edge(name='t', src='X', dst='Y', alpha=QMat([[1, 0], [0, 1]]), "
        "omega=QMat([[2, 1], [0, 1]]))"
    )
    assert repr(ScalarCertificate()) == "ScalarCertificate()"


def test_construction_fills_defaults_and_refuses_bad_fields():
    assert QIVerdict("undetermined", ()).evidence == ()
    assert QIVerdict(reasons=(), verdict="v") == QIVerdict("v", (), ())
    assert Evidence("l", "d").payload is None
    for args, kwargs in [(("l",), {}), (("l", "d"), {"pay": 1}), (("l", "d", 1, 2), {}),
                         (("l", "d"), {"label": "x"})]:
        with pytest.raises(TypeError):
            Evidence(*args, **kwargs)


def test_post_init_hooks_run():
    with pytest.raises(InvalidSpecError):
        GoGSpec(1, ("X",), (), ("t",))
    interval = ProjInterval((-2, -4), (1, 0))
    assert interval.lo == (1, 2) and interval.hi == (1, 0)


def test_replace_builds_through_the_class():
    verdict = QIVerdict("undetermined", ("r",))
    assert replace(verdict, verdict="quasi-isometric") == QIVerdict("quasi-isometric", ("r",))
    assert replace(ProjInterval((1, 0), (0, 1)), lo=(-3, -3)).lo == (1, 1)
    with pytest.raises(InvalidSpecError):
        replace(load_spec("specB.gog"), spanning_tree=("nowhere",))
    with pytest.raises(TypeError):
        replace(verdict, colour="red")


def test_pickle_rebuilds_through_the_class():
    evidence = Evidence("label", "detail", payload=1)
    hash(evidence)
    copy = pickle.loads(pickle.dumps(evidence))
    assert copy == evidence and copy.payload == 1 and "_hash" not in vars(copy)


def test_import_makes_no_generated_code():
    """gbsn's import pulls in neither ``dataclasses`` nor ``inspect``, so a
    CLI process compiles no per-class methods, and not ``string``, whose
    import compiles ``Template``'s pattern. ``-S`` keeps site hooks of the
    host out of the check."""
    src = str(Path(gbsn.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import gbsn, gbsn.cli; "
        "print(sorted({'dataclasses', 'inspect', 'string'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
