"""The 13 value types: construction, validation, equality, ordering,
immutability, repr and copying, pinned as behaviour."""

from __future__ import annotations

import copy
import inspect
import pickle
from typing import Callable, NamedTuple

import pytest

from circio import (
    CanonicalForm,
    CirculantGraph,
    Classification,
    ConnectionSet,
    InvalidParams,
    IsoVerdict,
    ScanReport,
    ThetaParams,
    TupleRecord,
    classify_pair,
)
from circio.core import EdgeImage
from circio.goldens import GoldenReport, GoldenRow
from circio.probes import ProbeEntry, ProbeReport

_EMPTY = inspect.Parameter.empty

CS = ConnectionSet(8, (1, 2))
CS_REPR = "ConnectionSet(n=8, jumps=(1, 2))"
VERDICT = IsoVerdict("isomorphic", (1, 0), None, 7)
VERDICT_REPR = "IsoVerdict(kind='isomorphic', permutation=(1, 0), certificate=None, nodes=7)"
CLASSIFICATION = Classification("type2", (CS,), None, 3, 2, None, None, None)
CLASSIFICATION_REPR = (
    f"Classification(kind='type2', orbit=({CS_REPR},), unit=None, m=3, t=2, "
    "chain=None, certificate=None, reason=None)"
)
ENTRY = ProbeEntry("g", 3, CS, CS, VERDICT)
ENTRY_REPR = f"ProbeEntry(group='g', s=3, left={CS_REPR}, right={CS_REPR}, verdict={VERDICT_REPR})"


class Spec(NamedTuple):
    cls: type
    args: tuple
    # (name, default) per __init__ parameter; _EMPTY where there is none
    params: tuple
    text: str
    other: Callable[[], object]  # an unequal value of the same type
    hashable: bool = True


SPECS = [
    Spec(ConnectionSet, (8, (1, 2)), (("n", _EMPTY), ("jumps", _EMPTY)), CS_REPR,
         lambda: ConnectionSet(8, (1, 3))),
    Spec(CirculantGraph, (CS,), (("cs", _EMPTY),), f"CirculantGraph(cs={CS_REPR})",
         lambda: CirculantGraph(ConnectionSet(8, (1,)))),
    Spec(EdgeImage, (4, frozenset({(0, 1)})), (("n", _EMPTY), ("pairs", _EMPTY)),
         "EdgeImage(n=4, pairs=frozenset({(0, 1)}))",
         lambda: EdgeImage(4, frozenset({(0, 2)}))),
    Spec(CanonicalForm, (3, ((0, 1),), (0, 1, 2), 4),
         (("n", _EMPTY), ("canonical_edges", _EMPTY), ("labeling", _EMPTY), ("nodes", _EMPTY)),
         "CanonicalForm(n=3, canonical_edges=((0, 1),), labeling=(0, 1, 2), nodes=4)",
         lambda: CanonicalForm(3, ((0, 1),), (0, 1, 2), 5)),
    Spec(IsoVerdict, ("isomorphic", (1, 0), None, 7),
         (("kind", _EMPTY), ("permutation", None), ("certificate", None), ("nodes", 0)),
         VERDICT_REPR, lambda: IsoVerdict("timeout")),
    Spec(ThetaParams, (54, 3, 2), (("n", _EMPTY), ("m", _EMPTY), ("t", _EMPTY)),
         "ThetaParams(n=54, m=3, t=2)", lambda: ThetaParams(54, 3, 4)),
    Spec(Classification, ("type2", (CS,), None, 3, 2, None, None, None),
         (("kind", _EMPTY), ("orbit", _EMPTY), ("unit", None), ("m", None), ("t", None),
          ("chain", None), ("certificate", None), ("reason", None)),
         CLASSIFICATION_REPR, lambda: Classification("type2", (CS,), None, 3, 4)),
    Spec(TupleRecord, ((CS,), {2: CS}, CLASSIFICATION),
         (("members", _EMPTY), ("theta_images", _EMPTY), ("verdict", _EMPTY)),
         f"TupleRecord(members=({CS_REPR},), theta_images={{2: {CS_REPR}}}, "
         f"verdict={CLASSIFICATION_REPR})",
         lambda: TupleRecord((CS,), {2: CS}, CLASSIFICATION)),
    Spec(ScanReport, (8, {"a": 1}, []),
         (("n", _EMPTY), ("counts", _EMPTY), ("records", _EMPTY)),
         "ScanReport(n=8, counts={'a': 1}, records=[])",
         lambda: ScanReport(8, {"a": 2}, []), hashable=False),
    Spec(GoldenRow, ("a", 1, 2, CS, CS, CS, (CS,), "T2"),
         (("family", _EMPTY), ("table_no", _EMPTY), ("row_no", _EMPTY), ("source", _EMPTY),
          ("printed_t2", _EMPTY), ("printed_t4", _EMPTY), ("printed_orbit", _EMPTY),
          ("expected_verdict", _EMPTY)),
         f"GoldenRow(family='a', table_no=1, row_no=2, source={CS_REPR}, printed_t2={CS_REPR}, "
         f"printed_t4={CS_REPR}, printed_orbit=({CS_REPR},), expected_verdict='T2')",
         lambda: GoldenRow("a", 1, 2, CS, CS, CS, (CS,), "T1")),
    Spec(GoldenReport, (1, ("m",), ("w",)),
         (("rows_checked", _EMPTY), ("verdict_mismatches", _EMPTY), ("image_warnings", _EMPTY)),
         "GoldenReport(rows_checked=1, verdict_mismatches=('m',), image_warnings=('w',))",
         lambda: GoldenReport(1, (), ("w",))),
    Spec(ProbeEntry, ("g", 3, CS, CS, VERDICT),
         (("group", _EMPTY), ("s", _EMPTY), ("left", _EMPTY), ("right", _EMPTY),
          ("verdict", _EMPTY)),
         ENTRY_REPR, lambda: ProbeEntry("g", 9, CS, CS, VERDICT)),
    Spec(ProbeReport, ((ENTRY,),), (("entries", _EMPTY),), f"ProbeReport(entries=({ENTRY_REPR},))",
         lambda: ProbeReport(())),
]
IDS = [spec.cls.__name__ for spec in SPECS]
FIELDS = {spec.cls: [name for name, _ in spec.params] for spec in SPECS}


def fields_of(value) -> tuple:
    return tuple(getattr(value, name) for name in FIELDS[type(value)])


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
class TestEveryType:
    def test_signature(self, spec):
        params = inspect.signature(spec.cls).parameters.values()
        assert [(p.name, p.default) for p in params] == list(spec.params)
        assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}

    def test_positional_and_keyword_agree(self, spec):
        by_position = spec.cls(*spec.args)
        by_keyword = spec.cls(**dict(zip(FIELDS[spec.cls], spec.args)))
        assert fields_of(by_position) == fields_of(by_keyword) == spec.args

    def test_repr(self, spec):
        assert repr(spec.cls(*spec.args)) == spec.text

    def test_equality_and_hash(self, spec):
        a, b, other = spec.cls(*spec.args), spec.cls(*spec.args), spec.other()
        if spec.cls is TupleRecord:
            # eq=False: identity, whatever the fields hold
            assert a == a and a != b and len({a, b}) == 2
            assert hash(a) == object.__hash__(a)
            return
        assert a == b and not a != b
        assert a != other and not a == other
        assert a.__eq__(spec.args) is NotImplemented
        assert a != spec.args
        if spec.hashable:
            assert hash(a) == hash(b)
            assert hash(a) == hash(spec.args)
            assert len({a, b, other}) == 2
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(a)

    @pytest.mark.parametrize("name", ["first", "last", "unknown"])
    def test_immutable(self, spec, name):
        value = spec.cls(*spec.args)
        before = repr(value)
        attr = {"first": FIELDS[spec.cls][0], "last": FIELDS[spec.cls][-1]}.get(name, "extra")
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{attr}'$"):
            setattr(value, attr, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{attr}'$"):
            delattr(value, attr)
        assert repr(value) == before

    def test_copy_and_pickle(self, spec):
        value = spec.cls(*spec.args)
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is spec.cls
            assert repr(twin) == spec.text
            if spec.cls is not TupleRecord:
                assert twin == value

    def test_no_instance_dict(self, spec):
        # every value is its fields and nothing else: no hidden per-instance state
        assert not hasattr(spec.cls(*spec.args), "__dict__")

    def test_not_a_tuple(self, spec):
        # the JSON renderers branch on isinstance(value, tuple)
        assert not isinstance(spec.cls(*spec.args), tuple)


class TestDefaults:
    def test_classification(self):
        c = Classification("unknown", ())
        assert fields_of(c) == ("unknown", (), None, None, None, None, None, None)
        assert Classification(kind="type1", orbit=(CS,), unit=3) == Classification(
            "type1", (CS,), 3, None, None, None, None, None
        )

    def test_iso_verdict(self):
        assert fields_of(IsoVerdict("timeout")) == ("timeout", None, None, 0)
        assert IsoVerdict(kind="non-isomorphic", certificate="spectrum[0]") == IsoVerdict(
            "non-isomorphic", None, "spectrum[0]", 0
        )


def _message(cls, *args) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        cls(*args)
    return info.type, str(info.value)


class TestValidation:
    @pytest.mark.parametrize(
        "args, message",
        [
            ((1, (1,)), "order must be >= 2, got 1"),
            ((-3, ()), "order must be >= 2, got -3"),
            ((16, (0,)), "jump 0 outside [1, 8] for n=16"),
            ((16, (9,)), "jump 9 outside [1, 8] for n=16"),
            ((16, (1, -2)), "jump -2 outside [1, 8] for n=16"),
            ((16, (3, 2)), "jumps must be strictly increasing"),
            ((16, (2, 2)), "jumps must be strictly increasing"),
        ],
    )
    def test_connection_set(self, args, message):
        assert _message(ConnectionSet, *args) == (ValueError, message)

    def test_connection_set_accepts_the_bounds(self):
        assert ConnectionSet(2, (1,)).jumps == (1,)
        assert ConnectionSet(16, ()).jumps == ()
        assert ConnectionSet(16, (1, 8)).jumps == (1, 8)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((54, 1, 0), "m must be >= 2, got 1"),
            ((18, 3, 0), "m^3 = 27 must divide n = 18"),
            ((54, 3, 18), "t = 18 outside [0, 17]"),
            ((54, 3, -1), "t = -1 outside [0, 17]"),
        ],
    )
    def test_theta_params(self, args, message):
        assert _message(ThetaParams, *args) == (InvalidParams, message)

    def test_theta_params_accepts_the_bounds(self):
        assert ThetaParams(54, 3, 0).t == 0
        assert ThetaParams(54, 3, 17).t == 17

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ({(1, 0)}, "bad pair (1,0) for n=4"),
            ({(0, 4)}, "bad pair (0,4) for n=4"),
            ({(2, 2)}, "bad pair (2,2) for n=4"),
            ({(-1, 2)}, "bad pair (-1,2) for n=4"),
        ],
    )
    def test_edge_image(self, pairs, message):
        assert _message(EdgeImage, 4, frozenset(pairs)) == (ValueError, message)


class TestConnectionSetOrder:
    def test_orders_by_n_then_jumps(self):
        a, b, c = ConnectionSet(8, (1, 2)), ConnectionSet(8, (1, 3)), ConnectionSet(9, (1,))
        assert a < b < c and c > b > a
        assert a <= a <= b and b >= b >= a
        assert not b < a and not a > b

    def test_sorted_mixed_orders(self):
        sets = [
            ConnectionSet(9, (1,)),
            ConnectionSet(8, (2,)),
            ConnectionSet(8, (1, 4)),
            ConnectionSet(16, ()),
            ConnectionSet(8, (1, 2, 3)),
            ConnectionSet(8, (1, 2)),
        ]
        assert [str(s) for s in sorted(sets)] == [
            "C8(1,2)", "C8(1,2,3)", "C8(1,4)", "C8(2)", "C9(1)", "C16()",
        ]
        assert sorted(sets) == sorted(sets, key=lambda s: (s.n, s.jumps))
        for x in sets:
            for y in sets:
                kx, ky = (x.n, x.jumps), (y.n, y.jumps)
                assert (x < y, x <= y, x > y, x >= y) == (kx < ky, kx <= ky, kx > ky, kx >= ky)

    def test_other_class_is_not_implemented(self):
        a = ConnectionSet(8, (1, 2))
        for op in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
            assert getattr(a, op)((8, (1, 2))) is NotImplemented
        with pytest.raises(TypeError):
            a < (8, (1, 2))
        with pytest.raises(TypeError):
            sorted([a, (8, (1, 3))])


class TestCirculantGraphAdjacency:
    def test_adjacency_is_built_from_jumps_and_not_a_field(self):
        g = CirculantGraph(ConnectionSet(8, (1, 2)))
        assert g.adjacency[0] == (1, 2, 6, 7)
        assert repr(g) == f"CirculantGraph(cs={CS_REPR})"
        assert g == CirculantGraph(CS) and hash(g) == hash(CirculantGraph(CS))


def test_readme_classification_repr():
    r = ConnectionSet.parse("C54(1,3,17,19)")
    verdict = classify_pair(r, ConnectionSet.parse("C54(3,7,11,25)"))
    orbit = ", ".join(f"ConnectionSet(n=54, jumps={j})" for j in
                      ((1, 3, 17, 19), (5, 13, 15, 23), (7, 11, 21, 25)))
    chain = ", ".join(f"ConnectionSet(n=54, jumps={j})" for j in ((1, 3, 17, 19), (3, 7, 11, 25)))
    assert repr(verdict) == (
        f"Classification(kind='type2', orbit=({orbit}), unit=None, m=3, t=2, "
        f"chain=({chain}), certificate=None, reason=None)"
    )
