"""The library's value types: immutable, compared and hashed by value.

Each of the eight types is built twice apart, once positionally and once
by keyword, and once more with a different value.  None of them is a
dataclass, so dataclasses.replace and asdict do not apply to them.
"""

from fractions import Fraction as F

import pytest

from newtonkit.hecke import HeckeValuation
from newtonkit.kottwitz import KottwitzElement, KottwitzSet, enumerate_bgmu
from newtonkit.muordinary import DegreeData, SlopeProfile, degrees
from newtonkit.oracles import UnipotentShape, siegel_shape
from newtonkit.rootdata import RationalCocharacter, RootDatum, build_datum, fundamental_coweight

C2 = build_datum("C", 2)
KS = enumerate_bgmu(fundamental_coweight(C2, 2))
PROFILE = SlopeProfile((F(1), F(1, 2), F(0)), (1, 2, 1))


def _root_datum_fields(d):
    return dict(type_label=d.type_label, rank=d.rank, ambient_dim=d.ambient_dim,
                simple_roots=d.simple_roots, simple_coroots=d.simple_coroots,
                cartan=d.cartan, factors=d.factors)


def _element_fields(e):
    return dict(nu=e.nu, C=e.C, den=e.den, J=e.J)


# (type, its fields by keyword in constructor order, an unequal instance)
CASES = [
    (RootDatum, _root_datum_fields(C2), build_datum("B", 2)),
    (RationalCocharacter, dict(x=(1, 0), L=2, datum=C2), RationalCocharacter((1, 1), 2, C2)),
    (KottwitzElement, _element_fields(KS.elements[0]), KS.elements[1]),
    (KottwitzSet, dict(mu=KS.mu, mubar=KS.mubar, elements=KS.elements),
     KottwitzSet(KS.mu, KS.mubar, KS.elements[1:])),
    (SlopeProfile, dict(slopes=PROFILE.slopes, mults=PROFILE.mults, polarized=True,
                        origin=None), PROFILE),
    (DegreeData, dict(profile=PROFILE, d=degrees(PROFILE).d, delta=degrees(PROFILE).delta),
     DegreeData(PROFILE, degrees(PROFILE).d, None)),
    (HeckeValuation, dict(full=(F(0), F(1), F(0), F(1)), s=F(1), p=3),
     HeckeValuation((F(0), F(1), F(0), F(1)), F(1), 5)),
    (UnipotentShape, dict(size=4, groups=siegel_shape(2).groups), siegel_shape(2, lower=False)),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, fields, other", CASES, ids=IDS)
def test_equal_values_built_apart_compare_and_hash_equal(cls, fields, other):
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert by_position is not by_keyword
    assert by_position == by_keyword and not by_position != by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert {by_position: 1}[by_keyword] == 1
    assert by_position != other and other != by_keyword
    assert by_position != fields and by_position != tuple(fields.values())


@pytest.mark.parametrize("cls, fields, other", CASES, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(cls, fields, other):
    value = cls(**fields)
    for name, field in fields.items():
        assert getattr(value, name) == field
        with pytest.raises(AttributeError, match=name):
            setattr(value, name, field)
        with pytest.raises(AttributeError, match=name):
            delattr(value, name)
        assert getattr(value, name) == field
    with pytest.raises(AttributeError):
        value.no_such_field = 0


@pytest.mark.parametrize("cls, fields, other", CASES, ids=IDS)
def test_the_repr_names_every_field(cls, fields, other):
    text = repr(cls(**fields))
    assert text.startswith(f"{cls.__name__}(")
    assert all(f"{name}=" in text for name in fields)


def test_the_defaults():
    fields = _root_datum_fields(C2)
    del fields["factors"]
    assert RootDatum(*fields.values()).factors == () and RootDatum(**fields) == C2
    profile = SlopeProfile(("1", "0"), (1, 1))
    assert profile.polarized is False and profile.origin is None


def test_origin_is_left_out_of_equality_and_hashing():
    plain = SlopeProfile(PROFILE.slopes, PROFILE.mults)
    traced = SlopeProfile(PROFILE.slopes, PROFILE.mults, False, (PROFILE, 1, 1))
    assert traced.origin == (PROFILE, 1, 1) and plain.origin is None
    assert traced == plain and hash(traced) == hash(plain)


def test_the_constructors_normalize_and_the_cached_views_fill_in():
    nu = RationalCocharacter([2, 0], 4, C2)
    assert (nu.x, nu.L) == ((1, 0), 2) and nu == RationalCocharacter((1, 0), 2, C2)
    assert nu.coords == (F(1, 2), F(0)) and nu.coords is nu.coords
    e = KS.elements[0]
    doubled = KottwitzElement(e.nu, [2 * t for t in e.C], 2 * e.den, e.J)
    assert (doubled.C, doubled.den) == (e.C, e.den) and doubled == e
    assert doubled.c == e.c and doubled.c is doubled.c
    assert C2.kernel is C2.kernel
    assert C2.cochar(["1/2", "0"]) == nu
    assert HeckeValuation(["0", "1", "0", "1"], "1", 3).full == (F(0), F(1), F(0), F(1))
    assert SlopeProfile(["1", "0"], (1, 1)).slopes == (F(1), F(0))
