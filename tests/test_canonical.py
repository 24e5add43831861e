"""The one rule for canonical objects, ``rings.Canonical``: basis symbols, PBW monomials
and t-ring values each have one object per content, from a table of their own class.
The per-class copy and pickle checks live with each class's tests."""
from wittquant.liealg import JW, BasisDeriv
from wittquant.rings import QQ, Canonical, t_quotient, t_series
from wittquant.uea import monomial


def test_each_canonical_class_has_its_own_table():
    class Probe(Canonical):
        __slots__ = ()

    b = BasisDeriv(JW, (1,), 1)
    m = monomial(((b, 2),))
    probe = Probe.of(m)
    assert type(probe) is Probe and probe is not m and probe == m
    assert Probe.of(tuple(m)) is probe and monomial(tuple(probe)) is m
    assert not hasattr(probe, "__dict__")
    v = t_quotient(3, 1).t_power(1)
    assert Probe.of(v) is Probe.of((0, 1)) is not v


def test_of_returns_a_canonical_input_as_it_is():
    b = BasisDeriv(JW, (1, 0), 2)
    m = monomial(((b, 1),))
    R = t_series(QQ, 3)
    for obj in [b, m, R.one, R.t_power(2), t_quotient(5, 2).from_int(3)]:
        assert type(obj).of(obj) is obj and type(obj).of(tuple(obj)) is obj
        assert isinstance(obj, Canonical) and hash(obj) == object.__hash__(obj)


def test_no_canonical_object_has_a_dict():
    b = BasisDeriv(JW, (0, 1), 1)
    values = [b, monomial(((b, 1),)), t_quotient(3, 0).one, t_series(QQ, 2).t_power(1)]
    assert all(not hasattr(obj, "__dict__") for obj in values)


def test_a_replaced_or_made_symbol_is_the_canonical_one():
    b = BasisDeriv(JW, (2, 0), 1)
    assert BasisDeriv(JW, (0, 0), 1)._replace(alpha=(2, 0)) is b
    assert b._replace(i=2)._replace(i=1) is b
    assert BasisDeriv._make([JW, (2, 0), 1]) is b and BasisDeriv._make(iter(b)) is b
    assert BasisDeriv.of((JW, (2, 0), 1)) is b
