"""Modules built from other modules build each action matrix on first read.

`submodule` of a span known to be invariant, `quotient_module`, `dual` and
`direct_sum` keep a sequence whose entry b is built from the parent's entry b
the first time it is read.  Every entry, read in a shuffled order, is checked
here against the formula of the eager construction and against the defining
property of the construction (the inclusion or projection intertwines), and
the whole list against the structure constants with `Module(check=True)`.
Checked constructions stay eager: a span that is not invariant is refused at
the call.
"""

import random

import pytest

from conftest import random_module
from fdhom.algebra import _SpanReducer
from fdhom.linalg import GF, QQ, Matrix
from fdhom.modules import (
    Module,
    _left_inverse,
    _radical_span,
    direct_sum,
    dual,
    kernel,
    projective_cover,
    projective_module,
    quotient_module,
    radical_of_module,
    regular_module,
    socle,
    submodule,
    top,
)
from test_structure_constants import suite_algebras

SAMPLE = ("kA3", "preprojective-A2", "D4", "Gamma kA3", "kA3 rebased",
          "preprojective-A2 reversed")


def sample_algebras(field):
    return [(name, a) for name, a in suite_algebras(field) if name in SAMPLE]


def modules_of(a, rng):
    """The regular module, the projectives and two random cokernels."""
    return ([regular_module(a)]
            + [projective_module(a, v) for v in range(len(a.idempotents))]
            + [random_module(a, rng) for _ in range(2)])


def read_all(m, rng):
    """Every action matrix of m, read in a shuffled order; each is kept."""
    order = list(range(len(m.action)))
    rng.shuffle(order)
    got = {b: m.action[b] for b in order}
    assert all(m.action[b] is got[b] for b in order)
    return [got[b] for b in range(len(m.action))]


def assert_checked(m, acts):
    """The action list passes the construction-time check, and compares
    equal to the lazy sequence in both directions."""
    assert acts == m.action and m.action == acts
    Module(m.algebra, m.dim, list(m.action), check=True)


@pytest.mark.parametrize("field", (QQ, GF(3)), ids=str)
def test_lazy_actions_match_the_eager_formulas(field):
    rng = random.Random(17)
    for name, a in sample_algebras(field):
        for x in modules_of(a, rng):
            f = a.field
            # a submodule: JM, invariant by construction
            span = _radical_span(x)
            sub, incl = submodule(x, span, known_invariant=True)
            coords = _left_inverse(span) if span.cols else Matrix(f, 0, x.dim)
            acts = read_all(sub, rng)
            for b, act in enumerate(acts):
                assert act == coords @ (x.action[b] @ span), (name, b)
                assert incl.matrix @ act == x.action[b] @ incl.matrix, (name, b)
            assert_checked(sub, acts)
            # the quotient by the same span
            q, proj = quotient_module(x, span)
            free = _SpanReducer(f, span.transpose().nz, x.dim).free()
            sect = Matrix.from_columns(f, x.dim, [{c: f.one} for c in free])
            acts = read_all(q, rng)
            for b, act in enumerate(acts):
                assert act == proj.matrix @ x.action[b] @ sect, (name, b)
                assert act @ proj.matrix == proj.matrix @ x.action[b], (name, b)
            assert_checked(q, acts)
            # the dual, over the opposite algebra
            d = dual(x)
            acts = read_all(d, rng)
            for b, act in enumerate(acts):
                assert act == x.action[b].transpose(), (name, b)
            assert_checked(d, acts)
            # a sum of the module, its submodule and its quotient
            mods = [x, sub, q]
            s, incls, projs = direct_sum(mods)
            acts = read_all(s, rng)
            for b, act in enumerate(acts):
                want = Matrix(f, s.dim, s.dim)
                off = 0
                for m in mods:
                    want.put(off, off, m.action[b])
                    off += m.dim
                assert act == want, (name, b)
                for m, i_, p_ in zip(mods, incls, projs):
                    assert p_.matrix @ act @ i_.matrix == m.action[b], (name, b)
            assert_checked(s, acts)


def test_lazy_entries_of_a_chain_read_through_their_parents():
    # the kernel of the cover of D x / soc D x: a submodule of a sum of
    # projectives, over a quotient of a dual, built from parents whose other
    # entries were never read
    rng = random.Random(3)
    for name, a in sample_algebras(QQ):
        d = dual(random_module(a, rng))
        _, soc = socle(d)
        q, _ = quotient_module(d, soc.matrix)
        p, epi = projective_cover(q)
        k, incl = kernel(epi)
        acts = read_all(k, rng)
        for b, act in enumerate(acts):
            assert incl.matrix @ act == p.action[b] @ incl.matrix, (name, b)
        assert_checked(k, acts)
        assert_checked(q, read_all(q, rng))


def test_a_span_that_is_not_invariant_is_refused_at_the_call():
    for name, a in sample_algebras(QQ):
        for v in range(len(a.idempotents)):
            p = projective_module(a, v)
            if p.dim < 2:
                continue
            # the generator alone: the algebra moves it out of its line
            gen = Matrix.column(a.field, p.proj_summands[0][1])
            assert _radical_span(p).cols == p.dim - 1
            with pytest.raises(ValueError, match="not action-invariant"):
                submodule(p, gen)
            break


def test_top_is_the_quotient_by_the_radical_module():
    rng = random.Random(8)
    for name, a in sample_algebras(QQ):
        for x in modules_of(a, rng):
            t, pi = top(x)
            _, incl = radical_of_module(x)
            t_old, pi_old = quotient_module(x, incl.matrix)
            assert pi.matrix == pi_old.matrix, name
            assert t.dim == t_old.dim and t.action == t_old.action, name
