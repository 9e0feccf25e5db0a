import random

import fdhom.modules as modules
from fdhom.algebra import _SpanReducer
from fdhom.linalg import Matrix


def cartan_from_structure_constants(a):
    """Entry (i,j) = dim e_j A e_i, the span of e_j b_k e_i over the basis
    b_k, read off the structure constants with no module built: an oracle
    for `modules.cartan_matrix`, which reads the projectives."""
    return [[_SpanReducer(a.field, [
        a.multiply(ej, a.multiply(a.basis_vec(k), ei)) for k in range(a.dim)],
        a.dim).dim() for ej in a.idempotents] for ei in a.idempotents]


def random_module(a, rng: random.Random, max_copies: int = 3):
    """A seeded random module: the cokernel of a random sparse map between
    random sums of projectives (every finitely presented module arises so)."""
    nv = len(a.idempotents)
    tgt_parts = [modules.projective_module(a, rng.randrange(nv))
                 for _ in range(rng.randint(1, max_copies))]
    tgt, _, _ = modules.direct_sum(tgt_parts)
    n_src = rng.randint(0, 2)
    if n_src == 0:
        return tgt
    src_parts = [modules.projective_module(a, rng.randrange(nv))
                 for _ in range(n_src)]
    src, _, _ = modules.direct_sum(src_parts)
    homs = modules.hom_basis(src, tgt)
    f = a.field
    m = Matrix(f, tgt.dim, src.dim)
    for h in homs:
        c = rng.choice([0, 0, 0, 0, 1, 1, -1, 2])
        if c:
            m = m + h.matrix.scale(f.of(c))
    cok, _ = modules.cokernel(modules.ModuleMap(src, tgt, m, check=False))
    return cok
