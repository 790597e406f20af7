"""The lambda-free records a Borel keeps (rho, its isotropic simple roots,
its hypercubic collections and their brick verdicts), against the
references in tests/oracles.py, which keep nothing, on random weights."""

import random

import pytest

from ortk import manifest
from ortk.adjusted import HypercubicCollection, brick_decomposition_check, hypercubic_collections
from ortk.atypicality import is_typical, s1_classify
from ortk.numerics import Weight
from ortk.rootsys import Borel, build_root_system, enumerate_borels, weyl_vector

from oracles import (
    ref_brick_verdict,
    ref_hypercubic_collections,
    ref_is_typical,
    ref_s1_classify,
    ref_weyl_vector,
)

# the pinned grid and the graph-stretch families of the benchmark
STRETCH = (("gl", 4, 3), ("gl11n", None, 6), ("ospB", 3, 2), ("ospD", 3, 2))
FAMILIES = manifest.grid_families() + STRETCH
WEIGHTS_PER_BOREL = 3


def random_weight(rng, rank) -> Weight:
    """Coordinates in -2..2, over 2 for one weight in four."""
    return Weight.of([rng.randint(-2, 2) for _ in range(rank)], den=rng.choice((1, 1, 1, 2)))


def collection_fields(colls) -> list:
    return [(sorted(c.j), list(c.roots), c.sigma) for c in colls]


def answers(rs, b, lam) -> tuple:
    """Every per-weight query of b at lam, as comparable values."""
    cls = s1_classify(rs, b, lam)
    return (weyl_vector(rs, b), collection_fields(hypercubic_collections(rs, b, lam)),
            is_typical(rs, b, lam), tuple(cls))


def simple_pairs(rs, b) -> list:
    """A HypercubicCollection-shaped record for every pair of isotropic
    simple roots of b, orthogonal or not: the roots a brick check takes."""
    indices = b.isotropic_simple_indices()
    out = []
    for x, i in enumerate(indices):
        for j in indices[x + 1:]:
            roots = (b.simple[i - 1], b.simple[j - 1])
            out.append(HypercubicCollection((i, j), roots[0].vector + roots[1].vector, roots))
    return out


@pytest.mark.parametrize("family, m, n", FAMILIES,
                         ids=["-".join(map(str, key)) for key in FAMILIES])
def test_records_match_the_references_on_random_weights(family, m, n):
    rng = random.Random(f"records {family} {m} {n}")
    rs = build_root_system(family, m, n)
    borels, _ = enumerate_borels(rs)
    # a brick reference is built once per Borel and root set, since the
    # verdict does not depend on the weight; on the graph-stretch families
    # only |J| <= 2 is checked, as the benchmark does, to bound the
    # numerators, and pairs that are no collection only on the others
    small = (family, m, n) not in STRETCH
    verdicts = {}
    for k, b in enumerate(borels):
        for record in ("_rho", "_iso_simple", "_collections", "_brick_verdicts"):
            assert not hasattr(b, record)
        assert weyl_vector(rs, b) == ref_weyl_vector(rs, b)
        for _ in range(WEIGHTS_PER_BOREL):
            lam = random_weight(rng, rs.rank)
            # a copy of b starts with empty records: a cold call
            cold = answers(rs, Borel(b.odd_positive, b.simple), lam)
            assert answers(rs, b, lam) == cold
            colls = hypercubic_collections(rs, b, lam)
            fields = collection_fields(colls)
            assert fields == ref_hypercubic_collections(rs, b, lam)
            assert is_typical(rs, b, lam) == ref_is_typical(rs, b, lam)
            cls = s1_classify(rs, b, lam)
            assert (cls.certified_in, cls.certified_out, cls.unknown,
                    cls.emptiness_verdict.value) == ref_s1_classify(rs, b, lam)
            checked = [c for c in colls if small or len(c.j) <= 2]
            checked += simple_pairs(rs, b) if small else []
            for c in checked:
                key = (k, frozenset(c.roots))
                if key not in verdicts:
                    verdicts[key] = ref_brick_verdict(rs, b, c.roots)
                assert brick_decomposition_check(rs, b, lam, c) == verdicts[key]
            # a caller may change the list it gets; the next call is as before
            colls.reverse()
            colls.append(colls[0])
            assert collection_fields(hypercubic_collections(rs, b, lam)) == fields
            colls.clear()
            assert collection_fields(hypercubic_collections(rs, b, lam)) == fields
        assert weyl_vector(rs, b) is b._rho
    assert verdicts
