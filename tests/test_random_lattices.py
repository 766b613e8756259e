"""Torture pass over freshly generated quantales.

Down-set lattices of random small posets are distributive, so meet works
as a tensor with the whole carrier as unit; this exercises carrier
shapes the fixed catalog lacks (six-element non-Boolean lattices and
friends) through validation, extension, the algebra structure, and the
completeness certificate.
"""

import itertools
import random

import pytest

from lawcat.completeness import certify_v_complete, decide_lawvere_complete
from lawcat.enriched import all_vcategories
from lawcat.laxext import (
    LaxExtension,
    check_extension_laws,
    check_xi,
    check_xi_compat,
    check_xi_functor,
)
from lawcat.monad import builtin_monad
from lawcat.quantale import Quantale, validate_quantale
from lawcat.tvcat import check_tvcategory, hom_xi_category

from support import check_embeds_maps, reference_span_algebra_diagram


def downset_quantale(seed):
    """Down-set lattice of a random poset on up to three points."""
    rng = random.Random(seed)
    n = rng.randrange(2, 4)
    leq = [[x == y for y in range(n)] for x in range(n)]
    for x in range(n):
        for y in range(n):
            if x != y and rng.random() < 0.4 and not leq[y][x]:
                leq[x][y] = True
    for x in range(n):
        for y in range(n):
            if leq[x][y]:
                for z in range(n):
                    if leq[y][z] and not leq[y][x]:
                        leq[x][z] = True
    downsets = []
    for mask in range(1 << n):
        pts = {x for x in range(n) if mask & (1 << x)}
        if all(not leq[y][x] or y in pts for x in pts for y in range(n)):
            downsets.append(frozenset(pts))
    downsets.sort(key=lambda s: (len(s), sorted(s)))
    size = len(downsets)
    order = [[a <= b for b in downsets] for a in downsets]
    index = {s: i for i, s in enumerate(downsets)}
    tensor = [[index[a & b] for b in downsets] for a in downsets]
    labels = ["d" + "".join(str(x) for x in sorted(s)) for s in downsets]
    q = Quantale(f"down{seed}", labels, order, tensor, unit=size - 1)
    assert validate_quantale(q)["ok"]
    return q


SEEDS = list(range(12))


@pytest.mark.parametrize("seed", SEEDS)
def test_random_lattice_full_stack(seed):
    q = downset_quantale(seed)
    for mname in ("id", "ultra", "powerset"):
        monad = builtin_monad(mname)
        if mname == "powerset" and q.n > 4:
            continue  # algebra sweeps need T of T of the carrier
        ext = LaxExtension(monad, q)
        laws = check_extension_laws(ext, samples=10)
        assert laws["ok"], (seed, mname, {k: laws[k] for k in "abcdefg"})
        assert check_embeds_maps(ext, samples=10)["ok"]
        assert check_xi(ext)["ok"]
        assert check_xi_functor(ext)["ok"]
        compat = check_xi_compat(ext)
        assert compat["unit_inequality"] and compat["tensor_inequality"]
        assert compat["tensor_strict"]  # meet tensors are always strict
        assert reference_span_algebra_diagram(ext, samples=6)["span_algebra_diagram"]
        assert hom_xi_category(ext).verdict()["ok"], (seed, mname)
    rep = certify_v_complete(LaxExtension(builtin_monad("id"), q))
    assert rep["certified"], (seed, rep)


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_random_lattice_pruned_walk_matches_oracle(seed):
    # The pruned enumeration against the oracle on a sample of the
    # categories on 2 points.  Completeness is not asserted: a down-set
    # lattice whose top is join-reducible has incomplete categories (on 2
    # points, 24 of the 36 over each of seeds 0 and 5, and 9 of 16 over
    # seed 1).
    from lawcat.completeness import enumerate_adjoint_pairs

    q = downset_quantale(seed)
    cats = all_vcategories(q, 2, max_enum=10_000_000)
    rng = random.Random(seed)
    rng.shuffle(cats)
    for cat in cats[:8]:
        pruned = enumerate_adjoint_pairs(cat)
        reference = enumerate_adjoint_pairs(cat, oracle=True)
        assert [p.key() for p in pruned] == [p.key() for p in reference]
