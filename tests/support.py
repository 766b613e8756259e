"""Reference checks that more than one test module uses.

The library keeps what its commands run; these are oracles and law
checks that only the tests call, so they live here.  The
`largest-structure search` budget site is `oracle_largest_structure`.
"""

import random

from lawcat.tvcat import Exponential, check_tvfunctor, tensor_tvcat
from lawcat.vmatrix import VMatrix, all_matrices, precompose_map, select_cols


def induced_modules(f, x, y):
    """The module pair of a map: lower = b . Tf, upper = f-transpose . b."""
    ext = x.ext
    tf = ext.monad.tmap(f, x.n, y.n)
    lower = precompose_map(y.a, tf, ext.monad.size(x.n))
    upper = select_cols(y.a, f)
    return lower, upper


def check_evaluation_functor(expo):
    """Evaluation out of base (x) exponential is a functor into the target."""
    x, y = expo.base, expo.target
    fcat = expo.category()
    prod = tensor_tvcat(x, fcat)
    ev_map = tuple(expo.carrier[i][p] for p in range(x.n) for i in range(expo.n))
    return check_tvfunctor(ev_map, prod, y)


def oracle_largest_structure(expo):
    """Full search for the largest evaluation-preserving structure (tiny only)."""
    x, y = expo.base, expo.target
    q = x.q
    rows, cols = expo.structure.rows, expo.n
    x.ext.check_budget("largest-structure search", q.n ** (rows * cols))
    best = VMatrix.constant(q, rows, cols, q.bottom)
    for cand_m in all_matrices(q, rows, cols, x.ext.max_enum):
        cand = Exponential(x, y, expo.carrier, cand_m, False)
        if check_evaluation_functor(cand)["ok"]:
            best = best.join(cand_m)
    return best


def check_embeds_maps(ext, samples=20, seed=1, size=3):
    """extend(from_map f) equals from_map(Tf) on random functions."""
    q = ext.q
    monad = ext.monad
    rng = random.Random(seed)
    for _ in range(samples):
        nx = rng.randrange(1, size + 1)
        ny = rng.randrange(1, size + 1)
        f = tuple(rng.randrange(ny) for _ in range(nx))
        lhs = ext.extend(VMatrix.from_map(q, f, nx, ny))
        rhs = VMatrix.from_map(q, monad.tmap(f, nx, ny), monad.size(nx), monad.size(ny))
        if lhs != rhs:
            return {"ok": False, "witness": f}
    return {"ok": True}
