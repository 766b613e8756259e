"""Monad-enriched categories: structures a: TX -|-> X and their calculus.

Covers the axiom checker, Kleisli composition, functors and the induced
module pair, bimodules with the double-functor characterization, duals,
tensors, the canonical structure on the quantale, exponentials and both
Yoneda morphisms.  Conditional constructions consult machine-checked
capability flags instead of assuming hypotheses.
"""

from __future__ import annotations

import itertools

from .errors import DEFAULT_MAX_ENUM, BudgetExceeded, GateUnavailable
from .monad import m_square_gap
from .vmatrix import VMatrix, mcompose, postcompose_map, precompose_map, select_cols


class TVCategory:
    """Carrier set of size n with a structure matrix T(n) -|-> n."""

    def __init__(self, ext, n, a, name=""):
        if a.rows != ext.monad.size(n) or a.cols != n:
            raise ValueError(f"structure must be {ext.monad.size(n)}x{n}, got {a.rows}x{a.cols}")
        self.ext = ext
        self.n = n
        self.a = a
        self.name = name

    @property
    def q(self):
        return self.ext.q

    @property
    def monad(self):
        return self.ext.monad

    def ta(self):
        return self.ext.extend(self.a)

    def __repr__(self):
        return f"TVCategory({self.name or self.n}, {self.monad.name}/{self.q.name})"

    def __eq__(self, other):
        return (
            isinstance(other, TVCategory)
            and self.ext is other.ext
            and self.n == other.n
            and self.a == other.a
        )

    def __hash__(self):
        return hash((id(self.ext), self.n, self.a.data))


def check_tvcategory(ext, n, a, max_enum=DEFAULT_MAX_ENUM):
    """Reflexivity and transitivity (lax unit and associativity) with witnesses.

    (R): k <= a(e(x), x) for every x.  (T): Ta(s, t) (x) a(t, x) <= a(m(s), x)
    for every s in T(T(n)), t in T(n), x; the inner two loops are collapsed
    through a precomputed admissibility table keyed on the target row.
    """
    q = ext.q
    monad = ext.monad
    e = ext.unit_map(n)
    for x in range(n):
        if not q.le(q.unit, a.data[e[x]][x]):
            return {"ok": False, "law": "reflexivity", "witness": (x,)}
    tn = monad.size(n)
    ttn = monad.size(tn)
    if ttn * tn > max_enum:
        raise BudgetExceeded("associativity sweep", ttn * tn, max_enum)
    ta = ext.extend(a)
    mu = ext.mult_map(n)
    bot = q.bottom
    tens = q.tensor
    leq = q.leq
    # admissible[t][u][s2] : does u (x) a(s2, -) stay below row t of a
    admissible = [
        [
            [
                all(leq[tens[u][a.data[s2][x]]][a.data[t][x]] for x in range(n))
                for s2 in range(tn)
            ]
            for u in range(q.n)
        ]
        for t in range(tn)
    ]
    for s in range(ttn):
        adm_t = admissible[mu[s]]
        row = ta.data[s]
        for s2 in range(tn):
            u = row[s2]
            if u != bot and not adm_t[u][s2]:
                for x in range(n):
                    if not leq[tens[u][a.data[s2][x]]][a.data[mu[s]][x]]:
                        return {"ok": False, "law": "transitivity", "witness": (s, s2, x)}
    return {"ok": True}


def tvcategory(ext, n, a, name="", max_enum=DEFAULT_MAX_ENUM):
    verdict = check_tvcategory(ext, n, a, max_enum)
    if not verdict["ok"]:
        raise ValueError(f"not a (T,V)-category: {verdict}")
    return TVCategory(ext, n, a, name)


def discrete_tvcategory(ext, n):
    """Structure transpose of the unit: the free reflexive structure."""
    q = ext.q
    e = ext.unit_map(n)
    tn = ext.monad.size(n)
    data = tuple(
        tuple(q.unit if e[x] == s else q.bottom for x in range(n)) for s in range(tn)
    )
    return TVCategory(ext, n, VMatrix(q, tn, n, data), name=f"discrete{n}")


def em_algebra_category(ext, n, max_enum=DEFAULT_MAX_ENUM):
    """The free algebra on n points as a category: carrier T(n), structure m."""
    key = ("em", n)
    if key not in ext.cache:
        tn = ext.monad.size(n)
        ttn = ext.monad.size(tn)
        m_emb = VMatrix.from_map(ext.q, ext.mult_map(n), ttn, tn)
        ext.cache[key] = tvcategory(ext, tn, m_emb, name=f"|{n}|", max_enum=max_enum)
    return ext.cache[key]


def unit_tvcategory(ext):
    """The one-point category: unit on the image of e, bottom elsewhere."""
    return discrete_tvcategory(ext, 1)


def algebra_as_category(ext, alpha, n, max_enum=DEFAULT_MAX_ENUM):
    """An algebra map embedded as a structure: unit exactly on its graph."""
    a = VMatrix.from_map(ext.q, alpha, ext.monad.size(n), n)
    return tvcategory(ext, n, a, name="algebra", max_enum=max_enum)


def hom_xi_category(ext, max_enum=DEFAULT_MAX_ENUM, validate=True):
    """The quantale itself, structured by residuation after the algebra map."""
    key = ("homxi", validate)
    if key not in ext.cache:
        q = ext.q
        xi = ext.xi()
        tn = ext.monad.size(q.n)
        data = tuple(tuple(q.hom(xi[s], v) for v in range(q.n)) for s in range(tn))
        a = VMatrix(q, tn, q.n, data)
        if validate:
            ext.cache[key] = tvcategory(ext, q.n, a, name="V-hom-xi", max_enum=max_enum)
        else:
            ext.cache[key] = TVCategory(ext, q.n, a, name="V-hom-xi")
    return ext.cache[key]


def kleisli_compose(ext, b, a, n_src):
    """b * a = b . T(a) . m-transpose, for a: T(n_src) -|-> Y, b: T(Y) -|-> Z."""
    q = ext.q
    monad = ext.monad
    ny = a.cols
    if a.rows != monad.size(n_src) or b.rows != monad.size(ny):
        raise ValueError("kleisli shapes do not line up")
    ta = ext.extend(a)
    fibers = ext.mult_fibers(n_src)
    tn = monad.size(n_src)
    tny = monad.size(ny)
    bot = q.bottom
    tens, join_t = q.tensor, q.join_t
    out = []
    for s in range(tn):
        row = [bot] * b.cols
        for big in fibers[s]:
            trow = ta.data[big]
            for t in range(tny):
                u = trow[t]
                if u == bot:
                    continue
                brow = b.data[t]
                for z in range(b.cols):
                    v = tens[u][brow[z]]
                    if v != bot:
                        row[z] = join_t[row[z]][v]
        out.append(tuple(row))
    return VMatrix(q, tn, b.cols, tuple(out))


def kleisli_table(x):
    """Ta . m-transpose as a plain T(X) x T(X) table: the Kleisli hom of x."""
    ext = x.ext
    q = ext.q
    ta = ext.extend(x.a)
    fibers = ext.mult_fibers(x.n)
    tn = ext.monad.size(x.n)
    return [
        [q.join_all(ta.data[big][t] for big in fibers[s]) for t in range(tn)]
        for s in range(tn)
    ]


def check_tvfunctor(f, x, y):
    """a(s, p) <= b(Tf(s), f(p)) for all s in TX and p in X."""
    ext = x.ext
    tf = ext.monad.tmap(f, x.n, y.n)
    for s in range(ext.monad.size(x.n)):
        for p in range(x.n):
            if not ext.q.le(x.a.data[s][p], y.a.data[tf[s]][f[p]]):
                return {"ok": False, "witness": (s, p)}
    return {"ok": True}


def induced_modules(f, x, y):
    """The module pair of a map: lower = b . Tf, upper = f-transpose . b."""
    ext = x.ext
    tf = ext.monad.tmap(f, x.n, y.n)
    lower = precompose_map(y.a, tf, ext.monad.size(x.n))
    upper = select_cols(y.a, f)
    return lower, upper


def is_tvbimodule(psi, x, y):
    """Direct laws: psi * a <= psi and b * psi <= psi."""
    ext = x.ext
    left = kleisli_compose(ext, psi, x.a, x.n)
    right = kleisli_compose(ext, y.a, psi, x.n)
    return left.le(psi) and right.le(psi)


def functor_module_equivalence(f, x, y):
    """The three readings of one map: functor, lower module, upper module."""
    fun = check_tvfunctor(f, x, y)["ok"]
    lower, upper = induced_modules(f, x, y)
    low_ok = is_tvbimodule(lower, x, y)
    up_ok = is_tvbimodule(upper, y, x)
    return {
        "functor": fun,
        "lower_bimodule": low_ok,
        "upper_bimodule": up_ok,
        "all_agree": fun == low_ok == up_ok,
    }


def dual_tvcategory(x, max_enum=DEFAULT_MAX_ENUM):
    """Dual category on carrier TX via the algebra and forgetful round trip."""
    ext = x.ext
    key = ("dual", x.n, x.a.data)
    if key not in ext.cache:
        monad = ext.monad
        tn = monad.size(x.n)
        ta = ext.extend(x.a)
        c = postcompose_map(ext.mult_map(x.n), tn, ta.transpose())
        tc = ext.extend(c)
        a_op = select_cols(tc, ext.unit_map(tn))
        ext.cache[key] = TVCategory(ext, tn, a_op, name=f"{x.name or x.n}^op")
    return ext.cache[key]


def tensor_tvcat(x, y, validate=False, max_enum=DEFAULT_MAX_ENUM):
    """Pointwise tensor structure on the product carrier.

    Validity of the result is conditional on strictness of the algebra map
    against the tensor; with validate=True an invalid result raises and
    names that gate.
    """
    ext = x.ext
    q = ext.q
    monad = ext.monad
    n = x.n * y.n
    if monad.size(n) * n > max_enum:
        raise BudgetExceeded("tensor carrier", monad.size(n) * n, max_enum)
    pix = tuple(p for p in range(x.n) for _ in range(y.n))
    piy = tuple(u for _ in range(x.n) for u in range(y.n))
    tpix = monad.tmap(pix, n, x.n)
    tpiy = monad.tmap(piy, n, y.n)
    data = tuple(
        tuple(
            q.tens(x.a.data[tpix[w]][p], y.a.data[tpiy[w]][u])
            for p in range(x.n)
            for u in range(y.n)
        )
        for w in range(monad.size(n))
    )
    cand = TVCategory(ext, n, VMatrix(q, monad.size(n), n, data), name=f"{x.name}(x){y.name}")
    if validate:
        verdict = check_tvcategory(ext, n, cand.a, max_enum)
        if not verdict["ok"]:
            strict = ext.capabilities()["tensor_strict"]
            raise GateUnavailable(
                "tensor-strict",
                f"tensor structure fails {verdict['law']} and strictness flag is {strict}",
            )
    return cand


def algebra_compose(ext, a0, alpha, n, max_enum=DEFAULT_MAX_ENUM):
    """Composite of a plain square structure with an algebra map, both ways.

    Returns the structure a0 . alpha together with the equivalence data:
    it is a valid enriched structure exactly when alpha respects the
    extended matrix, and both sides are computed independently.
    """
    q = ext.q
    monad = ext.monad
    e = ext.unit_map(n)
    mu = ext.mult_map(n)
    if any(alpha[e[p]] != p for p in range(n)):
        raise ValueError("alpha is not unital")
    talpha = monad.tmap(alpha, monad.size(n), n)
    if any(alpha[talpha[s]] != alpha[mu[s]] for s in range(monad.size(monad.size(n)))):
        raise ValueError("alpha is not associative")
    composite = precompose_map(a0, alpha, monad.size(n))
    is_structure = check_tvcategory(ext, n, composite, max_enum)["ok"]
    ta0 = ext.extend(a0)
    alpha_functor = all(
        q.le(ta0.data[s][t], a0.data[alpha[s]][alpha[t]])
        for s in range(monad.size(n))
        for t in range(monad.size(n))
    )
    return {
        "structure": composite,
        "is_tvcategory": is_structure,
        "alpha_is_functor": alpha_functor,
        "agree": is_structure == alpha_functor,
    }


def check_tvbimodule(psi, x, y, max_enum=DEFAULT_MAX_ENUM):
    """Direct module laws against the double-functor characterization.

    The direct verdict uses Kleisli composition.  The second route reads
    psi as a map on T(X) x Y and asks for functoriality both out of the
    free-algebra tensor and out of the dual tensor, into the canonical
    structure on the quantale; agreement is recorded and gated on the
    strictness of the multiplication for this extension.
    """
    ext = x.ext
    monad = ext.monad
    q = ext.q
    direct = is_tvbimodule(psi, x, y)

    gate = ext.capabilities()["m_natural"]
    v_cat = hom_xi_category(ext, max_enum, validate=False)
    xbar = em_algebra_category(ext, x.n, max_enum)
    xop = dual_tvcategory(x, max_enum)
    psi_map = tuple(
        psi.data[s][yy] for s in range(monad.size(x.n)) for yy in range(y.n)
    )
    via = True
    for source in (xbar, xop):
        prod = tensor_tvcat(source, y, validate=False, max_enum=max_enum)
        if not check_tvfunctor(psi_map, prod, v_cat)["ok"]:
            via = False
    return {
        "direct": direct,
        "via_functors": via,
        "agree": direct == via,
        "m_natural_gate": gate,
        "ok": direct,
    }


def whisker_checks(f, x, y, phi, psi, z, max_enum=DEFAULT_MAX_ENUM):
    """Whiskering of modules along a functor, with the collapsed forms.

    phi: Y -|-> Z and psi: Z -|-> Y are modules; the whiskered composites
    must equal phi . Tf and f-transpose . psi, stay modules, and form an
    adjoint pair whenever (phi, psi) does and the m-square at f is a weak
    pullback (or T1 = 1 at the unit carrier).
    """
    ext = x.ext
    monad = ext.monad
    tf = monad.tmap(f, x.n, y.n)
    w_lower = kleisli_compose(ext, phi, induced_modules(f, x, y)[0], x.n)
    collapsed_lower = precompose_map(phi, tf, monad.size(x.n))
    w_upper = kleisli_compose(ext, induced_modules(f, x, y)[1], psi, z.n)
    collapsed_upper = select_cols(psi, f)
    report = {
        "lower_collapses": w_lower == collapsed_lower,
        "upper_collapses": w_upper == collapsed_upper,
        "lower_is_module": is_tvbimodule(collapsed_lower, x, z),
        "upper_is_module": is_tvbimodule(collapsed_upper, z, x),
        "square_bc": m_square_gap(monad, f, x.n, y.n) is None,
    }
    return report


def check_tv_adjunction(ext, phi, psi, x, y):
    """phi -| psi for phi: (Y) -|-> X and psi: (X) -|-> Y between categories.

    Unit: b <= psi * phi on Y; counit: phi * psi <= a on X.
    """
    unit = y.a.le(kleisli_compose(ext, psi, phi, y.n))
    counit = kleisli_compose(ext, phi, psi, x.n).le(x.a)
    return {"unit": unit, "counit": counit, "is_adjoint": unit and counit}


def all_tvcategories(ext, n, max_enum=DEFAULT_MAX_ENUM):
    """Every structure on an n-point carrier passing both axioms."""
    q = ext.q
    tn = ext.monad.size(n)
    total = q.n ** (tn * n)
    if total > max_enum:
        raise BudgetExceeded("structure space", total, max_enum)
    out = []
    for flat in itertools.product(range(q.n), repeat=tn * n):
        a = VMatrix(q, tn, n, tuple(flat[i * n : (i + 1) * n] for i in range(tn)))
        if check_tvcategory(ext, n, a, max_enum)["ok"]:
            out.append(TVCategory(ext, n, a))
    return out


def exponentiable(x, max_enum=DEFAULT_MAX_ENUM):
    """The function-space precondition: a . Ta = a . m as matrices."""
    ext = x.ext
    ta = ext.extend(x.a)
    lhs = mcompose(x.a, ta)
    rhs = precompose_map(x.a, ext.mult_map(x.n), ext.monad.size(ext.monad.size(x.n)))
    return lhs == rhs


class Exponential:
    """Function space Y^X: functor carrier plus the largest structure."""

    def __init__(self, base, target, carrier, structure, empty_fiber_seen):
        self.base = base
        self.target = target
        self.carrier = carrier
        self.structure = structure
        self.empty_fiber_seen = empty_fiber_seen

    @property
    def n(self):
        return len(self.carrier)

    def category(self):
        return TVCategory(self.base.ext, self.n, self.structure, name="expo")

    def index(self, h):
        return self.carrier.index(tuple(h))


def exponential_tvcat(x, y, max_enum=DEFAULT_MAX_ENUM):
    """Build Y^X: carrier of functorial maps, structure by the evaluation bound.

    Requires the precondition a . Ta = a . m on the base.  The structure
    entry at (p, h) is the largest v such that tensoring v onto the base
    structure keeps evaluation below the target structure, computed as a
    meet of residuals over the fiber of p.  Empty fibers produce the empty
    meet (top) and are flagged, since that convention is a choice.
    """
    ext = x.ext
    q = ext.q
    monad = ext.monad
    if not exponentiable(x, max_enum):
        raise GateUnavailable("exponentiable", "base fails a.Ta = a.m")
    pcat = unit_tvcategory(ext)
    xp = tensor_tvcat(x, pcat, validate=False, max_enum=max_enum)
    total = y.n ** x.n
    if total > max_enum:
        raise BudgetExceeded("function space", total, max_enum)
    funcs = [
        h
        for h in itertools.product(range(y.n), repeat=x.n)
        if check_tvfunctor(h, xp, y)["ok"]
    ]
    nf = len(funcs)
    npair = x.n * nf
    if monad.size(npair) * nf > max_enum:
        raise BudgetExceeded("exponential structure sweep", monad.size(npair) * nf, max_enum)
    pix = tuple(p for p in range(x.n) for _ in range(nf))
    pif = tuple(i for _ in range(x.n) for i in range(nf))
    ev = tuple(funcs[i][p] for p in range(x.n) for i in range(nf))
    tpix = monad.tmap(pix, npair, x.n)
    tpif = monad.tmap(pif, npair, nf)
    tev = monad.tmap(ev, npair, y.n)
    rows = monad.size(nf)
    bound = [[q.top] * nf for _ in range(rows)]
    seen = [False] * rows
    for w in range(monad.size(npair)):
        fiber_row = tpif[w]
        seen[fiber_row] = True
        arow = x.a.data[tpix[w]]
        brow = y.a.data[tev[w]]
        cell = bound[fiber_row]
        for i, h in enumerate(funcs):
            acc = cell[i]
            for p in range(x.n):
                acc = q.meet(acc, q.hom(arow[p], brow[h[p]]))
            cell[i] = acc
    structure = VMatrix(q, rows, nf, tuple(tuple(r) for r in bound))
    return Exponential(x, y, funcs, structure, not all(seen))


def check_evaluation_functor(expo, max_enum=DEFAULT_MAX_ENUM):
    """Evaluation out of base (x) exponential is a functor into the target."""
    x, y = expo.base, expo.target
    fcat = expo.category()
    prod = tensor_tvcat(x, fcat, validate=False, max_enum=max_enum)
    ev_map = tuple(expo.carrier[i][p] for p in range(x.n) for i in range(expo.n))
    return check_tvfunctor(ev_map, prod, y)


def check_exponential_maximality(expo, max_enum=DEFAULT_MAX_ENUM):
    """Bump perturbation: raising any structure entry breaks evaluation."""
    x, y = expo.base, expo.target
    q = x.q
    base_data = [list(r) for r in expo.structure.data]
    for s in range(expo.structure.rows):
        for i in range(expo.n):
            cur = base_data[s][i]
            for v in range(q.n):
                if v != cur and q.le(cur, v):
                    bumped = [list(r) for r in base_data]
                    bumped[s][i] = v
                    cand = Exponential(
                        x, y, expo.carrier, VMatrix(q, expo.structure.rows, expo.n, bumped), False
                    )
                    if check_evaluation_functor(cand, max_enum)["ok"]:
                        return {"ok": False, "witness": (s, i, q.labels[v])}
    return {"ok": True}


def oracle_largest_structure(expo, max_enum=DEFAULT_MAX_ENUM):
    """Full search for the largest evaluation-preserving structure (tiny only)."""
    x, y = expo.base, expo.target
    q = x.q
    rows, cols = expo.structure.rows, expo.n
    total = q.n ** (rows * cols)
    if total > max_enum:
        raise BudgetExceeded("largest-structure search", total, max_enum)
    best = VMatrix.constant(q, rows, cols, q.bottom)
    for flat in itertools.product(range(q.n), repeat=rows * cols):
        cand_m = VMatrix(q, rows, cols, tuple(flat[i * cols : (i + 1) * cols] for i in range(rows)))
        cand = Exponential(x, y, expo.carrier, cand_m, False)
        if check_evaluation_functor(cand, max_enum)["ok"]:
            best = best.join(cand_m)
    return best


def yoneda(x, max_enum=DEFAULT_MAX_ENUM):
    """Yoneda data into the presheaf space over the free algebra.

    Builds V^{|X|}, the map p |-> a(-, p), and returns: the bound
    inequality at every (s, phi); for each presheaf the equivalence of the
    reverse inequality with functoriality out of the dual; the restricted
    presheaf carrier; and full-and-faithfulness onto it when T1 = 1.
    An independent residual formula for the structure on the image of the
    Yoneda map is compared entrywise as an oracle.
    """
    ext = x.ext
    q = ext.q
    monad = ext.monad
    tn = monad.size(x.n)
    xbar = em_algebra_category(ext, x.n, max_enum)
    v_cat = hom_xi_category(ext, max_enum, validate=False)
    expo = exponential_tvcat(xbar, v_cat, max_enum)
    index = {h: i for i, h in enumerate(expo.carrier)}
    y_map = []
    for p in range(x.n):
        col = tuple(x.a.data[s][p] for s in range(tn))
        if col not in index:
            return {"ok": False, "law": "yoneda-column-not-in-carrier", "witness": p}
    y_map = [index[tuple(x.a.data[s][p] for s in range(tn))] for p in range(x.n)]
    fcat = expo.category()
    y_funct = check_tvfunctor(tuple(y_map), x, fcat)
    ty = monad.tmap(tuple(y_map), x.n, expo.n)

    kc = kleisli_table(x)

    bound_ok = True
    oracle_ok = True
    for s in range(tn):
        row = expo.structure.data[ty[s]]
        for i, phi in enumerate(expo.carrier):
            if not q.le(row[i], phi[s]):
                bound_ok = False
            expected = q.meet_all(q.hom(kc[t][s], phi[t]) for t in range(tn))
            if row[i] != expected:
                oracle_ok = False

    xop = dual_tvcategory(x, max_enum)
    equivalence_ok = True
    hat = []
    for i, phi in enumerate(expo.carrier):
        reverse = all(q.le(phi[s], expo.structure.data[ty[s]][i]) for s in range(tn))
        functor_dual = check_tvfunctor(phi, xop, v_cat)["ok"]
        vfunctor_oracle = all(
            q.le(q.tens(kc[t][s], phi[s]), phi[t]) for s in range(tn) for t in range(tn)
        )
        if reverse != functor_dual or reverse != vfunctor_oracle:
            equivalence_ok = False
        if functor_dual:
            hat.append(i)

    ff_ok = None
    if monad.size(1) == 1:
        ff_ok = all(
            expo.structure.data[ty[s]][y_map[p]] == x.a.data[s][p]
            for s in range(tn)
            for p in range(x.n)
        )
    return {
        "ok": bound_ok and equivalence_ok and y_funct["ok"] and oracle_ok,
        "yoneda_is_functor": y_funct["ok"],
        "bound_inequality": bound_ok,
        "structure_oracle": oracle_ok,
        "equivalence": equivalence_ok,
        "hat_carrier": hat,
        "presheaf_count": expo.n,
        "fully_faithful": ff_ok,
        "empty_fiber_seen": expo.empty_fiber_seen,
    }


def yoneda0(x, max_enum=DEFAULT_MAX_ENUM):
    """Second Yoneda morphism, into presheaves over the dual.

    Gated on Te . e = m-transpose . e; reports the lower bound everywhere
    and the upper bound at those s whose extended structure is reflexive
    at the unit image.
    """
    ext = x.ext
    q = ext.q
    monad = ext.monad
    tn = monad.size(x.n)
    e = ext.unit_map(x.n)
    e_t = ext.unit_map(tn)
    te = monad.tmap(e, x.n, tn)
    mu = ext.mult_map(x.n)
    pre_ok = all(
        (mu[big] == e[p]) == (te[e[p]] == big)
        for p in range(x.n)
        for big in range(monad.size(tn))
    )
    if not pre_ok:
        return {"ok": None, "precondition": False}
    xop = dual_tvcategory(x, max_enum)
    v_cat = hom_xi_category(ext, max_enum, validate=False)
    expo = exponential_tvcat(xop, v_cat, max_enum)
    index = {h: i for i, h in enumerate(expo.carrier)}
    cols = [tuple(x.a.data[s][p] for s in range(tn)) for p in range(x.n)]
    if any(c not in index for c in cols):
        return {"ok": False, "precondition": True, "law": "column-not-presheaf"}
    y0 = [index[c] for c in cols]
    ty0 = monad.tmap(tuple(y0), x.n, expo.n)
    ta = ext.extend(x.a)
    lower_ok = True
    upper_ok = True
    gated = 0
    for s in range(tn):
        row = expo.structure.data[ty0[s]]
        for i, phi in enumerate(expo.carrier):
            if not q.le(phi[s], row[i]):
                lower_ok = False
        if q.le(q.unit, ta.data[e_t[s]][s]):
            gated += 1
            for i, phi in enumerate(expo.carrier):
                if not q.le(row[i], phi[s]):
                    upper_ok = False
    return {
        "ok": lower_ok and upper_ok,
        "precondition": True,
        "lower": lower_ok,
        "upper_at_gated": upper_ok,
        "gated_points": gated,
        "presheaf_count": expo.n,
    }
