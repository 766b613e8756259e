"""Finite commutative unital quantales with exact table arithmetic.

Elements are integer indices into a fixed carrier.  The lattice order,
the tensor and its unit are given as explicit tables; joins, meets,
lattice bounds and the residuation table are derived during validation.
Everything is bit-exact: indices in, indices out, no floats anywhere.

The chains stand in for distances: their labels read inf < ... < 1 < 0,
so the order of distances is the lattice order reversed.  A chain
carries no second table of distances; whatever reads it as one
(instances.approach_surrogate) reads the lattice order.
"""

from __future__ import annotations

from functools import cached_property

from .errors import QuantaleMismatch
from .monad import subset_labels


class Quantale:
    """A finite commutative unital quantale presented by tables.

    The residuation hom is the right adjoint of the tensor:
    u (x) v <= w  iff  v <= hom(u, w).
    """

    def __init__(self, name, labels, leq, tensor, unit):
        self.name = name
        self.labels = tuple(labels)
        # label -> index, the first index of a repeated label, as tuple.index
        self.label_index = {}
        for i, label in enumerate(self.labels):
            self.label_index.setdefault(label, i)
        self.leq = tuple(tuple(bool(v) for v in row) for row in leq)
        self.tensor = tuple(tuple(row) for row in tensor)
        self.unit = unit
        self.join_t = None
        self.meet_t = None
        self.hom_t = None
        self.bottom = None
        self.top = None
        # The extend memo of each monad, shared by every LaxExtension of
        # this quantale (laxext.LaxExtension).
        self.extension_memos = {}

    @property
    def n(self):
        return len(self.labels)

    def __repr__(self):
        return f"Quantale({self.name!r}, {self.n} elements)"

    def index(self, label):
        try:
            return self.label_index[label]
        except KeyError:
            raise ValueError(f"{label!r} is not an element of {self.name}") from None

    def le(self, u, v):
        return self.leq[u][v]

    def tens(self, u, v):
        return self.tensor[u][v]

    def join(self, u, v):
        return self.join_t[u][v]

    def meet(self, u, v):
        return self.meet_t[u][v]

    def join_all(self, elems):
        """Join of an iterable of elements; the empty join is bottom."""
        acc = self.bottom
        for e in elems:
            acc = self.join_t[acc][e]
        return acc

    @cached_property
    def join_prime_unit(self):
        """Whether V is integral (k = top) and top is join-irreducible,
        tested as "top is not the join of all other elements", which also
        excludes top = bottom (the empty join).  Read after validation, on
        the first read only."""
        top = self.top
        return self.unit == top and self.join_all([u for u in range(self.n) if u != top]) != top

    def is_meet_tensor(self):
        """True when the tensor coincides with the lattice meet."""
        return self.tensor == self.meet_t


def same_quantale(a, b):
    if a is not b:
        raise QuantaleMismatch(f"mixed quantales: {a.name} vs {b.name}")


def validate_quantale(q):
    """Check all quantale laws exhaustively and fill the derived tables.

    Returns {"ok": True} on success; on the first violated law returns
    {"ok": False, "law": <name>, "witness": <labels>}.  A passing call
    leaves joins, meets, bounds and the hom table populated on q.
    """
    n = q.n

    def fail(law, *witness):
        return {"ok": False, "law": law, "witness": tuple(q.labels[i] for i in witness)}

    if n == 0:
        return {"ok": False, "law": "empty-carrier", "witness": ()}
    for row in q.leq:
        if len(row) != n:
            return {"ok": False, "law": "ragged-order-table", "witness": ()}
    for row in q.tensor:
        if len(row) != n or any(not (0 <= x < n) for x in row):
            return {"ok": False, "law": "tensor-not-total", "witness": ()}

    for u in range(n):
        if not q.leq[u][u]:
            return fail("order-reflexive", u)
    for u in range(n):
        for v in range(n):
            if u != v and q.leq[u][v] and q.leq[v][u]:
                return fail("order-antisymmetric", u, v)
            for w in range(n):
                if q.leq[u][v] and q.leq[v][w] and not q.leq[u][w]:
                    return fail("order-transitive", u, v, w)

    join_t = [[None] * n for _ in range(n)]
    meet_t = [[None] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            ubs = [w for w in range(n) if q.leq[u][w] and q.leq[v][w]]
            least = [w for w in ubs if all(q.leq[w][x] for x in ubs)]
            if len(least) != 1:
                return fail("join-missing", u, v)
            join_t[u][v] = least[0]
            lbs = [w for w in range(n) if q.leq[w][u] and q.leq[w][v]]
            greatest = [w for w in lbs if all(q.leq[x][w] for x in lbs)]
            if len(greatest) != 1:
                return fail("meet-missing", u, v)
            meet_t[u][v] = greatest[0]
    q.join_t = tuple(tuple(r) for r in join_t)
    q.meet_t = tuple(tuple(r) for r in meet_t)
    bottom = 0
    top = 0
    for u in range(n):
        bottom = meet_t[bottom][u]
        top = join_t[top][u]
    q.bottom = bottom
    q.top = top

    for u in range(n):
        for v in range(n):
            if q.tensor[u][v] != q.tensor[v][u]:
                return fail("tensor-commutative", u, v)
            for w in range(n):
                if q.tensor[q.tensor[u][v]][w] != q.tensor[u][q.tensor[v][w]]:
                    return fail("tensor-associative", u, v, w)
    for u in range(n):
        if q.tensor[q.unit][u] != u:
            return fail("tensor-unit", u)
    for u in range(n):
        if q.tensor[u][bottom] != bottom:
            return fail("tensor-bottom", u)
        for v in range(n):
            for w in range(n):
                if q.tensor[u][join_t[v][w]] != join_t[q.tensor[u][v]][q.tensor[u][w]]:
                    return fail("tensor-join-distributive", u, v, w)

    if q.unit == bottom:
        return fail("trivial-quantale", q.unit)

    # Residuation by brute-force join over the adjunction condition.
    hom_t = [[None] * n for _ in range(n)]
    for u in range(n):
        for w in range(n):
            cands = [v for v in range(n) if q.leq[q.tensor[u][v]][w]]
            acc = bottom
            for v in cands:
                acc = join_t[acc][v]
            hom_t[u][w] = acc
    q.hom_t = tuple(tuple(r) for r in hom_t)
    for u in range(n):
        for v in range(n):
            for w in range(n):
                if q.leq[q.tensor[u][v]][w] != q.leq[v][hom_t[u][w]]:
                    return fail("hom-adjunction", u, v, w)

    return {"ok": True}


def tensor_complement_scan(q):
    """Scan for tensor-complement pairs and the two map-criterion hypotheses.

    v is a tensor complement of u when u v v = k and u (x) v = bottom.
    Reports all such pairs, whether k and bottom are the only complemented
    elements, and whether u (x) v = k forces u = k = v.
    """
    pairs = []
    complemented = set()
    for u in range(q.n):
        for v in range(q.n):
            if q.join(u, v) == q.unit and q.tens(u, v) == q.bottom:
                pairs.append((u, v))
                complemented.add(u)
                complemented.add(v)
    only_trivial = complemented <= {q.unit, q.bottom}
    unit_forces = all(
        not (q.tens(u, v) == q.unit) or (u == q.unit and v == q.unit)
        for u in range(q.n)
        for v in range(q.n)
    )
    idempotent_ok = all(q.tens(u, u) == u for u in complemented)
    at_most_one = all(
        len([v for (u2, v) in pairs if u2 == u]) <= 1 for u in range(q.n)
    )
    return {
        "pairs": [(q.labels[u], q.labels[v]) for (u, v) in pairs],
        "only_trivial_complemented": only_trivial,
        "tensor_unit_forces_unit": unit_forces,
        "hypotheses_hold": only_trivial and unit_forces,
        "complemented_idempotent": idempotent_ok,
        "at_most_one_complement": at_most_one,
    }


def _finish(q):
    report = validate_quantale(q)
    if not report["ok"]:
        raise ValueError(f"builtin quantale {q.name} failed validation: {report}")
    return q


def two_chain():
    """The two-element chain with tensor = meet and unit = top."""
    return _finish(
        Quantale(
            "2",
            ("0", "1"),
            ((True, True), (False, True)),
            ((0, 0), (0, 1)),
            unit=1,
        )
    )


def meet_chain(size, name=None):
    """Chain of `size` elements, tensor = meet, unit = top.

    Models the max-tensor half-line at finite scale: the carrier reads
    inf < size-2 < ... < 1 < 0 in the lattice order (the labels count
    down as the order goes up), and the top element 0 is the unit.
    """
    labels = ["inf"] + [str(size - 1 - i) for i in range(1, size)]
    leq = [[i <= j for j in range(size)] for i in range(size)]
    tensor = [[min(i, j) for j in range(size)] for i in range(size)]
    return _finish(
        Quantale(name or f"c{size}", labels, leq, tensor, unit=size - 1)
    )


def plus_chain(finite_levels, name=None):
    """Truncated-addition chain {0..m, inf} with m = finite_levels - 1.

    Tensor is addition of the labels capped at inf (a+b if a+b <= m, else
    inf); inf is absorbing; the unit is 0, which is the lattice top since
    the lattice order reverses the order of the labels.  Index i > 0 is
    the label size - 1 - i.
    """
    size = finite_levels + 1
    cap = finite_levels - 1
    labels = ["inf"] + [str(cap - i) for i in range(finite_levels)]
    leq = [[i <= j for j in range(size)] for i in range(size)]

    def tens(i, j):
        if i == 0 or j == 0:
            return 0
        s = (size - 1 - i) + (size - 1 - j)
        if s > cap:
            return 0
        return size - 1 - s

    tensor = [[tens(i, j) for j in range(size)] for i in range(size)]
    return _finish(
        Quantale(name or f"plus{finite_levels}", labels, leq, tensor, unit=size - 1)
    )


def powerset_quantale(base_labels, name=None):
    """Powerset of a finite set with tensor = intersection, unit = whole set."""
    k = len(base_labels)
    n = 1 << k
    labels = subset_labels(base_labels)
    leq = [[(i & j) == i for j in range(n)] for i in range(n)]
    tensor = [[i & j for j in range(n)] for i in range(n)]
    return _finish(Quantale(name or f"pset{k}", labels, leq, tensor, unit=n - 1))


_BUILTINS = None


def builtin_quantales():
    """Catalog of validated built-in quantales, keyed by name."""
    global _BUILTINS
    if _BUILTINS is None:
        _BUILTINS = {
            "2": two_chain(),
            "c3": meet_chain(3),
            "c4": meet_chain(4),
            "plus2": plus_chain(2),
            "plus3": plus_chain(3),
            "plus4": plus_chain(4),
            "pset1": powerset_quantale(("a",)),
            "pset2": powerset_quantale(("a", "b")),
            "pset3": powerset_quantale(("a", "b", "c")),
        }
    return _BUILTINS


def builtin(name):
    cat = builtin_quantales()
    if name not in cat:
        raise KeyError(f"unknown built-in quantale {name!r}; have {sorted(cat)}")
    return cat[name]
