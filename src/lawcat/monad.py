"""Finitary Set-monads with canonically indexed carriers.

Each monad enumerates T(X) for the abstract set X = {0..n-1} and exposes
the functor action, unit and multiplication as index tables, so matrices
over T-carriers are ordinary dense matrices.  T applied twice is T of a
set of size |T(n)|, which keeps the indexing uniform at every depth.
"""

from __future__ import annotations

import itertools
import threading

from .errors import BudgetExceeded

HARD_CARRIER_CAP = 1 << 20

# Ints held, summed over the kept values, that one monad's table store may
# hold: its unit and multiplication tables, multiplication fibres and T of
# product projections.  It holds every powerset table up to 4 points (the
# multiplication table and its fibres at 4 points hold 2^16 ints each).
TABLE_ENTRIES = 1 << 17


class BoundedStore(dict):
    """A dict of kept values whose measures sum to at most limit.

    Lookups are plain dict reads.  remember(key, value) stores under one
    lock, evicting the oldest entries first, and returns value; a value
    whose measure exceeds limit is returned without being stored.  size is
    the sum of the measures of the stored values.
    """

    def __init__(self, limit, measure):
        super().__init__()
        self.limit = limit
        self.measure = measure
        self.size = 0
        self._lock = threading.Lock()

    def remember(self, key, value):
        size = self.measure(value)
        if size <= self.limit:
            with self._lock:
                if key not in self:
                    while self.size + size > self.limit:
                        self.size -= self.measure(self.pop(next(iter(self))))
                    self[key] = value
                    self.size += size
        return value


def _ints_held(table):
    """The ints in an index table, or in a tuple of index tables."""
    if table and isinstance(table[0], tuple):
        return sum(map(len, table))
    return len(table)


class FiniteMonad:
    """Interface: size, functor action, unit, multiplication, labels.

    unit_map and mult_map build the unit and multiplication tables;
    unit_table, mult_table, mult_fibers and projections are the tables
    every construction reads, kept in the monad's own BoundedStore of
    TABLE_ENTRIES ints, since they depend on nothing but the monad: a
    process that decides many structures over one monad builds each
    once, and every extension of the monad shares them.  capabilities is
    monad_capabilities, computed once: T1 and T0 read off the sizes, and
    the m-BC sweep of check_bc that completeness_gate reads.
    """

    name = "?"

    def __init__(self):
        self._tables = BoundedStore(TABLE_ENTRIES, _ints_held)
        self._capabilities = None

    def unit_table(self, n):
        """unit_map(n), kept."""
        table = self._tables.get(("unit", n))
        if table is None:
            table = self._tables.remember(("unit", n), self.unit_map(n))
        return table

    def mult_table(self, n):
        """mult_map(n), kept."""
        table = self._tables.get(("mult", n))
        if table is None:
            table = self._tables.remember(("mult", n), self.mult_map(n))
        return table

    def mult_fibers(self, n):
        """Preimage lists of the multiplication, indexed by T(n), kept."""
        fibers = self._tables.get(("fibers", n))
        if fibers is None:
            fibers = [[] for _ in range(self.size(n))]
            for big, small in enumerate(self.mult_table(n)):
                fibers[small].append(big)
            fibers = self._tables.remember(("fibers", n), tuple(map(tuple, fibers)))
        return fibers

    def projections(self, nx, ny):
        """T of the two projections of the product carrier nx x ny, kept.

        The product is indexed row-major, (x, y) at x * ny + y.
        """
        key = ("projections", nx, ny)
        pair = self._tables.get(key)
        if pair is None:
            pix = tuple(x for x in range(nx) for _ in range(ny))
            piy = tuple(y for _ in range(nx) for y in range(ny))
            pair = (self.tmap(pix, nx * ny, nx), self.tmap(piy, nx * ny, ny))
            pair = self._tables.remember(key, pair)
        return pair

    def capabilities(self):
        """monad_capabilities(self), computed on the first call and kept."""
        if self._capabilities is None:
            self._capabilities = monad_capabilities(self)
        return self._capabilities

    def size(self, n):
        raise NotImplementedError

    def tmap(self, f, n_src, n_tgt):
        """Index table of T(f) for f given as an index table."""
        raise NotImplementedError

    def unit_map(self, n):
        raise NotImplementedError

    def mult_map(self, n):
        raise NotImplementedError

    def labels(self, n, base):
        raise NotImplementedError

    def row_lookup(self, col_index):
        """The reader of a file's row labels: a function from a label to
        its index in T(n), or None if no element of T(n) has that label,
        where col_index maps each of the n element labels to its position.
        This default lists labels()."""
        rows = self.labels(len(col_index), tuple(col_index))
        return {lab: i for i, lab in enumerate(rows)}.get

    def mult_image(self, g, n, k):
        """The distinct pairs (m_n(s), T(g)(s)) for s in T(T(n)), g: T(n) -> k.

        A check that reads each s only through these two maps is decided
        on this set.  This default zips the two full tables; it is the
        reference that every override must equal as a set.
        """
        return frozenset(zip(self.mult_table(n), self.tmap(g, self.size(n), k)))

    def tmap_image(self, maps, n):
        """The distinct tuples (T(f)(w) for (f, k) in maps) for w in T(n).

        Each f: n -> k is an index table with its target size k.  This
        default zips the full tables; it is the reference that every
        override must equal as a set.
        """
        return frozenset(zip(*(self.tmap(f, n, k) for f, k in maps)))

    def extend_relation(self, pairs, nx, ny):
        """Span extension of a plain relation: T of the graph set, projected.

        The graph is enumerated as an abstract finite set; the result is the
        set of (T q(z), T p(z)) for z in T(graph), with q, p the projections.
        """
        pairs = sorted(pairs)
        g = len(pairs)
        if self.size(g) > HARD_CARRIER_CAP:
            raise BudgetExceeded("span extension over relation graph", self.size(g), HARD_CARRIER_CAP)
        qmap = tuple(p[0] for p in pairs)
        pmap = tuple(p[1] for p in pairs)
        tq = self.tmap(qmap, g, nx)
        tp = self.tmap(pmap, g, ny)
        return frozenset(zip(tq, tp))

    def __repr__(self):
        return f"<monad {self.name}>"


class IdentityMonad(FiniteMonad):
    name = "id"

    def size(self, n):
        return n

    def tmap(self, f, n_src, n_tgt):
        return tuple(f)

    def unit_map(self, n):
        return tuple(range(n))

    def mult_map(self, n):
        return tuple(range(n))

    def labels(self, n, base):
        return tuple(base)

    def row_lookup(self, col_index):
        return col_index.get


class UltrafilterMonad(IdentityMonad):
    """Ultrafilters on a finite set: all principal, indexed by their point.

    Index arithmetic is that of the identity monad: the element i stands
    for the principal ultrafilter of the subsets containing i.
    """

    name = "ultra"


class PowersetMonad(FiniteMonad):
    """Covariant powerset: T(X) = subsets of X as bitmasks, e = singleton, m = union."""

    name = "powerset"

    def size(self, n):
        if n >= 24:
            raise BudgetExceeded("powerset carrier", 1 << n, HARD_CARRIER_CAP)
        return 1 << n

    def tmap(self, f, n_src, n_tgt):
        # Doubling: the masks in [2^b, 2^(b+1)) are the masks below 2^b
        # with bit b added, so their images gain f(b).
        out = [0]
        for b in range(n_src):
            bit = 1 << f[b]
            out += [img | bit for img in out]
        return tuple(out)

    def unit_map(self, n):
        return tuple(1 << x for x in range(n))

    def mult_map(self, n):
        tn = self.size(n)
        if self.size(tn) > HARD_CARRIER_CAP:
            raise BudgetExceeded("powerset multiplication table", self.size(tn), HARD_CARRIER_CAP)
        out = [0]
        for b in range(tn):
            out += [u | b for u in out]
        return tuple(out)

    def mult_image(self, g, n, k):
        """The pairs (m(s), T(g)(s)) as a union closure.

        Every s in T(T(n)) is the union of its singletons {A}, and both m
        (union) and T(g) (direct image) send unions to unions.  So the
        pairs are the unions of the pairs (A, {g(A)}), the empty union
        (0, 0) included: at most 2^(n+k) of them, where the tables have
        2^(2^n) entries.  A pair is packed into one int, T(g)(s) above
        bit n.
        """
        packed = _union_closure(a | 1 << (g[a] + n) for a in range(1 << n))
        low = (1 << n) - 1
        return frozenset((p & low, p >> n) for p in packed)

    def tmap_image(self, maps, n):
        """The tuples (T(f)(w))_f as a union closure.

        Every w in T(n) is the union of its singletons {x}, and each T(f)
        sends unions to unions, so the tuples are the unions of the
        tuples ({f(x)})_f, the empty union included.  A tuple is packed
        into one int, the mask of each map above the widths of the maps
        before it.
        """
        offsets = list(itertools.accumulate((k for _, k in maps), initial=0))
        packed = _union_closure(
            sum(1 << (f[x] + off) for (f, _), off in zip(maps, offsets)) for x in range(n)
        )
        fields = [(off, (1 << k) - 1) for (_, k), off in zip(maps, offsets)]
        return frozenset(tuple(p >> off & mask for off, mask in fields) for p in packed)

    def labels(self, n, base):
        return subset_labels(base[:n])

    def row_lookup(self, col_index):
        # A subset's label names its points in increasing order, so it is
        # read back point by point instead of listing the 2^n labels.
        def mask_of(label):
            if not (label[:1] == "{" and label[-1:] == "}"):
                return None
            mask = 0
            if label != "{}":
                for part in label[1:-1].split(","):
                    b = col_index.get(part)
                    if b is None or mask >> b:  # unknown, repeated or out of order
                        return None
                    mask |= 1 << b
            return mask

        return mask_of

    def extend_relation(self, pairs, nx, ny):
        # Subsets of the graph project exactly to the pairs (A, B) where
        # every point of A sees B and every point of B is seen from A, so
        # the span can be evaluated without materializing 2^|graph| sets.
        succ = [0] * nx
        pred = [0] * ny
        for (x, y) in pairs:
            succ[x] |= 1 << y
            pred[y] |= 1 << x
        tn_x, tn_y = 1 << nx, 1 << ny
        succ_of = [0] * tn_x
        for a in range(1, tn_x):
            low = (a & -a).bit_length() - 1
            succ_of[a] = succ_of[a & (a - 1)] | succ[low]
        pre_of = [0] * tn_y
        for b in range(1, tn_y):
            low = (b & -b).bit_length() - 1
            pre_of[b] = pre_of[b & (b - 1)] | pred[low]
        out = []
        for a in range(tn_x):
            sa = succ_of[a]
            for b in range(tn_y):
                if (a & ~pre_of[b]) == 0 and (b & ~sa) == 0:
                    out.append((a, b))
        return frozenset(out)


def subset_labels(base):
    """The label of each subset of base, indexed by its bitmask: its points
    in increasing order, "{a,b}", as PowersetMonad.row_lookup reads back."""
    return tuple(
        "{" + ",".join(label for b, label in enumerate(base) if mask >> b & 1) + "}"
        for mask in range(1 << len(base))
    )


def _union_closure(gens):
    """Every union of finitely many of the bitmasks gens, 0 included."""
    out = {0}
    for g in gens:
        # out is closed under union, so a member adds nothing new.
        if g not in out:
            out |= {p | g for p in out}
    return out


_MONADS = None


def builtin_monads():
    global _MONADS
    if _MONADS is None:
        _MONADS = {"id": IdentityMonad(), "powerset": PowersetMonad(), "ultra": UltrafilterMonad()}
    return _MONADS


def builtin_monad(name):
    cat = builtin_monads()
    if name not in cat:
        raise KeyError(f"unknown monad {name!r}; have {sorted(cat)}")
    return cat[name]


def _all_functions(n_src, n_tgt):
    return itertools.product(range(n_tgt), repeat=n_src)


def m_square_gap(monad, f, nx, ny):
    """Where the naturality square of m at f fails to be a weak pullback.

    Returns the first (alpha, beta) with m(alpha) = Tf(beta) that is not
    (TTf(s), m(s)) for any s in TT(nx), or None when the square is one.
    """
    tf = monad.tmap(f, nx, ny)
    ttf = monad.tmap(tf, monad.size(nx), monad.size(ny))
    mu_x, mu_y = monad.mult_table(nx), monad.mult_table(ny)
    achieved = {(ttf[s], mu_x[s]) for s in range(monad.size(monad.size(nx)))}
    for alpha in range(monad.size(monad.size(ny))):
        for beta in range(monad.size(nx)):
            if mu_y[alpha] == tf[beta] and (alpha, beta) not in achieved:
                return alpha, beta
    return None


def check_bc(monad, max_n=3):
    """Beck-Chevalley for m, swept: every naturality square of m at a
    function between sets of size <= max_n is a weak pullback, or
    m_witness is (nx, ny, f, alpha, beta) for the first that is not."""
    for nx, ny in itertools.product(range(max_n + 1), repeat=2):
        for f in _all_functions(nx, ny):
            gap = m_square_gap(monad, f, nx, ny)
            if gap is not None:
                return {"m_bc": False, "m_witness": (nx, ny, f, *gap), "max_n": max_n}
    return {"m_bc": True, "m_witness": None, "max_n": max_n}


def monad_capabilities(monad):
    """Capability flags consumed by the conditional theorems downstream."""
    # A monad that keeps 3 points at 3 is swept to n = 3; a growing one
    # (powerset) only to n = 2, where its squares stay enumerable.
    bc_max_n = 3 if monad.size(3) == 3 else 2
    bc = check_bc(monad, bc_max_n)
    return {
        "t1_is_one": monad.size(1) == 1,
        "t_empty_is_empty": monad.size(0) == 0,
        "m_bc": bc["m_bc"],
        "bc_max_n": bc_max_n,
    }
