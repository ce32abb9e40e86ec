"""Exact arithmetic in GF(p^e), GF(q) < GF(q^l), and GF(q^l)^m as GF(q)^(ml).

Field elements are ints in [0, p^e) encoding coefficient vectors over GF(p),
constant coefficient in the least significant base-p digit.  Multiplication
goes through log/antilog tables, so fields above 2^20 elements are rejected.
GF(q^l) row reduction (`FieldTower.mid_reduce`) reads per-scalar
multiplication rows, plus an addition table at odd p, up to q^l = TABLE_CAP
= 256; above, `FiniteField`.

Vectors over GF(q) of length v are packed into a single int with base-q
digits, coordinate 0 in the least significant digit.  For q = p^e a packed
vector is therefore one base-p digit string, and adding vectors is the same
digit-by-digit addition over GF(p) as adding field elements (`add_digits`);
for characteristic 2 it is plain integer XOR.  So is adding rows of GF(q^l)
elements packed as base-q^l digits (`atlas.GlAtlas.label_keys`).
`digit_add_table` tabulates that addition for values below a power of p; it
serves both the GF(q^l) elimination tables and the chunk tables of
`subspaces.VectorOps`, which share the cap TABLE_CAP and take their
digit-wise scaling from `digit_scale_table`.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Sequence

_TABLE_LIMIT = 1 << 20
TABLE_CAP = 256  # largest side of an addition or scaling table


def prime_power(q: int) -> tuple[int, int]:
    """Decompose q = p^e with p prime, or raise ValueError.

    A q above the field table limit is refused before it is factored.
    """
    if q > _TABLE_LIMIT:
        raise ValueError(f"q={q} is above the field table limit {_TABLE_LIMIT}")
    factors = factorize(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    p = next(iter(factors))
    return p, factors[p]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (desk-scale inputs only); {} below 2."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def pack_coords(coords: Sequence[int], q: int) -> int:
    n = 0
    for c in reversed(coords):
        n = n * q + c
    return n


def unpack_coords(n: int, q: int, length: int) -> tuple[int, ...]:
    out = []
    for _ in range(length):
        n, c = divmod(n, q)
        out.append(c)
    return tuple(out)


def add_digits(a: int, b: int, p: int, s: int = 1) -> int:
    """a + s*b digit by digit mod p, on ints packed as base-p digits.

    s is a nonzero residue mod p (p - 1 subtracts); at p = 2 this is a ^ b.
    """
    if p == 2:
        return a ^ b
    out, mult = 0, 1
    while a or b:
        a, ca = divmod(a, p)
        b, cb = divmod(b, p)
        out += (ca + s * cb) % p * mult
        mult *= p
    return out


@lru_cache(maxsize=None)
def digit_add_table(p: int, n: int) -> list[list[int]]:
    """add[a][x] = a + x digit by digit mod p, for a, x below n, a power of p.

    One table per (p, n), shared by every caller: read it, never write it.
    """
    add = [list(range(n))]
    for a in range(1, n):
        add.append([(a + x) % p + p * add[a // p][x // p] for x in range(n)])
    return add


@lru_cache(maxsize=None)
def digit_scale_table(q: int, w: int) -> list[list[int]]:
    """scale[s][x] = s times each base-q digit of x, for x below q^w; shared, as
    digit_add_table: read it, never write it."""
    f, scale = field_for_order(q), []
    for s in range(q):
        row = [f.mul(s, d) for d in range(q)]  # one digit; x = q * (x // q) + x % q
        for x in range(q, q ** w):
            row.append(row[x % q] + q * row[x // q])
        scale.append(row)
    return scale


# ---------------------------------------------------------------------------
# polynomials over GF(p): tuples of ints, constant first, no trailing zeros

def _poly_trim(a: tuple[int, ...]) -> tuple[int, ...]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_mod(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    lb_inv = pow(lb, p - 2, p)
    while len(a) - 1 >= db and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        factor = a[-1] * lb_inv % p
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * c) % p
        a.pop()
    return _poly_trim(tuple(a))


@lru_cache(maxsize=None)
def _monic_irreducibles(p: int, max_deg: int) -> tuple[tuple[int, ...], ...]:
    """All monic irreducibles over GF(p) of degree 1..max_deg, by sieve."""
    found: list[tuple[int, ...]] = []
    for d in range(1, max_deg + 1):
        for low in range(p ** d):
            cand = unpack_coords(low, p, d) + (1,)
            if any(_poly_mod(cand, f, p) == () for f in found if len(f) - 1 <= d // 2):
                continue
            found.append(cand)
    return tuple(found)


def _least_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Monic irreducible of degree e over GF(p) with least low-coefficient encoding."""
    divisors = [f for f in _monic_irreducibles(p, e // 2)]
    for low in range(p ** e):
        cand = unpack_coords(low, p, e) + (1,)
        if all(_poly_mod(cand, f, p) != () for f in divisors):
            return cand
    raise RuntimeError(f"no irreducible of degree {e} over GF({p})")


class FiniteField:
    """GF(p^e) with the lexicographically least defining irreducible.

    The primitive element is the least element (in integer encoding) of full
    multiplicative order.  Construction is deterministic in (p, e).
    """

    def __init__(self, p: int, e: int):
        if factorize(p) != {p: 1}:
            raise ValueError(f"characteristic {p} is not prime")
        if e < 1:
            raise ValueError(f"extension degree {e} must be positive")
        if p ** e > _TABLE_LIMIT:
            raise ValueError(f"GF({p}^{e}) is above the field table limit {_TABLE_LIMIT}")
        self.p = p
        self.e = e
        self.order = p ** e
        self.modulus = _least_irreducible(p, e)
        self._mod_low = pack_coords(self.modulus[:e], p)
        self.primitive = self._find_primitive()
        self._build_tables()

    # -- raw polynomial arithmetic (construction of the tables) --------------

    def _mul_raw(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        if p == 2:
            top = 1 << e
            acc = 0
            while b:
                if b & 1:
                    acc ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= self._mod_low | top
            return acc
        ca = unpack_coords(a, p, e)
        cb = unpack_coords(b, p, e)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        rem = _poly_mod(tuple(prod), self.modulus, p)
        return pack_coords(rem + (0,) * (e - len(rem)), p)

    def _pow_raw(self, a: int, n: int) -> int:
        acc = 1
        while n:
            if n & 1:
                acc = self._mul_raw(acc, a)
            a = self._mul_raw(a, a)
            n >>= 1
        return acc

    def _find_primitive(self) -> int:
        group = self.order - 1
        if group == 1:
            return 1
        primes = list(factorize(group))
        for x in range(2, self.order):
            if all(self._pow_raw(x, group // r) != 1 for r in primes):
                return x
        raise RuntimeError("no primitive element found")

    def _build_tables(self) -> None:
        n = self.order - 1
        exp = [0] * (2 * n)
        log = [0] * self.order
        x = 1
        for i in range(n):
            exp[i] = x
            log[x] = i
            x = self._mul_raw(x, self.primitive)
        assert x == 1, "primitive element order mismatch"
        for i in range(n, 2 * n):
            exp[i] = exp[i - n]
        self.exp = exp
        self.log = log

    # -- public arithmetic ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return add_digits(a, b, self.p)

    def sub(self, a: int, b: int) -> int:
        return add_digits(a, b, self.p, self.p - 1)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.exp[self.order - 1 - self.log[a]]

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            return 0 if n else 1
        return self.exp[self.log[a] * n % (self.order - 1)]

    def coeffs(self, a: int) -> tuple[int, ...]:
        return unpack_coords(a, self.p, self.e)

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"


@lru_cache(maxsize=None)
def finite_field(p: int, e: int) -> FiniteField:
    return FiniteField(p, e)


def field_for_order(q: int) -> FiniteField:
    return finite_field(*prime_power(q))


class Extension:
    """GF(q^l) as an l-dimensional vector space over GF(q).

    The basis is the power basis 1, w, ..., w^(l-1) of the least primitive
    element w of GF(q^l), so the first basis vector is 1.  Coordinate vectors
    are packed base-q ints; `pow_to_mid` / `mid_to_pow` convert between packed
    coordinates and field elements.
    """

    def __init__(self, base: FiniteField, degree: int):
        if degree < 1:
            raise ValueError("extension degree must be positive")
        self.base = base
        self.degree = degree
        self.mid = finite_field(base.p, base.e * degree)
        self.q = base.order
        self.embed = self._build_embedding()
        mid = self.mid
        self.w = mid.primitive
        self.wpow = [mid.pow(self.w, i) for i in range(degree)]
        self._build_coord_tables()

    def _build_embedding(self) -> list[int]:
        base, mid = self.base, self.mid
        if base.e == 1:
            return list(range(base.p))
        # embed via the least root of the base modulus inside mid's subfield
        sub = [0]
        gamma = mid.pow(mid.primitive, (mid.order - 1) // (base.order - 1))
        x = 1
        for _ in range(base.order - 1):
            sub.append(x)
            x = mid.mul(x, gamma)
        root = None
        for xi in sorted(sub):
            acc = 0
            for c in reversed(base.modulus):
                acc = mid.add(mid.mul(acc, xi), c % base.p)
            if acc == 0:
                root = xi
                break
        assert root is not None, "base modulus has no root in extension"
        table = [0] * base.order
        for a in range(base.order):
            acc = 0
            for c in reversed(base.coeffs(a)):
                acc = mid.add(mid.mul(acc, root), c)
            table[a] = acc
        assert len(set(table)) == base.order
        return table

    def _build_coord_tables(self) -> None:
        mid, q, l = self.mid, self.q, self.degree
        slot = [[mid.mul(self.embed[c], self.wpow[i]) for c in range(q)]
                for i in range(l)]
        self.slot = slot
        pow_to_mid = [0] * mid.order
        for v in range(mid.order):
            acc = 0
            for i, c in enumerate(unpack_coords(v, q, l)):
                if c:
                    acc = mid.add(acc, slot[i][c])
            pow_to_mid[v] = acc
        mid_to_pow = [0] * mid.order
        for v, x in enumerate(pow_to_mid):
            mid_to_pow[x] = v
        assert len(set(pow_to_mid)) == mid.order, "power basis is degenerate"
        self.pow_to_mid = pow_to_mid
        self.mid_to_pow = mid_to_pow


@lru_cache(maxsize=None)
def extension(q: int, l: int) -> Extension:
    """GF(q^l) over GF(q), one shared instance per (q, l)."""
    return Extension(field_for_order(q), l)


class FieldTower:
    """GF(q) < GF(q^l) and the packed GF(q)^(ml) coordinate identification.

    GF(q)^(ml) is identified with GF(q^l)^m coordinate-wise: flat position
    (j*l + i) holds the coefficient of w^i in the j-th GF(q^l) coordinate.
    """

    def __init__(self, p: int, q_exponent: int, l: int, m: int):
        if q_exponent < 1 or l < 1 or m < 1:
            raise ValueError("all tower degrees must be positive")
        self.p = p
        self.q_exponent = q_exponent
        self.l = l
        self.m = m
        self.base = finite_field(p, q_exponent)
        self.ext = extension(self.base.order, l)
        self.mid = self.ext.mid
        self.q = self.base.order
        self.Q = self.mid.order
        self.v = m * l

    # -- the coordinate identification ---------------------------------------

    def flatten_packed(self, vec: Sequence[int]) -> int:
        shift = self.q ** self.l
        out = 0
        for x in reversed(vec):
            out = out * shift + self.ext.mid_to_pow[x]
        return out

    def unflatten_packed(self, row: int) -> tuple[int, ...]:
        shift = self.q ** self.l
        out = []
        for _ in range(self.m):
            row, lo = divmod(row, shift)
            out.append(self.ext.pow_to_mid[lo])
        return tuple(out)

    def basis_vector(self, j: int) -> int:
        """Packed row for Y_(j+1), the j-th GF(q^l) unit vector."""
        vec = [0] * self.m
        vec[j] = 1
        return self.flatten_packed(vec)

    def mid_rank(self, vectors: list[tuple[int, ...]]) -> int:
        """Rank over GF(q^l) of middle vectors of a common length."""
        echelon: list[tuple[int, list[int]]] = []
        for vec in vectors:
            self.mid_reduce(echelon, list(vec), len(vec))
        return len(echelon)

    @cached_property
    def elimination_tables(self) -> tuple[list | None, list | None]:
        """GF(q^l) tables, built on first use: scale[c][x] = c*x and, at odd p,
        add[a][x] = a + x (None at p = 2: a ^ x); (None, None) above the cap."""
        Q, p = self.Q, self.p
        if Q > TABLE_CAP:
            return None, None
        exp, logs = self.mid.exp, self.mid.log[1:]
        scale = [[0] * Q] + [[0] + [exp[lc + lx] for lx in logs] for lc in logs]
        return scale, None if p == 2 else digit_add_table(p, Q)

    def mid_reduce(self, echelon: list[tuple[int, list[int]]], cur: list[int],
                   width: int) -> list[int] | None:
        """One GF(q^l) row-reduction step against echelon rows (pivot, row).

        The echelon rows are scaled to 1 at their pivots, which lie among the
        first width entries; entries past width (a tracked transform) are
        eliminated along.  When the reduced row is nonzero in its first width
        entries it is scaled to 1 at its pivot and appended to echelon, and
        None is returned; otherwise the reduced row is returned.
        """
        mid = self.mid
        scale, add = self.elimination_tables
        for piv, ech in echelon:
            c = cur[piv]
            if c and add:
                row = scale[scale[self.p - 1][c]]  # -c, as p - 1 is -1 in GF(p)
                cur = [add[a][row[b]] for a, b in zip(cur, ech)]
            elif c and scale:
                row = scale[c]
                cur = [a ^ row[b] for a, b in zip(cur, ech)]
            elif c:
                cur = [mid.sub(a, mid.mul(c, b)) for a, b in zip(cur, ech)]
        for piv in range(width):
            if cur[piv]:
                inv = mid.inv(cur[piv])
                echelon.append((piv, [scale[inv][a] for a in cur] if scale
                                else [mid.mul(inv, a) for a in cur]))
                return None
        return cur

    def __repr__(self) -> str:
        return f"FieldTower(GF({self.q}) < GF({self.q}^{self.l}), m={self.m})"


@lru_cache(maxsize=None)
def build_tower(p: int, q_exponent: int, l: int, m: int) -> FieldTower:
    """Deterministic tower construction; cached per parameter tuple."""
    return FieldTower(p, q_exponent, l, m)
