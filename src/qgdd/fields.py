"""Exact arithmetic in GF(p^e), GF(q) < GF(q^l), and GF(q^l)^m as GF(q)^(ml).

Field elements are ints in [0, p^e) encoding coefficient vectors over GF(p),
constant coefficient in the least significant base-p digit.  Multiplication
goes through log/antilog tables for fields below 2^20 elements and falls back
to polynomial arithmetic above that.

Vectors over GF(q) of length v are packed into a single int with base-q
digits, coordinate 0 in the least significant digit.  For characteristic 2
vector addition is plain integer XOR.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

_TABLE_LIMIT = 1 << 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_power(q: int) -> tuple[int, int]:
    """Decompose q = p^e with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = q
    for d in range(2, q + 1):
        if d * d > q:
            break
        if q % d == 0:
            p = d
            break
    e = 0
    n = q
    while n % p == 0:
        n //= p
        e += 1
    if n != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (desk-scale inputs only)."""
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
    if e == 1:
        return (0, 1)
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
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if e < 1:
            raise ValueError(f"extension degree {e} must be positive")
        self.p = p
        self.e = e
        self.order = p ** e
        self.modulus = _least_irreducible(p, e)
        self._mod_low = pack_coords(self.modulus[:e], p)
        self.primitive = self._find_primitive()
        self.exp: list[int] | None = None
        self.log: list[int] | None = None
        if self.order <= _TABLE_LIMIT:
            self._build_tables()

    # -- raw polynomial arithmetic (construction / fallback) ----------------

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
        p = self.p
        if p == 2:
            return a ^ b
        out, mult = 0, 1
        for _ in range(self.e):
            a, ca = divmod(a, p)
            b, cb = divmod(b, p)
            out += (ca + cb) % p * mult
            mult *= p
        return out

    def neg(self, a: int) -> int:
        p = self.p
        if p == 2:
            return a
        out, mult = 0, 1
        for _ in range(self.e):
            a, ca = divmod(a, p)
            out += (-ca) % p * mult
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.exp is not None:
            return self.exp[self.log[a] + self.log[b]]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        if self.exp is not None:
            return self.exp[self.order - 1 - self.log[a]]
        return self._pow_raw(a, self.order - 2)

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            return 0 if n else 1
        if self.exp is not None:
            return self.exp[self.log[a] * n % (self.order - 1)]
        return self._pow_raw(a, n % (self.order - 1))

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        n = self.order - 1
        order = n
        for r in factorize(n):
            while order % r == 0 and self.pow(a, order // r) == 1:
                order //= r
        return order

    def coeffs(self, a: int) -> tuple[int, ...]:
        return unpack_coords(a, self.p, self.e)

    def elements(self) -> range:
        return range(self.order)

    def nonzero_elements(self) -> range:
        return range(1, self.order)

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
        if mid.order > _TABLE_LIMIT:
            raise ValueError(f"extension of order {mid.order} beyond table limit")
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
        if self.base.p == 2:
            for v in range(mid.order):
                acc, rest, i = 0, v, 0
                while rest:
                    c = rest & (q - 1)
                    if c:
                        acc ^= slot[i][c]
                    rest >>= q.bit_length() - 1
                    i += 1
                pow_to_mid[v] = acc
        else:
            for v in range(mid.order):
                acc, rest = 0, v
                for i in range(l):
                    rest, c = divmod(rest, q)
                    if c:
                        acc = mid.add(acc, slot[i][c])
                pow_to_mid[v] = acc
        mid_to_pow = [0] * mid.order
        for v, x in enumerate(pow_to_mid):
            mid_to_pow[x] = v
        assert len(set(pow_to_mid)) == mid.order, "power basis is degenerate"
        self.pow_to_mid = pow_to_mid
        self.mid_to_pow = mid_to_pow


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
        self.ext = Extension(self.base, l)
        self.mid = self.ext.mid
        self.q = self.base.order
        self.Q = self.mid.order
        self.v = m * l
        self._lmask = (1 << l) - 1 if self.q == 2 else None

    # -- the coordinate identification ---------------------------------------

    def flatten_packed(self, vec: Sequence[int]) -> int:
        if self._lmask is not None:
            table, l = self.ext.mid_to_pow, self.l
            out = 0
            for j, x in enumerate(vec):
                out |= table[x] << (l * j)
            return out
        shift = self.q ** self.l
        out = 0
        for x in reversed(vec):
            out = out * shift + self.ext.mid_to_pow[x]
        return out

    def unflatten_packed(self, row: int) -> tuple[int, ...]:
        if self._lmask is not None:
            table, l, mask = self.ext.pow_to_mid, self.l, self._lmask
            return tuple(table[(row >> (l * j)) & mask] for j in range(self.m))
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
        sub, mul = mid.sub, mid.mul
        for piv, ech in echelon:
            c = cur[piv]
            if c:
                cur = [sub(a, mul(c, b)) for a, b in zip(cur, ech)]
        for piv in range(width):
            if cur[piv]:
                inv = mid.inv(cur[piv])
                echelon.append((piv, [mul(inv, a) for a in cur]))
                return None
        return cur

    def mid_echelon(self, vectors: Sequence[Sequence[int]]
                    ) -> tuple[list[tuple[int, list[int], list[int]]], list[list[int]]]:
        """GF(q^l) echelon of middle vectors of a common length, transform tracked.

        Returns (echelon, deps).  echelon holds (pivot, row, transform) per
        independent input: row = sum(transform[i] * vectors[i]), scaled to 1
        at the pivot.  deps holds, per dependent input j, coefficients c with
        c[j] = 1, c[i] = 0 for i > j and sum(c[i] * vectors[i]) = 0.
        """
        n = len(vectors)
        width = len(vectors[0]) if n else 0
        rows: list[tuple[int, list[int]]] = []
        deps: list[list[int]] = []
        for idx, vec in enumerate(vectors):
            # the input row followed by its transform, eliminated together
            cur = list(vec) + [0] * n
            cur[width + idx] = 1
            dep = self.mid_reduce(rows, cur, width)
            if dep is not None:
                deps.append(dep[width:])
        return [(piv, row[:width], row[width:]) for piv, row in rows], deps

    def span_dim_over_middle(self, subspace) -> int:
        """GF(q^l)-dimension of the GF(q^l)-span of a flattened subspace."""
        if subspace.v != self.v or subspace.q != self.q:
            raise ValueError("subspace does not live in this tower's space")
        return self.mid_rank([self.unflatten_packed(r) for r in subspace.rows])

    def __repr__(self) -> str:
        return f"FieldTower(GF({self.q}) < GF({self.q}^{self.l}), m={self.m})"


@lru_cache(maxsize=None)
def build_tower(p: int, q_exponent: int, l: int, m: int) -> FieldTower:
    """Deterministic tower construction; cached per parameter tuple."""
    return FieldTower(p, q_exponent, l, m)
