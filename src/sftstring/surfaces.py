"""Combinatorial curves on oriented surfaces.

Free homotopy classes are cyclically reduced words over the standard
generators, encoded as tuples of signed integers (SnapPy style):
letter k > 0 is the k-th generator, -k its inverse.  For a closed
surface of genus g >= 2 the single vertex of the one-polygon cell
structure carries a cyclic order of the 4g directed edges; crossings of
curves are detected by comparing, in that order, the infinite reduced
extensions of the four strands leaving a pair of occurrences.  Words on
closed surfaces are kept Dehn-reduced, and rays are canonicalized by
pushing every exact-half-relator strip to its rightmost route, which
makes the first divergence of two rays decide their boundary order.

The closed torus has no hyperbolic combinatorics; it runs in lattice
mode where a class is its homology vector and the bracket is the
closed form for crossings of straight lines.
"""

from __future__ import annotations

from fractions import Fraction
from operator import getitem
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Word = Tuple[int, ...]

# Ray keys are first compared on this many entries (see Surface._crossing).
_RAY_PREFIX = 16


class SurfaceError(ValueError):
    pass


def inverse_word(w: Sequence[int]) -> Word:
    return tuple(-x for x in reversed(w))


def free_reduce(w: Sequence[int]) -> Word:
    out: List[int] = []
    for x in w:
        if x == 0:
            raise SurfaceError("letter 0 is not allowed")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def cyclic_reduce(w: Sequence[int]) -> Word:
    out = list(free_reduce(w))
    while len(out) > 1 and out[0] == -out[-1]:
        out = out[1:-1]
    return tuple(out)


def _shortlex_key(w: Sequence[int]):
    """Letters order as a1 < A1 < b1 < B1 < a2 ...: x > 0 codes to 2x,
    its inverse to 2x + 1."""
    return (len(w), tuple([2 * x if x > 0 else 1 - 2 * x for x in w]))


def min_rotation(w: Word) -> Word:
    if not w:
        return w
    n = len(w)
    codes = _shortlex_key(w)[1] * 2
    i = min(range(n), key=lambda i: codes[i:i + n])
    return w[i:] + w[:i]


def parse_word(text: str, surface: "Surface") -> Word:
    """Parse whitespace-separated letters like "a1 b1 A1 B1 a2"."""
    letters = []
    for tok in text.split():
        if len(tok) < 2 or tok[0].lower() not in "abc" or not tok[1:].isdigit():
            raise SurfaceError("bad letter %r" % tok)
        kind, idx = tok[0], int(tok[1:])
        if idx < 1:
            raise SurfaceError("bad letter index in %r" % tok)
        if kind.lower() == "a":
            base = 2 * idx - 1
        elif kind.lower() == "b":
            base = 2 * idx
        else:  # boundary generators c1, c2, ...
            base = 2 * surface.genus + idx
        letter = base if kind.islower() else -base
        if abs(letter) > surface.rank:
            raise SurfaceError("letter %r outside the alphabet" % tok)
        letters.append(letter)
    return tuple(letters)


def format_word(w: Word, surface: "Surface") -> str:
    if not w:
        return "1"
    names = []
    for x in w:
        a = abs(x)
        if a <= 2 * surface.genus:
            idx = (a + 1) // 2
            kind = "a" if a % 2 == 1 else "b"
        else:
            idx = a - 2 * surface.genus
            kind = "c"
        names.append((kind if x > 0 else kind.upper()) + str(idx))
    return " ".join(names)


class Surface:
    """Oriented surface of genus g with b boundary components.

    Closed surfaces of genus >= 2 use the one-vertex 4g-gon structure;
    surfaces with boundary use the standard one-vertex ribbon graph;
    the closed torus runs in lattice mode.
    """

    def __init__(self, genus: int, boundary: int = 0):
        if genus < 0 or boundary < 0:
            raise SurfaceError("genus and boundary must be nonnegative")
        if genus == 0 and boundary < 3:
            raise SurfaceError("need genus >= 1 or at least three boundary circles")
        self.genus = genus
        self.boundary = boundary
        self.closed = boundary == 0
        self.torus_mode = self.closed and genus == 1
        self.rank = 2 * genus + max(boundary - 1, 0)
        if self.rank == 0:
            raise SurfaceError("trivial fundamental group")
        self.relator: Optional[Word] = None
        self._class_cache: Dict[Word, Optional[Word]] = {}
        self._ray_cache: Dict[tuple, tuple] = {}
        if self.closed:
            rel = []
            for i in range(genus):
                a, b = 2 * i + 1, 2 * i + 2
                rel += [a, b, -a, -b]
            self.relator = tuple(rel)
            self.half = 2 * genus
            if not self.torus_mode:
                self.link_order = self._link_from_relator()
                self._build_half_tables()
        else:
            order = []
            for i in range(genus):
                a, b = 2 * i + 1, 2 * i + 2
                order += [a, b, -a, -b]
            for j in range(boundary - 1):
                c = 2 * genus + 1 + j
                order += [c, -c]
            self.link_order = order
            self._check_ribbon()
        if not self.torus_mode:
            self.rank_of: Dict[int, int] = {
                d: i for i, d in enumerate(self.link_order)}
            self.n_dirs = len(self.link_order)
            # _turn[x][y]: the turn from the reverse of x to y, counted
            # counterclockwise in the vertex link; 0 is backtracking and
            # n_dirs - 1 the sharpest left.  Rows and columns are indexed
            # by signed letters (a negative index wraps around).
            self._turn = [[0] * (2 * self.rank + 1)
                          for _ in range(2 * self.rank + 1)]
            for x in self.link_order:
                for y in self.link_order:
                    self._turn[x][y] = (self.rank_of[y] - self.rank_of[-x]) \
                        % self.n_dirs

    # -- cell-structure plumbing --------------------------------------
    def _link_from_relator(self) -> List[int]:
        """Cyclic (counterclockwise) order of directed edges around the
        vertex, read off the corner gluing of the 4g-gon: rotating ccw
        across the corner between boundary letters y_{i} and y_{i+1}
        leads from direction y_{i+1} to the reverse of y_{i}."""
        R = self.relator
        pos = {d: i for i, d in enumerate(R)}
        if len(pos) != len(R):
            raise SurfaceError("relator must use each directed edge once")
        nxt = {d: -R[pos[d] - 1] for d in R}
        order = [R[0]]
        while True:
            d = nxt[order[-1]]
            if d == order[0]:
                break
            order.append(d)
        if len(order) != len(R):
            raise SurfaceError("vertex link is not a single circle")
        return order

    def _check_ribbon(self):
        # boundary circles of the ribbon graph = orbits of d -> ccw-next(-d)
        order = self.link_order
        rank_of = {d: i for i, d in enumerate(order)}
        nxt = {d: order[(rank_of[-d] + 1) % len(order)] for d in order}
        seen = set()
        faces = 0
        for d in order:
            if d in seen:
                continue
            faces += 1
            e = d
            while e not in seen:
                seen.add(e)
                e = nxt[e]
        if faces != self.boundary:
            raise SurfaceError("ribbon structure has %d boundary circles, expected %d"
                               % (faces, self.boundary))

    def _build_half_tables(self):
        """All length-2g cyclic subwords of the relator and its inverse,
        keyed to the inverse of the complementary half (same element)."""
        R, Rb = self.relator, inverse_word(self.relator)
        n, h = len(R), self.half
        self.half_complement: Dict[Word, Word] = {}
        self.long_complement: Dict[Word, Word] = {}
        for base in (R, Rb):
            for i in range(n):
                rot = base[i:] + base[:i]
                key = rot[:h]
                val = inverse_word(rot[h:])
                if key in self.half_complement and self.half_complement[key] != val:
                    raise SurfaceError("ambiguous half-relator table")
                self.half_complement[key] = val
                for L in range(h + 1, n + 1):
                    k2, v2 = rot[:L], inverse_word(rot[L:])
                    if k2 not in self.long_complement:
                        self.long_complement[k2] = v2

    # -- class normal forms --------------------------------------------
    def torus_vector(self, w: Sequence[int]) -> Tuple[int, int]:
        m = sum(1 if x == 1 else -1 if x == -1 else 0 for x in w)
        n = sum(1 if x == 2 else -1 if x == -2 else 0 for x in w)
        return m, n

    @staticmethod
    def torus_word(m: int, n: int) -> Word:
        return tuple([1 if m > 0 else -1] * abs(m) + [2 if n > 0 else -2] * abs(n))

    def dehn_reduce(self, w: Word) -> Word:
        """Shorten every cyclic subword longer than half the relator."""
        if not self.closed or self.torus_mode:
            return cyclic_reduce(w)
        w = cyclic_reduce(w)
        changed = True
        while changed and w:
            changed = False
            n = len(w)
            double = w + w
            for L in range(min(n, len(self.relator)), self.half, -1):
                for i in range(n):
                    seg = double[i:i + L]
                    rep = self.long_complement.get(seg)
                    if rep is None:
                        continue
                    rest = double[i + L:i + n]
                    w = cyclic_reduce(rep + rest)
                    changed = True
                    break
                if changed:
                    break
        return w

    def _swap_neighbours(self, w: Word) -> Iterable[Word]:
        n = len(w)
        if n < self.half:
            return
        double = w + w
        for i in range(n):
            seg = double[i:i + self.half]
            if len(seg) < self.half:
                continue
            rep = self.half_complement.get(seg)
            if rep is None:
                continue
            rest = double[i + self.half:i + n]
            yield cyclic_reduce(rep + rest)

    def canonical_class(self, word: Sequence[int]) -> Optional[Word]:
        """Shortlex-least representative of the free homotopy class, or
        None for the trivial class."""
        w0 = cyclic_reduce(tuple(word))
        cached = self._class_cache.get(w0, "?")
        if cached != "?":
            return cached
        result = self._canonical_uncached(w0)
        self._class_cache[w0] = result
        return result

    def _canonical_uncached(self, w0: Word) -> Optional[Word]:
        if self.torus_mode:
            m, n = self.torus_vector(w0)
            return self.torus_word(m, n) if (m, n) != (0, 0) else None
        if not self.closed:
            w = cyclic_reduce(w0)
            return min_rotation(w) if w else None
        w = self.dehn_reduce(w0)
        if not w:
            return None
        # breadth-first closure under exact-half swaps
        start = min_rotation(w)
        seen = {start}
        frontier = [start]
        best, best_key = start, _shortlex_key(start)
        while frontier:
            cur = frontier.pop()
            for nb in self._swap_neighbours(cur):
                if len(nb) < len(cur):
                    # a swap exposed a cancellation: restart from the
                    # genuinely shorter representative
                    short = self._canonical_uncached(self.dehn_reduce(nb))
                    return short
                nb = min_rotation(nb)
                if nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
                    key = _shortlex_key(nb)
                    if key < best_key:
                        best, best_key = nb, key
        return best

    def class_of(self, text: str) -> Optional[Word]:
        return self.canonical_class(parse_word(text, self))

    def multiplicity(self, w: Word) -> int:
        """kappa: largest k with w a k-th power as a cyclic word."""
        n = len(w)
        for k in range(n, 1, -1):
            if n % k == 0 and w == w[: n // k] * k:
                return k
        return 1

    def classes_up_to(self, max_len: int) -> List[Word]:
        """All nontrivial classes with a representative of length <= cap,
        listed by canonical form."""
        found = {}
        letters = [x for a in range(1, self.rank + 1) for x in (a, -a)]
        out: List[Word] = []
        for length in range(1, max_len + 1):
            words = [()]
            for _ in range(length):
                words = [w + (x,) for w in words for x in letters
                         if not w or x != -w[-1]]
            for w in words:
                if len(w) > 1 and w[0] == -w[-1]:
                    continue
                c = self.canonical_class(w)
                if c is not None and c not in found:
                    found[c] = True
                    out.append(c)
        return sorted(out, key=_shortlex_key)

    # -- rays -----------------------------------------------------------
    def _periodic(self, w: Word, start: int, length: int) -> List[int]:
        n = len(w)
        s = start % n
        return list((w * ((s + length) // n + 1))[s:s + length])

    def _past_ray(self, w: Word, start: int, length: int) -> List[int]:
        return self._periodic(inverse_word(w), -start, length)

    def canonical_ray(self, letters: List[int]) -> List[int]:
        """Push every exact-half strip to the rightmost route.

        A run of 2g-1 consecutive sharpest-left turns traces half a
        relator with the polygon on the left; replacing it by the
        complementary half strictly lowers the number of sharp lefts,
        so the rewriting terminates.  Runs are rewritten leftmost first
        in one left-to-right scan: a rewrite at t changes only the turns
        at t-1 .. t+h-1, so no earlier run can start before t-h+1, and
        the scan resumes there.
        """
        if not self.closed:
            return letters
        h = self.half
        letters = list(letters)
        n = len(letters)
        is_sharp = (self.n_dirs - 1).__eq__
        # one sharp flag per turn; a run of h-1 flags is searched at C speed
        sharp = bytearray(map(is_sharp, self._turns(letters, 0, n - 1)))
        run = b"\x01" * (h - 1)
        # a run is rewritten only if its last turn lies before n - 2
        t = sharp.find(run, 0, n - 2)
        while t >= 0:
            rep = self.half_complement.get(tuple(letters[t:t + h]))
            if rep is None:
                raise SurfaceError("sharp-left run is not a half relator")
            letters[t:t + h] = rep
            lo, hi = max(t - 1, 0), min(t + h, n - 1)
            sharp[lo:hi] = bytearray(map(is_sharp, self._turns(letters, lo, hi)))
            t = sharp.find(run, max(t - h + 1, 0), n - 2)
        return letters

    def _turns(self, letters: List[int], lo: int, hi: int) -> List[int]:
        """Turns at the vertices between letters k and k+1, lo <= k < hi."""
        rows = map(self._turn.__getitem__, letters[lo:hi])
        out = list(map(getitem, rows, letters[lo + 1:hi + 1]))
        if 0 in out:
            raise SurfaceError("zero turn (backtracking ray)")
        return out

    def _strand_rays(self, w: Word, i: int, depth: int) -> Tuple[tuple, tuple]:
        """Boundary-order keys of the future and past rays of a strand,
        at least `depth` long; only the first `depth` entries count.

        The key of a ray from the vertex is (rank of the first
        direction, then the turn at each later vertex); rays compare in
        counterclockwise boundary order by lexicographic key, and two
        rays from the vertex with equal keys trace the same line.  One
        pair of keys is cached per strand, at the deepest depth asked
        for so far, and sliced for shallower requests: this relies on a
        deeper window leaving the prefix of a canonical ray unchanged,
        which tests/test_surfaces.py checks.
        """
        hit = self._ray_cache.get((w, i))
        if hit is not None and len(hit[0]) >= depth:
            return hit
        window = depth + (4 * self.half + 8 if self.closed else 0)
        fut = self.canonical_ray(self._periodic(w, i, window))[:depth]
        past = self.canonical_ray(self._past_ray(w, i, window))[:depth]
        out = (self._ray_key(fut), self._ray_key(past))
        self._ray_cache[(w, i)] = out
        return out

    def _ray_key(self, ray) -> tuple:
        return (self.rank_of[ray[0]], *self._turns(ray, 0, len(ray) - 1))

    def _pair_canonical(self, w1: Word, i: int, w2: Word, j: int
                        ) -> Optional[Tuple[int, int]]:
        """Attribute an occurrence pair to one end of any shared run.

        Two strands through the vertex may run together along edges,
        parallel (shared past) or anti-parallel (the past of one is the
        future of the other); every aligned pair along such a run sees
        the same pair of axes, so a single geometric crossing would be
        counted once per shared vertex.  Walking to a canonical end
        (past divergence for parallel runs, the out1 == in2 end for
        anti-parallel ones) and deduplicating fixes the count.  A cycle
        means the two strands trace the same line: tangential, no
        transverse crossing.
        """
        n1, n2 = len(w1), len(w2)
        seen = set()
        while True:
            if (i, j) in seen:
                return None
            seen.add((i, j))
            in1 = -w1[(i - 1) % n1]
            in2 = -w2[(j - 1) % n2]
            out2 = w2[j % n2]
            if in1 == in2:
                i, j = (i - 1) % n1, (j - 1) % n2
            elif in1 == out2:
                i, j = (i - 1) % n1, (j + 1) % n2
            else:
                return (i, j)

    def _crossing(self, w1: Word, i: int, w2: Word, j: int, depth: int) -> int:
        """Sign of the transverse crossing of two axes for a canonical
        occurrence pair, 0 when unlinked or tangential.

        The four ray keys are ordered on a short prefix first: distinct
        prefixes already fix the order of the keys cut at `depth`, so
        the full keys are compared only when two prefixes tie."""
        f1, p1 = self._strand_rays(w1, i, depth)
        f2, p2 = self._strand_rays(w2, j, depth)
        cut = min(depth, _RAY_PREFIX)
        keys = (f1[:cut], p1[:cut], f2[:cut], p2[:cut])
        if len(set(keys)) < 4:
            keys = (f1[:depth], p1[:depth], f2[:depth], p2[:depth])
            if len(set(keys)) < 4:
                return 0
        # rays 0, 1, 2, 3 = future 1, past 1, future 2, past 2
        order = sorted(range(4), key=keys.__getitem__)
        k0 = order.index(0)
        cyc = order[k0:] + order[:k0]
        if cyc == [0, 2, 1, 3]:
            return 1
        if cyc == [0, 3, 1, 2]:
            return -1
        return 0

    def _depth(self, *words: Word) -> int:
        prod = 1
        for w in words:
            prod *= len(w)
        edges = self.half if self.closed else self.rank
        return 2 * prod + 6 * sum(len(w) for w in words) + 12 * edges + 32

    def _linked_pairs(self, w1: Word, w2: Word) -> List[Tuple[int, int, int]]:
        """Canonical linked occurrence pairs (i, j, sign) of two strand
        families; for w1 == w2 this enumerates ordered pairs of distinct
        phases, so every self-intersection appears with both orderings."""
        depth = self._depth(w1, w2)
        self_pairs = w1 == w2
        canon = set()
        for i in range(len(w1)):
            for j in range(len(w2)):
                if self_pairs and i == j:
                    continue
                cp = self._pair_canonical(w1, i, w2, j)
                if cp is not None:
                    canon.add(cp)
        out = []
        for i, j in sorted(canon):
            eps = self._crossing(w1, i, w2, j, depth)
            if eps:
                out.append((i, j, eps))
        return out

    # -- string operations ----------------------------------------------
    def goldman_terms(self, x: Word, y: Word) -> Dict[Word, Fraction]:
        """Signed concatenation classes over linked occurrence pairs."""
        if self.torus_mode:
            return self._torus_bracket_lines(x, y)
        out: Dict[Word, Fraction] = {}
        for i, j, eps in self._linked_pairs(x, y):
            xi = x[i:] + x[:i]
            yj = y[j:] + y[:j]
            c = self.canonical_class(xi + yj)
            if c is None:
                continue
            out[c] = out.get(c, Fraction(0)) + eps
        return {c: v for c, v in out.items() if v}

    def turaev_terms(self, x: Word) -> Dict[Tuple[Word, Word], Fraction]:
        """Ordered splitting pairs over linked self-occurrence pairs.

        Every self-intersection point appears as two mirrored canonical
        pairs with opposite signs, which produces the two ordered
        splittings; splittings hitting the trivial class are dropped.
        """
        out: Dict[Tuple[Word, Word], Fraction] = {}
        if self.torus_mode:
            return out  # straight lines and their covers never split
        for i, j, eps in self._linked_pairs(x, x):
            u = self.canonical_class(x[i:j] if i < j else x[i:] + x[:j])
            v = self.canonical_class(x[j:i] if j < i else x[j:] + x[:i])
            if u is None or v is None:
                continue
            out[(u, v)] = out.get((u, v), Fraction(0)) + eps
        return {k: v for k, v in out.items() if v}

    def self_intersection_count(self, x: Word) -> int:
        """Transverse double points of the canonical representative."""
        if self.torus_mode:
            return 0
        pairs = self._linked_pairs(x, x)
        if len(pairs) % 2:
            raise SurfaceError("self-intersection pairs do not mirror")
        return len(pairs) // 2

    def intersection_count(self, x: Word, y: Word) -> int:
        if self.torus_mode:
            m, n = self.torus_vector(x)
            p, q = self.torus_vector(y)
            return abs(m * q - n * p)
        if x == y:
            return 2 * self.self_intersection_count(x)
        return len(self._linked_pairs(x, y))

    # -- torus lattice mode ----------------------------------------------
    def _torus_bracket_lines(self, x: Word, y: Word) -> Dict[Word, Fraction]:
        """Bracket on the flat torus: two straight-line representatives
        cross |det| times, every crossing with the sign of the
        determinant, and each joins to the class (m+p, n+q)."""
        m, n = self.torus_vector(x)
        p, q = self.torus_vector(y)
        det = m * q - n * p
        if det == 0:
            return {}
        c = self.canonical_class(self.torus_word(m + p, n + q))
        if c is None:
            return {}
        return {c: Fraction(det)}


def torus_bracket_oracle(m: int, n: int, p: int, q: int) -> Dict[Word, Fraction]:
    """Straight-line oracle: (mq - np) times the class (m+p, n+q)."""
    if (m, n) == (0, 0) or (p, q) == (0, 0):
        raise SurfaceError("zero lattice vector")
    det = m * q - n * p
    if det == 0 or (m + p, n + q) == (0, 0):
        return {}
    return {Surface.torus_word(m + p, n + q): Fraction(det)}
