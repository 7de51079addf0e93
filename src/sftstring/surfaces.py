"""Combinatorial curves on oriented surfaces.

Free homotopy classes are cyclically reduced words over the standard
generators, encoded as tuples of signed integers (SnapPy style):
letter k > 0 is the k-th generator, -k its inverse.  For a closed
surface of genus g >= 2 the single vertex of the one-polygon cell
structure carries a cyclic order of the 4g directed edges; crossings of
curves are detected by comparing, in that order, the infinite reduced
extensions of the four strands leaving a pair of occurrences.  Words on
closed surfaces are Dehn-reduced by shortening half swaps, and rays are
canonicalized by pushing every exact-half-relator strip to its rightmost
route, which makes the first divergence of two rays decide their
boundary order; a ray's key is eventually periodic, so a proven linear
depth decides it.

The closed torus has no hyperbolic combinatorics; it runs in lattice
mode where a class is its homology vector and the bracket is the
closed form for crossings of straight lines.
"""

from __future__ import annotations

from operator import getitem
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Word = Tuple[int, ...]


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
    w = free_reduce(w)
    i, j = 0, len(w)
    while j - i > 1 and w[i] == -w[j - 1]:
        i, j = i + 1, j - 1
    return w[i:j]


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
        if len(tok) < 2 or tok[0].lower() not in "abc" or not tok[1:].isdecimal():
            raise SurfaceError("bad letter %r" % tok)
        try:
            kind, idx = tok[0], int(tok[1:])
        except ValueError:  # over the interpreter's digit limit
            raise SurfaceError("letter index of %d digits is too long"
                               % (len(tok) - 1)) from None
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


def _extend_necklaces(a: List[int], t: int, p: int, top: int,
                      out: List[Word]) -> None:
    """Append to out each reduced necklace a[1..] with a[t..] below top,
    p the period of the longest Lyndon prefix (a necklace when p divides
    the length).  Not a closure that calls itself, so it leaves no
    reference cycle (`Surface._necklaces`)."""
    n = len(a) - 1
    if t > n:
        if n % p == 0 and (n == 1 or a[n] != a[1] ^ 1):
            out.append(tuple([c >> 1 if c % 2 == 0 else -(c >> 1)
                              for c in a[1:]]))
        return
    back = a[t - 1] ^ 1 if t > 1 else 0
    lead = a[t - p]
    for c in range(lead, top):
        if c != back:
            a[t] = c
            _extend_necklaces(a, t + 1, p if c == lead else t, top, out)


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
        if 2 * self.rank > 256:
            # ray keys are bytes over the 2 * rank edge directions
            raise SurfaceError("rank %d is above the supported 128" % self.rank)
        self.relator: Optional[Word] = None
        self._class_cache: Dict[Word, Optional[Word]] = {}
        self._ray_cache: Dict[Tuple[Word, int], Tuple[bytes, bytes]] = {}
        # bracket and cobracket tables, keyed on the words as passed
        self._bracket_memo: Dict[Tuple[Word, Word], Dict[Word, int]] = {}
        self._cobracket_memo: Dict[Word, Dict[Tuple[Word, Word], int]] = {}
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
        for base in (R, Rb):
            for i in range(n):
                rot = base[i:] + base[:i]
                key = rot[:h]
                val = inverse_word(rot[h:])
                if key in self.half_complement and self.half_complement[key] != val:
                    raise SurfaceError("ambiguous half-relator table")
                self.half_complement[key] = val

    # -- class normal forms --------------------------------------------
    def torus_vector(self, w: Sequence[int]) -> Tuple[int, int]:
        m = sum(1 if x == 1 else -1 if x == -1 else 0 for x in w)
        n = sum(1 if x == 2 else -1 if x == -2 else 0 for x in w)
        return m, n

    @staticmethod
    def torus_word(m: int, n: int) -> Word:
        return tuple([1 if m > 0 else -1] * abs(m) + [2 if n > 0 else -2] * abs(n))

    def dehn_reduce(self, w: Word) -> Word:
        """Cyclically reduce, then take the first shortening half swap
        until none is left.  The result is Dehn-reduced: no cyclic
        subword of 2g + 1 letters (or more) of a rotation r of R or R^-1.
        Were r[:2g+1] in it, swapping the half r[:2g] would give
        inverse(r[2g:]), whose last letter cancels the r[2g] after it.
        Conversely, a swap shortens only when a letter next to the half
        cancels the end of its complement, that is when the word extends
        the half by one letter of r at either end."""
        w = cyclic_reduce(w)
        if self.closed and not self.torus_mode:
            nb: Optional[Word] = w
            while nb is not None:
                w = nb
                nb = next((v for v in self._swap_neighbours(w)
                           if len(v) < len(w)), None)
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
        listed by canonical form.  `canonical_class` is invariant under
        rotation, so it is asked once per cyclic word, on its least
        rotation."""
        found = set()
        for length in range(1, max_len + 1):
            for w in self._necklaces(length):
                found.add(self.canonical_class(w))
        found.discard(None)
        return sorted(found, key=_shortlex_key)

    def _necklaces(self, n: int) -> List[Word]:
        """The cyclically reduced words of length n that are their own
        least rotation in the `_shortlex_key` letter order.

        Recursive Fredricksen-Kessler-Maiorana generation (Ruskey, Savage
        and Wang, "Generating necklaces", J. Algorithms 1992) on letter
        codes, skipping a letter that cancels its predecessor: a prefix
        of a reduced necklace is a reduced prenecklace, so nothing is
        lost."""
        out: List[Word] = []
        # codes 2 .. 2 * rank + 1, inverse = code ^ 1; a[0] seeds a[1]
        _extend_necklaces([2] * (n + 1), 1, 1, 2 * self.rank + 2, out)
        return out

    # -- rays -----------------------------------------------------------
    def _periodic(self, w: Word, start: int, length: int) -> List[int]:
        n = len(w)
        s = start % n
        return list((w * ((s + length) // n + 1))[s:s + length])

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

    def _key_start(self, n: int) -> int:
        # T: the strand keys of an n-letter word repeat from entry T on
        return n + self.half - 2 if self.closed else 1

    def _ray_slack(self, n: int) -> int:
        # letters a strand window needs past its last exact key entry
        return n + self.half if self.closed else 0

    def _strand_rays(self, w: Word, i: int) -> Tuple[bytes, bytes]:
        """Keys of the future and past rays of a strand, cut to their
        first T + |w| entries, every one exact; built once per strand.

        A key is the rank of the first direction, then the turn at each
        later vertex; keys order rays counterclockwise, and equal keys
        trace the same line.  Let n = |w|: the input key has period n
        from entry 1, and open surfaces rewrite nothing.  On closed ones
        let X be the sharpest left and m = h - 1.  By the corner gluing,
        pushing a strip X^m at entries j >= 1 right maps a X^m b to
        (a+1) 1^m (b+1), once b is in the window.  Leftmost first, a new
        last entry q triggers at most the trailing X^m, and the raised
        entries cascade left only up rungs X^(m-1) (X-1): the output
        moves only in its longest suffix u = (X^(m-1) (X-1))^k X^r,
        r <= m, and the entry before it; u never starts earlier.  (A
        turn raised to 0 raises an error.)

        Slack.  Past its first entry u is input since the last trigger,
        so u less its end entries has period n, and period m with one
        X-1 in any m entries.  If |u| > n + m, Fine-Wilf (1965: length
        p + q - gcd(p, q) and periods p, q give period gcd(p, q)) makes
        that gcd(n, m) = m: the input is rungs for good, and nothing
        moves again.  Else |u| <= n + m, so a window of N letters fixes
        its first N - n - h entries.

        Period.  The first trigger is at the first input strip, so
        q <= n + m (with no strip, the key is the input).  It leaves
        entries q - 1, q at 1, k[q] + 1 and no later cascade reaches
        before q - 1, so what follows depends on q mod n only.  The strip
        ending at q + n - 1 is intact when reached (else an X rose to 0),
        so the key has period n from entry q - 1 <= n + h - 2 = T.
        """
        hit = self._ray_cache.get((w, i))
        if hit is None:
            size = self._key_start(len(w)) + len(w)
            window = size + self._ray_slack(len(w))
            hit = self._ray_cache[(w, i)] = tuple(
                self._ray_key(self.canonical_ray(letters)[:size])
                for letters in (self._periodic(w, i, window),
                                self._periodic(inverse_word(w), -i, window)))
        return hit

    def _ray_key(self, ray) -> bytes:
        # every entry is below n_dirs <= 256, so bytes order as tuples do
        return bytes((self.rank_of[ray[0]], *self._turns(ray, 0, len(ray) - 1)))

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

    @staticmethod
    def _crossing(f1: bytes, p1: bytes, f2: bytes, p2: bytes) -> int:
        """Crossing sign from the ray keys of a canonical occurrence pair:
        +1 for the cyclic order f1 f2 p1 p2, -1 for f1 p2 p1 f2, else 0."""
        if len({f1, p1, f2, p2}) < 4:
            return 0
        lo, hi = (f1, p1) if f1 < p1 else (p1, f1)
        inside = lo < f2 < hi
        if inside == (lo < p2 < hi):
            return 0
        return 1 if inside == (f1 < p1) else -1

    def _linked_pairs(self, w1: Word, w2: Word) -> List[Tuple[int, int, int]]:
        """Canonical linked occurrence pairs (i, j, sign) of two strand
        families; for w1 == w2 this enumerates ordered pairs of distinct
        phases, so every self-intersection appears with both orderings.

        Keys with periods p, q from entry T that agree on
        T + p + q - gcd(p, q) entries agree everywhere (Fine-Wilf), so
        strand keys unrolled once, by their period, to T + |w1| + |w2|
        entries order as the infinite rays do (`_strand_rays`)."""
        n1, n2 = len(w1), len(w2)
        depth = max(self._key_start(n1), self._key_start(n2)) + n1 + n2
        canon = {self._pair_canonical(w1, i, w2, j) for i in range(n1)
                 for j in range(n2) if w1 != w2 or i != j} - {None}
        keys = {}
        for w, k in {(w1, i) for i, _ in canon} | {(w2, j) for _, j in canon}:
            keys[w, k] = tuple((r + r[-len(w):] * (depth // len(w)))[:depth]
                               for r in self._strand_rays(w, k))
        signs = [(i, j, self._crossing(*keys[w1, i], *keys[w2, j]))
                 for i, j in sorted(canon)]
        return [s for s in signs if s[2]]

    # -- string operations ----------------------------------------------
    def goldman_terms(self, x: Word, y: Word) -> Dict[Word, int]:
        """Signed concatenation classes over linked occurrence pairs.

        Computed once per (x, y) as passed, not per class, so that a
        table that depends on the representative words shows it; every
        call returns a fresh dict, which the caller may change."""
        if self.torus_mode:
            return self._torus_bracket_lines(x, y)
        table = self._bracket_memo.get((x, y))
        if table is None:
            out: Dict[Word, int] = {}
            for i, j, eps in self._linked_pairs(x, y):
                xi = x[i:] + x[:i]
                yj = y[j:] + y[:j]
                c = self.canonical_class(xi + yj)
                if c is None:
                    continue
                out[c] = out.get(c, 0) + eps
            table = self._bracket_memo[(x, y)] = {
                c: v for c, v in out.items() if v}
        return dict(table)

    def turaev_terms(self, x: Word) -> Dict[Tuple[Word, Word], int]:
        """Ordered splitting pairs over linked self-occurrence pairs.

        Every self-intersection point appears as two mirrored canonical
        pairs with opposite signs, which produces the two ordered
        splittings; splittings hitting the trivial class are dropped.
        Computed once per x as passed; every call returns a fresh dict.
        """
        if self.torus_mode:
            return {}  # straight lines and their covers never split
        table = self._cobracket_memo.get(x)
        if table is None:
            out: Dict[Tuple[Word, Word], int] = {}
            for i, j, eps in self._linked_pairs(x, x):
                u = self.canonical_class(x[i:j] if i < j else x[i:] + x[:j])
                v = self.canonical_class(x[j:i] if j < i else x[j:] + x[:i])
                if u is None or v is None:
                    continue
                out[(u, v)] = out.get((u, v), 0) + eps
            table = self._cobracket_memo[x] = {
                k: v for k, v in out.items() if v}
        return dict(table)

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
    def _torus_bracket_lines(self, x: Word, y: Word) -> Dict[Word, int]:
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
        return {c: det}


def torus_bracket_oracle(m: int, n: int, p: int, q: int) -> Dict[Word, int]:
    """Straight-line oracle: (mq - np) times the class (m+p, n+q)."""
    if (m, n) == (0, 0) or (p, q) == (0, 0):
        raise SurfaceError("zero lattice vector")
    det = m * q - n * p
    if det == 0 or (m + p, n + q) == (0, 0):
        return {}
    return {Surface.torus_word(m + p, n + q): det}
