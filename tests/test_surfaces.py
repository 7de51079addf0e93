import itertools
import random
from fractions import Fraction

import pytest

from sftstring import surfaces
from sftstring.surfaces import (
    Surface,
    SurfaceError,
    cyclic_reduce,
    format_word,
    free_reduce,
    inverse_word,
    parse_word,
    torus_bracket_oracle,
)


@pytest.fixture(scope="module")
def genus2():
    return Surface(2, 0)


@pytest.fixture(scope="module")
def ptorus():
    return Surface(1, 1)


def test_word_reduction():
    assert free_reduce((1, -1, 2)) == (2,)
    assert cyclic_reduce((1, 2, -1)) == (2,)
    assert cyclic_reduce((1, 2, 3, -2, -1)) == (3,)


def test_parse_and_format(genus2):
    w = parse_word("a1 b1 A1 B1 a2", genus2)
    assert w == (1, 2, -1, -2, 3)
    assert format_word(w, genus2) == "a1 b1 A1 B1 a2"
    with pytest.raises(SurfaceError):
        parse_word("z9", genus2)


def test_link_order_genus2(genus2):
    # counterclockwise edge order around the unique vertex
    assert genus2.link_order == [1, 4, -3, -4, 3, 2, -1, -2]


def test_ribbon_structures():
    # the standard fatgraphs have the right number of boundary circles
    for g, b in [(1, 1), (0, 3), (2, 1), (1, 2)]:
        Surface(g, b)
    with pytest.raises(SurfaceError):
        Surface(0, 2)


def test_canonical_classes(genus2):
    assert genus2.class_of("a1 A1") is None
    assert genus2.canonical_class(genus2.relator) is None
    # rotation invariance
    assert genus2.class_of("b1 a1") == genus2.class_of("a1 b1")
    # the two halves of the relator give the same class
    w1 = genus2.class_of("a1 b1 A1 B1")
    w2 = genus2.class_of("b2 a2 B2 A2")
    assert w1 == w2
    # inverse classes are distinct (fixed-point-free reversal)
    for text in ["a1", "a1 b1", "a1 a2 A1 A2"]:
        w = genus2.class_of(text)
        assert w != genus2.canonical_class(inverse_word(w))


def test_multiplicity(genus2):
    assert genus2.multiplicity(genus2.class_of("a1")) == 1
    sq = genus2.canonical_class((1, 1))
    assert genus2.multiplicity(sq) == 2
    ab2 = genus2.canonical_class((1, 2, 1, 2))
    assert genus2.multiplicity(ab2) == 2


def test_bracket_disjoint_and_single(genus2):
    a1, a2, b1 = (genus2.class_of(t) for t in ("a1", "a2", "b1"))
    assert genus2.goldman_terms(a1, a2) == {}
    got = genus2.goldman_terms(a1, b1)
    assert list(got.values()) in ([Fraction(1)], [Fraction(-1)])
    assert list(got) == [genus2.class_of("a1 b1")]
    # same geodesic, opposite orientation: tangential, zero bracket
    assert genus2.goldman_terms(a1, genus2.class_of("A1")) == {}


def test_bracket_antisymmetric_in_equal_arguments(genus2):
    for text in ["a1", "a1 b1", "a1 a1 b1"]:
        x = genus2.class_of(text)
        assert genus2.goldman_terms(x, x) == {}


def test_cobracket_simple_curves(genus2):
    for text in ["a1", "b2", "a1 b1", "a1 a1 b1"]:
        assert genus2.turaev_terms(genus2.class_of(text)) == {}
    # separating curve is simple as well
    assert genus2.turaev_terms(genus2.class_of("a1 b1 A1 B1")) == {}


def test_commutator_class(genus2):
    K = genus2.class_of("a1 a2 A1 A2")
    assert genus2.self_intersection_count(K) == 3
    Kbar = genus2.canonical_class(inverse_word(K))
    assert genus2.intersection_count(K, Kbar) == 6
    d = genus2.turaev_terms(K)
    # term count = 2 x number of self-linked pairs
    assert len(d) == 6
    a, A = genus2.class_of("a1"), genus2.class_of("A1")
    c, C = genus2.class_of("a2"), genus2.class_of("A2")
    assert d[(a, A)] == -d[(A, a)]
    assert d[(c, C)] == -d[(C, c)]
    # orientation-reversal pairs appear, feeding the genus-one counts
    pairs = set(d)
    assert (a, A) in pairs and (c, C) in pairs


def test_cobracket_matches_linked_pair_enumeration(genus2):
    # every ordered splitting has a mirror with the opposite sign, and
    # the total term weight counts the linked pairs twice
    for text in ["a1 a2 A1 A2", "a1 a1 b1 b1"]:
        x = genus2.class_of(text)
        d = genus2.turaev_terms(x)
        for (u, v), coeff in d.items():
            assert d[(v, u)] == -coeff


def test_punctured_torus_self_intersections(ptorus):
    for text, want in [("a1", 0), ("a1 b1 A1 B1", 0), ("a1 a1 b1", 0),
                       ("a1 a1 b1 b1", 1), ("a1 b1 A1 b1", 1)]:
        w = ptorus.class_of(text)
        assert ptorus.self_intersection_count(w) == want, text


def _hom_class(S, w):
    v = [0] * S.rank
    for x in w:
        v[abs(x) - 1] += 1 if x > 0 else -1
    return v


def _sympl(S, u, v):
    return sum(u[2 * i] * v[2 * i + 1] - u[2 * i + 1] * v[2 * i]
               for i in range(S.genus))


@pytest.mark.parametrize("surface,cap", [(Surface(1, 1), 3), (Surface(2, 0), 2)])
def test_bracket_total_is_homological_pairing(surface, cap):
    pool = surface.classes_up_to(cap)
    for x, y in itertools.combinations(pool, 2):
        total = sum(surface.goldman_terms(x, y).values())
        assert total == _sympl(surface, _hom_class(surface, x),
                               _hom_class(surface, y))


def test_torus_mode_classes():
    T = Surface(1, 0)
    assert T.torus_mode
    assert T.class_of("a1 b1 A1 B1") is None
    assert T.canonical_class((1, 2, 1)) == (1, 1, 2)
    assert T.class_of("b1 a1 b1") == (1, 2, 2)


def test_torus_bracket_lines_match_oracle():
    T = Surface(1, 0)
    rng_range = [-3, -2, -1, 1, 2, 3]
    for m in rng_range:
        for n in [0] + rng_range:
            for p in [0] + rng_range:
                for q in rng_range:
                    if (m, n) == (0, 0) or (p, q) == (0, 0):
                        continue
                    x = T.canonical_class(T.torus_word(m, n))
                    y = T.canonical_class(T.torus_word(p, q))
                    got = T.goldman_terms(x, y)
                    want = torus_bracket_oracle(m, n, p, q)
                    assert got == want, (m, n, p, q)


def _torus_line_crossings(v1, v2):
    """Exact intersection parameters of s*v1 and t*v2 + eps on R^2/Z^2,
    with eps = (1/97, 1/89).

    Each s, t is returned as its numerator over the common positive
    denominator 97*89*|det|, so the solve stays in integers.
    """
    (m, n), (p, q) = v1, v2
    det = m * q - n * p
    # s*m - t*p = e1 + j ; s*n - t*q = e2 + k, scaled by 97*89:
    # s = (-q*rhs1 + p*rhs2) / (-det), rhs1 = 89 + 8633 j, rhs2 = 97 + 8633 k
    denom, flip = 8633 * abs(det), -1 if det > 0 else 1
    sols = set()
    bound = abs(m) + abs(n) + abs(p) + abs(q) + 2
    for j in range(-bound, bound + 1):
        rhs1 = 89 + 8633 * j
        for k in range(-bound, bound + 1):
            rhs2 = 97 + 8633 * k
            s = flip * (-q * rhs1 + p * rhs2)
            t = flip * (-n * rhs1 + m * rhs2)
            if 0 <= s < denom and 0 <= t < denom:
                sols.add((s, t))
    return sols


def test_torus_line_crossings_count_determinant():
    # the closed form in lattice mode: straight lines cross |mq - np| times
    T = Surface(1, 0)
    rng_range = [-3, -2, -1, 1, 2, 3]
    for m in rng_range:
        for n in [0] + rng_range:
            for p in [0] + rng_range:
                for q in rng_range:
                    det = m * q - n * p
                    if det == 0:
                        continue
                    crossings = _torus_line_crossings((m, n), (p, q))
                    assert len(crossings) == abs(det), (m, n, p, q)
                    x = T.canonical_class(T.torus_word(m, n))
                    y = T.canonical_class(T.torus_word(p, q))
                    assert sum(T.goldman_terms(x, y).values()) == det


def test_torus_oracle_basics():
    one = torus_bracket_oracle(1, 0, 0, 1)
    assert one == {(1, 2): Fraction(1)}
    assert torus_bracket_oracle(1, 0, 2, 0) == {}
    assert torus_bracket_oracle(1, 0, 1, 1) == {(1, 1, 2): Fraction(1)}
    with pytest.raises(SurfaceError):
        torus_bracket_oracle(0, 0, 1, 1)


def test_torus_cobracket_vanishes():
    T = Surface(1, 0)
    assert T.turaev_terms(T.class_of("a1 a1 b1")) == {}


def test_classes_up_to(genus2):
    pool = genus2.classes_up_to(2)
    assert genus2.class_of("a1") in pool
    assert all(genus2.canonical_class(w) == w for w in pool)
    assert len(set(pool)) == len(pool)


def _cyclically_reduced_words(S, max_len):
    """Every cyclically reduced word of length 1 .. max_len, each
    rotation on its own."""
    letters = [x for a in range(1, S.rank + 1) for x in (a, -a)]
    words = [()]
    for _ in range(max_len):
        words = [w + (x,) for w in words for x in letters
                 if not w or x != -w[-1]]
        yield from (w for w in words if len(w) == 1 or w[0] != -w[-1])


def _classes_up_to_reference(S, max_len):
    """Brute-force oracle: canonicalize every cyclically reduced word."""
    found = {S.canonical_class(w) for w in _cyclically_reduced_words(S, max_len)}
    found.discard(None)
    return sorted(found, key=surfaces._shortlex_key)


@pytest.mark.parametrize("genus,boundary,cap", [
    (2, 0, 6), (3, 0, 5), (2, 1, 5), (1, 2, 5), (0, 3, 6), (1, 0, 5)])
def test_classes_up_to_matches_brute_force(genus, boundary, cap):
    assert Surface(genus, boundary).classes_up_to(cap) == \
        _classes_up_to_reference(Surface(genus, boundary), cap)


def test_canonical_class_is_rotation_invariant():
    # classes_up_to canonicalizes one rotation per cyclic word
    S = Surface(2, 0)
    checked = 0
    for w in _cyclically_reduced_words(S, 5):
        c = S.canonical_class(w)
        for k in range(1, len(w)):
            assert S.canonical_class(w[k:] + w[:k]) == c, w
        checked += 1
    assert checked == 19_624  # sum over n <= 5 of 7^n + 1 + 3 (1 + (-1)^n)


def test_canonicalization_independence_of_rotation(genus2):
    # bracket/cobracket only depend on the class, not the spelling
    x1 = parse_word("a1 a2 A1 A2", genus2)
    x2 = parse_word("A1 A2 a1 a2", genus2)  # a rotation
    y = genus2.class_of("b1")
    c1, c2 = genus2.canonical_class(x1), genus2.canonical_class(x2)
    assert c1 == c2
    assert genus2.goldman_terms(c1, y) == genus2.goldman_terms(c2, y)


def _forget_rays_and_tables(S):
    """Clear the ray cache and the bracket/cobracket memos, so the next
    table is computed afresh."""
    S._ray_cache.clear()
    S._bracket_memo.clear()
    S._cobracket_memo.clear()


def test_linked_pairs_stable_under_deeper_lookahead(genus2):
    # the ray comparison must already be decided at the default depth
    words = [genus2.class_of(t) for t in
             ("a1", "b1", "a1 a2 A1 A2", "a1 a1 b1 b1", "a1 b1 a2 B2")]
    base_depth = genus2._depth
    try:
        for x in words:
            for y in words:
                _forget_rays_and_tables(genus2)
                genus2._depth = base_depth
                shallow = genus2.goldman_terms(x, y)
                _forget_rays_and_tables(genus2)
                genus2._depth = lambda *w: 2 * base_depth(*w) + 64
                deep = genus2.goldman_terms(x, y)
                assert shallow == deep, (x, y)
    finally:
        genus2._depth = base_depth
        _forget_rays_and_tables(genus2)


def test_genus3_surface():
    S3 = Surface(3, 0)
    assert len(S3.link_order) == 12
    a1, b1, a3 = S3.class_of("a1"), S3.class_of("b1"), S3.class_of("a3")
    got = S3.goldman_terms(a1, b1)
    assert list(got) == [S3.class_of("a1 b1")]
    assert abs(sum(got.values())) == 1
    assert S3.goldman_terms(a1, a3) == {}
    K = S3.class_of("a1 a3 A1 A3")
    assert S3.self_intersection_count(K) == 3


def _restart_ray(S, letters):
    """Reference canonical ray: find the leftmost sharp-left run of 2g-1
    turns, rewrite it, recompute every turn, and start over."""
    rank, n, h = S.rank_of, S.n_dirs, S.half
    run = bytes([n - 1]) * (h - 1)
    letters = list(letters)
    while True:
        turns = bytes((rank[y] - rank[-x]) % n
                      for x, y in zip(letters, letters[1:]))
        if 0 in turns:
            raise SurfaceError("zero turn (backtracking ray)")
        t = turns.find(run)
        if t < 0 or t >= len(letters) - h:
            return letters
        rep = S.half_complement.get(tuple(letters[t:t + h]))
        if rep is None:
            raise SurfaceError("sharp-left run is not a half relator")
        letters[t:t + h] = list(rep)


def _strand_windows(S, window):
    """Future and past letter windows of every strand of every class of
    length <= 4."""
    for w in S.classes_up_to(4):
        for i in range(len(w)):
            yield S._periodic(w, i, window)
            yield S._past_ray(w, i, window)


RAY_SLACK = {2: 4 * 4 + 8, 3: 4 * 6 + 8}


@pytest.mark.parametrize("genus", [2, 3])
@pytest.mark.parametrize("depth", [40, 250])
def test_canonical_ray_matches_restart_oracle(genus, depth):
    S = Surface(genus, 0)
    for letters in _strand_windows(S, depth + RAY_SLACK[genus]):
        assert S.canonical_ray(letters) == _restart_ray(S, letters), letters


def _outcome(fn, letters):
    try:
        return fn(letters)
    except SurfaceError as exc:
        return str(exc)


@pytest.mark.parametrize("genus", [2, 3])
def test_canonical_ray_matches_restart_oracle_on_random_words(genus):
    # reduced words that mostly turn sharpest left: long sharp runs,
    # chained rewrites, and backtracking created by a rewrite
    S = Surface(genus, 0)
    rng = random.Random(genus)
    letters = [x for a in range(1, S.rank + 1) for x in (a, -a)]
    sharpest = {x: y for x in letters for y in letters
                if (S.rank_of[y] - S.rank_of[-x]) % S.n_dirs == S.n_dirs - 1}
    for _ in range(3000):
        w = [rng.choice(letters)]
        for _ in range(rng.randint(1, 40)):
            x = sharpest[w[-1]] if rng.random() < 0.6 else rng.choice(letters)
            if x != -w[-1]:
                w.append(x)
        assert _outcome(S.canonical_ray, w) == \
            _outcome(lambda l: _restart_ray(S, l), w), w


def test_canonical_ray_rejects_backtracking(genus2):
    # backtracking in the input, at its end, and only after a rewrite:
    # a1 b1 A1 B1 becomes b2 a2 B2 A2, which then meets a2
    for letters in ([1, 4, -4, 2], [1, 2, 3, 4, 1, -1], [1, 2, -1, -2, 3]):
        with pytest.raises(SurfaceError, match="zero turn"):
            genus2.canonical_ray(letters)
        with pytest.raises(SurfaceError, match="zero turn"):
            _restart_ray(genus2, letters)


@pytest.mark.parametrize("genus", [2, 3])
def test_ray_prefix_stable_under_deeper_window(genus):
    # rays are first built to _RAY_PREFIX, and one cached ray per strand
    # is sliced for shallower requests
    S = Surface(genus, 0)
    long_rays = [S.canonical_ray(b) for b in _strand_windows(S, 700)]
    for depth in (surfaces._RAY_PREFIX, 40, 250):
        short = _strand_windows(S, depth + RAY_SLACK[genus])
        for a, b in zip(short, long_rays):
            assert S.canonical_ray(a)[:depth] == b[:depth]


def test_crossing_prefix_first_matches_full_depth(genus2, monkeypatch):
    # strands that share a run of 17 a1 tie on the short prefix, so their
    # order is decided by the full keys
    words = [genus2.canonical_class((1,) * 17 + (t,)) for t in (2, -2, 3, -3)]
    pairs = list(itertools.combinations(words, 2))
    fast = [genus2.goldman_terms(x, y) for x, y in pairs]
    assert all(fast)
    monkeypatch.setattr(surfaces, "_RAY_PREFIX", 10 ** 6)
    _forget_rays_and_tables(genus2)
    assert [genus2.goldman_terms(x, y) for x, y in pairs] == fast
    _forget_rays_and_tables(genus2)


def _expected_ray_depths(pairs):
    """Depth of the cached rays of each strand after goldman_terms on
    `pairs`: the prefix depth for every strand of a canonical occurrence
    pair, the pair's full depth for both strands when the four prefix
    keys tie; the deepest request wins.  Keys are built afresh."""
    fresh = Surface(2, 0)
    want = {}
    for w1, w2 in pairs:
        depth = fresh._depth(w1, w2)
        cut = min(depth, surfaces._RAY_PREFIX)
        canon = {fresh._pair_canonical(w1, i, w2, j)
                 for i in range(len(w1)) for j in range(len(w2))
                 if w1 != w2 or i != j}
        for i, j in canon - {None}:
            keys = []
            for w, k in ((w1, i), (w2, j)):
                fresh._ray_cache.clear()
                keys += fresh._strand_rays(w, k, cut)
            need = depth if len(set(keys)) < 4 else cut
            for strand in ((w1, i), (w2, j)):
                want[strand] = max(want.get(strand, 0), need)
    return want


def test_ray_cache_holds_one_entry_per_strand():
    # rays are built to the prefix depth, and to the full depth only for
    # the strands of a pair whose prefixes tie
    S = Surface(2, 0)
    x, y, z = (S.class_of(t) for t in ("a1 b2", "b1", "a1 a2 b1 b2 a2"))
    tied = [S.canonical_class((1,) * 17 + (t,)) for t in (2, -2, 3, -3)]
    pairs = [(x, y), (x, z)] + list(itertools.combinations(tied, 2))
    for a, b in pairs:
        S.goldman_terms(a, b)
    want = _expected_ray_depths(pairs)
    assert {strand: (len(f), len(p)) for strand, (f, p) in S._ray_cache.items()} \
        == {strand: (d, d) for strand, d in want.items()}
    assert sorted(strand for strand in want if strand[0] in (x, y, z)) == \
        sorted((w, i) for w in (x, y, z) for i in range(len(w)))
    assert {want[(w, i)] for w in (x, y, z) for i in range(len(w))} == \
        {surfaces._RAY_PREFIX}
    full = {d for (w, _), d in want.items() if w in tied} - {surfaces._RAY_PREFIX}
    assert full and full <= {S._depth(a, b) for a, b in pairs[2:]}


def test_ray_keys_are_bytes_up_to_rank_128():
    # rank 128 gives 256 edge directions, every ray-key entry a byte;
    # the letters c126..c128 sit in the link as c1..c3 do on Surface(0, 4)
    big, small = Surface(0, 129), Surface(0, 4)
    shift = lambda w: tuple(x + 125 if x > 0 else x - 125 for x in w)
    nonzero = 0
    for x in small.classes_up_to(3):
        for y in small.classes_up_to(2):
            want = small.goldman_terms(x, y)
            got = big.goldman_terms(shift(x), shift(y))
            assert got == {shift(z): c for z, c in want.items()}, (x, y)
            nonzero += bool(got)
        want = small.turaev_terms(x)
        assert big.turaev_terms(shift(x)) == {
            (shift(u), shift(v)): c for (u, v), c in want.items()}
    assert nonzero >= 100
    assert {type(k) for keys in big._ray_cache.values() for k in keys} == {bytes}
    with pytest.raises(SurfaceError, match="rank 129"):
        Surface(0, 130)
