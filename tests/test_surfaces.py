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
    """Exact intersection parameters of s*v1 and t*v2 + eps on R^2/Z^2."""
    (m, n), (p, q) = v1, v2
    det = m * q - n * p
    e1, e2 = Fraction(1, 97), Fraction(1, 89)
    sols = set()
    bound = abs(m) + abs(n) + abs(p) + abs(q) + 2
    for j in range(-bound, bound + 1):
        for k in range(-bound, bound + 1):
            # s*m - t*p = e1 + j ; s*n - t*q = e2 + k
            rhs1, rhs2 = e1 + j, e2 + k
            s = Fraction(-q * rhs1 + p * rhs2, -det)
            t = Fraction(-n * rhs1 + m * rhs2, -det)
            if 0 <= s < 1 and 0 <= t < 1:
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


def test_canonicalization_independence_of_rotation(genus2):
    # bracket/cobracket only depend on the class, not the spelling
    x1 = parse_word("a1 a2 A1 A2", genus2)
    x2 = parse_word("A1 A2 a1 a2", genus2)  # a rotation
    y = genus2.class_of("b1")
    c1, c2 = genus2.canonical_class(x1), genus2.canonical_class(x2)
    assert c1 == c2
    assert genus2.goldman_terms(c1, y) == genus2.goldman_terms(c2, y)


def test_linked_pairs_stable_under_deeper_lookahead(genus2):
    # the ray comparison must already be decided at the default depth
    words = [genus2.class_of(t) for t in
             ("a1", "b1", "a1 a2 A1 A2", "a1 a1 b1 b1", "a1 b1 a2 B2")]
    base_depth = genus2._depth
    try:
        for x in words:
            for y in words:
                genus2._ray_cache.clear()
                genus2._depth = base_depth
                shallow = genus2.goldman_terms(x, y)
                genus2._ray_cache.clear()
                genus2._depth = lambda *w: 2 * base_depth(*w) + 64
                deep = genus2.goldman_terms(x, y)
                assert shallow == deep, (x, y)
    finally:
        genus2._depth = base_depth
        genus2._ray_cache.clear()


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
    h, sharp = S.half, S.n_dirs - 1
    letters = list(letters)

    def turn(din, dout):
        t = (S.rank_of[dout] - S.rank_of[din]) % S.n_dirs
        if t == 0:
            raise SurfaceError("zero turn (backtracking ray)")
        return t

    changed = True
    while changed:
        changed = False
        turns = [turn(-letters[k], letters[k + 1])
                 for k in range(len(letters) - 1)]
        for t in range(len(letters) - h):
            if all(turns[t + r] == sharp for r in range(h - 1)):
                rep = S.half_complement.get(tuple(letters[t:t + h]))
                if rep is None:
                    raise SurfaceError("sharp-left run is not a half relator")
                letters[t:t + h] = list(rep)
                changed = True
                break
    return letters


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
    # one cached ray per strand is sliced for shallower requests
    S = Surface(genus, 0)
    long_rays = [S.canonical_ray(b) for b in _strand_windows(S, 700)]
    for depth in (40, 250):
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
    genus2._ray_cache.clear()
    assert [genus2.goldman_terms(x, y) for x, y in pairs] == fast


def test_ray_cache_holds_one_entry_per_strand():
    S = Surface(2, 0)
    x, y, z = (S.class_of(t) for t in ("a1 b2", "b1", "a1 a2 b1 b2 a2"))
    S.goldman_terms(x, y)  # x's strands at a shallow depth
    S.goldman_terms(x, z)  # ... then at a deeper one
    S.goldman_terms(x, y)  # served by slicing
    assert sorted(S._ray_cache) == sorted(
        (w, i) for w in (x, y, z) for i in range(len(w)))
    assert {len(S._ray_cache[(x, i)][0]) for i in range(len(x))} == \
        {S._depth(x, z)}
