import gc
import itertools
import random
from fractions import Fraction

import pytest

from oracles import linked_pairs_by_walk, pair_canonical_walk
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


def test_classes_up_to_leaves_no_cyclic_garbage():
    Surface(2, 0).classes_up_to(3)
    gc.collect()
    gc.disable()
    try:
        Surface(2, 0).classes_up_to(3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _relator_rotations(S):
    return [base[k:] + base[:k] for base in (S.relator, inverse_word(S.relator))
            for k in range(len(S.relator))]


def _strip_rich_words(S, count, seed):
    """Words of 1-4 relator rotations, each cut to 2g-1 .. 4g letters and
    followed by 0-2 random letters."""
    rng = random.Random(seed)
    letters = [x for a in range(1, S.rank + 1) for x in (a, -a)]
    rotations = _relator_rotations(S)
    out = []
    for _ in range(count):
        w = []
        for _ in range(rng.randint(1, 4)):
            w += rng.choice(rotations)[:rng.randint(S.half - 1, 2 * S.half)]
            w += [rng.choice(letters) for _ in range(rng.randint(0, 2))]
        out.append(tuple(w))
    return out


@pytest.mark.parametrize("genus", [2, 3])
def test_dehn_reduce_leaves_no_long_relator_piece(genus):
    # Dehn's condition: no cyclic subword of 2g + 1 letters of R or R^-1
    S = Surface(genus, 0)
    pieces = {r[:S.half + 1] for r in _relator_rotations(S)}
    shortened = swappable = 0
    for w in _strip_rich_words(S, 2000, seed=genus):
        r, has_swap = S.dehn_reduce(w)
        assert cyclic_reduce(r) == r, w
        periodic = r * (S.half + 1)
        assert not any(periodic[i:i + S.half + 1] in pieces
                       for i in range(len(r))), (w, r)
        shortened += len(r) < len(cyclic_reduce(w))
        # the flag says whether r has a half swap at all
        assert has_swap == any(True for _ in S._swap_neighbours(r)), w
        swappable += has_swap
    assert shortened > 500 and 0 < swappable < 2000


@pytest.mark.parametrize("genus", [2, 3])
def test_dehn_reduce_removes_relators(genus):
    S = Surface(genus, 0)
    for k in range(1, 6):
        assert S.dehn_reduce(S.relator * k + (1,)) == ((1,), False)
        assert S.dehn_reduce(inverse_word(S.relator) * k + (1,)) == \
            ((1,), False)
    assert S.dehn_reduce(S.relator) == ((), False)


def test_dehn_reduce_swaps_a_long_half(genus2):
    # a1 b1 A1 B1 a2 is five letters of R: a1 b1 A1 B1 = a2 b2 A2 B2 ^-1
    assert genus2.dehn_reduce(parse_word("a1 b1 A1 B1 a2", genus2))[0] == (3,)
    assert genus2.dehn_reduce(parse_word("a1 b1 A1 B1 a2 a1", genus2))[0] == \
        parse_word("b2 a2 B2 a1", genus2)


def _is_ladder(S, w):
    """A closed ladder: cyclic turns ((4g-1)^(2g-2), 4g-2)^m or
    (1^(2g-2), 2)^m, the classes that get two keys today."""
    n, m = len(w), S.half - 1
    if n % m:
        return False
    turns = [S._turn[w[k]][w[(k + 1) % n]] for k in range(n)]
    X = S.n_dirs - 1
    return any(turns[k:] + turns[:k] == rung * (n // m)
               for rung in ([X] * (m - 1) + [X - 1], [1] * (m - 1) + [2])
               for k in range(m))


@pytest.mark.parametrize("genus,skipped", [(2, 5), (3, 0)])
def test_canonical_class_ignores_an_inserted_relator(genus, skipped):
    S = Surface(genus, 0)
    rng = random.Random(genus)
    rotations = _relator_rotations(S)
    words = _strip_rich_words(S, 2000, seed=10 + genus)
    checked = ladders = 0
    for w in words:
        k = rng.randrange(len(w) + 1)
        v = w[:k] + rng.choice(rotations) + w[k:]
        c, d = S.canonical_class(w), S.canonical_class(v)
        if c is not None and (_is_ladder(S, c) or _is_ladder(S, d)):
            ladders += 1
            continue
        assert c == d, (w, v)
        checked += 1
    assert (ladders, checked) == (skipped, len(words) - skipped)


def _forget_rays_and_tables(S):
    """Clear the ray cache and the bracket/cobracket memos, so the next
    table is computed afresh."""
    S._ray_cache.clear()
    S._bracket_memo.clear()
    S._cobracket_memo.clear()


def _strip_sharing_pairs(S, count, seed):
    """Pairs (x, y) whose classes carry the two routes P and Q of one
    half relator, P.Q a rotation of R or R^-1: x is the class of P plus
    a reduced tail of 2-6 letters, y that of Q plus one of 2-5."""
    rng = random.Random(seed)
    letters = [x for a in range(1, S.rank + 1) for x in (a, -a)]
    rotations = [base[k:] + base[:k] for base in (S.relator, inverse_word(S.relator))
                 for k in range(len(S.relator))]

    def with_tail(route, lo, hi):
        w = list(route)
        for _ in range(rng.randint(lo, hi)):
            w.append(rng.choice([x for x in letters if x != -w[-1]]))
        return S.canonical_class(w)

    out = []
    while len(out) < count:
        rot = rng.choice(rotations)
        x, y = with_tail(rot[:S.half], 2, 6), with_tail(rot[S.half:], 2, 5)
        if x is not None and y is not None:
            out.append((x, y))
    return out


def _random_class_pairs(S, count, max_len, seed):
    """Pairs of classes of random reduced words of 1..max_len letters."""
    rng = random.Random(seed)
    letters = [x for a in range(1, S.rank + 1) for x in (a, -a)]

    def draw():
        while True:
            w = [rng.choice(letters)]
            for _ in range(rng.randint(0, max_len - 1)):
                w.append(rng.choice([x for x in letters if x != -w[-1]]))
            c = S.canonical_class(w)
            if c is not None:
                return c

    return [(draw(), draw()) for _ in range(count)]


def test_linked_pairs_stable_under_deeper_lookahead(monkeypatch):
    # the period start T of the strand keys is proven, so keys built and
    # unrolled from 4T give the same linked pairs and signs
    S = Surface(2, 0)
    short = S.classes_up_to(3)
    pairs = list(itertools.combinations_with_replacement(short, 2)) \
        + _random_class_pairs(S, 200, 6, seed=12) \
        + _strip_sharing_pairs(S, 100, seed=12)
    at_t = [S._linked_pairs(x, y) for x, y in pairs]
    assert sum(map(bool, at_t)) > len(pairs) // 2
    start = Surface._key_start
    monkeypatch.setattr(Surface, "_key_start", lambda self, n: 4 * start(self, n))
    _forget_rays_and_tables(S)
    assert [S._linked_pairs(x, y) for x, y in pairs] == at_t


def _pinned_strip_pair(S):
    """A pair whose one crossing at a strip is counted at both of its
    ends: x runs A2 B2 a1 b1 and y runs A1 B1 a2 b2, the two routes of
    one half relator, in opposite directions."""
    return (parse_word("a1 a1 A2 B2 a1 b1 b2 b2 b1 b2 b2", S),
            parse_word("A1 B1 a2 b2 b2 a2", S))


def _walk_oracle_pairs(S):
    """Every ordered pair of classes of length <= 3 (on genus 3, with one
    of them of length <= 2) and every self pair up to length 4 (3 on
    genus 3); on closed surfaces also seeded strip-sharing pairs, and on
    genus 2 the pinned strip pair."""
    short = S.classes_up_to(3)
    pairs = [(x, y) for x, y in itertools.product(short, repeat=2)
             if S.genus < 3 or min(len(x), len(y)) <= 2]
    if S.genus < 3:
        pairs += [(w, w) for w in S.classes_up_to(4) if len(w) == 4]
    else:
        pairs += [(w, w) for w in short if len(w) == 3]
    if S.closed:
        pairs += _strip_sharing_pairs(S, 200, seed=30 + S.genus)
    if S.genus == 2 and S.closed:
        x, y = _pinned_strip_pair(S)
        pairs += [(x, y), (y, x), (x, x), (y, y)]
    return pairs


@pytest.mark.parametrize("genus,boundary", [(2, 0), (3, 0), (1, 2), (0, 4)])
def test_linked_pairs_match_the_walk_oracle(genus, boundary, monkeypatch):
    # the one-step test keeps exactly the ends the walk along a shared
    # run reaches, in (i, j) order; with every sign forced to 1 the lists
    # hold every kept pair, linked or not
    S = Surface(genus, boundary)
    monkeypatch.setattr(Surface, "_crossing", staticmethod(lambda *keys: 1))
    for x, y in _walk_oracle_pairs(S):
        assert S._linked_pairs(x, y) == linked_pairs_by_walk(S, x, y), (x, y)


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
            yield S._periodic(inverse_word(w), -i, window)


@pytest.mark.parametrize("genus", [2, 3])
@pytest.mark.parametrize("depth", [40, 250])
def test_canonical_ray_matches_restart_oracle(genus, depth):
    S = Surface(genus, 0)
    for letters in _strand_windows(S, depth + S._ray_slack(4)):
        assert S.canonical_ray(letters) == _restart_ray(S, letters), letters


def _outcome(fn, letters):
    try:
        return fn(letters)
    except SurfaceError as exc:
        return str(exc)


def _rewrite_key(S, key):
    """The model of `canonical_ray` that the proof in `_strand_rays`
    rests on, on keys alone: rewrite the leftmost run X^m at entries
    j >= 1 with an entry after it, a X^m b -> (a+1) 1^m (b+1), the rank
    taken mod n_dirs, until none is left."""
    X, m = S.n_dirs - 1, S.half - 1
    key = list(key)
    while True:
        j = next((j for j in range(1, len(key) - m) if key[j:j + m] == [X] * m), 0)
        if not j:
            return bytes(key)
        key[j - 1] += 1
        key[j:j + m] = [1] * m
        key[j + m] += 1
        key[0] %= S.n_dirs
        if S.n_dirs in key:
            raise SurfaceError("zero turn (backtracking ray)")


@pytest.mark.parametrize("genus", [2, 3])
def test_canonical_ray_matches_restart_oracle_on_random_words(genus):
    # reduced words that mostly turn sharpest left: long sharp runs,
    # chained rewrites, and backtracking created by a rewrite; the keys
    # also follow the key-level model of the ray-depth proof
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
        assert _outcome(lambda l: S._ray_key(S.canonical_ray(l)), w) == \
            _outcome(lambda l: _rewrite_key(S, S._ray_key(l)), w), w


def test_canonical_ray_rejects_backtracking(genus2):
    # backtracking in the input, at its end, and only after a rewrite:
    # a1 b1 A1 B1 becomes b2 a2 B2 A2, which then meets a2
    for letters in ([1, 4, -4, 2], [1, 2, 3, 4, 1, -1], [1, 2, -1, -2, 3]):
        with pytest.raises(SurfaceError, match="zero turn"):
            genus2.canonical_ray(letters)
        with pytest.raises(SurfaceError, match="zero turn"):
            _restart_ray(genus2, letters)


def _deep_keys(S, w, i):
    """Keys of the future and past rays of strand i of w from a window 4x
    as deep as `_strand_rays` uses, cut to their exact entries."""
    n = len(w)
    window = 4 * (S._key_start(n) + n + S._ray_slack(n))
    exact = window - S._ray_slack(n)
    return [S._ray_key(S.canonical_ray(letters)[:exact]) for letters in
            (S._periodic(w, i, window), S._periodic(inverse_word(w), -i, window))]


def _check_strand_keys(S, words):
    """Every key is the start of the key from a window 4x as deep, which
    repeats with period |w| from entry T on.  The keys of a strip-free
    word are slices of its turn sequences, cached for all its strands at
    once; the others come from `canonical_ray`.  Returns the number of
    strip-free words."""
    sliced = 0
    for w in words:
        n, start = len(w), S._key_start(len(w))
        sliced += S._cache_strip_free_rays(w, start + n)
        for i in range(n):
            for key, deep in zip(S._strand_rays(w, i), _deep_keys(S, w, i)):
                assert len(key) == start + n and deep[:len(key)] == key, (w, i)
                assert deep[start:-n] == deep[start + n:], (w, i)
    return sliced


@pytest.mark.parametrize("genus,boundary,cap,strips", [
    pytest.param(2, 0, 5, 40, id="2"), pytest.param(3, 0, 4, 0, id="3"),
    pytest.param(2, 1, 5, 0, id="2-1"), pytest.param(0, 3, 5, 0, id="0-3")])
def test_strand_keys_exact_and_periodic_from_key_start(genus, boundary, cap,
                                                       strips):
    # the keys of every strand are exact and periodic from the proven T,
    # by either path: no word of an open surface has a strip, and on
    # genus 3 a strip needs 6 letters (the ladder test below has some)
    S = Surface(genus, boundary)
    words = S.classes_up_to(cap)
    assert len(words) - _check_strand_keys(S, words) == strips


def _ladder_classes(S, count, seed):
    """Classes whose turns hold a strip X^m beside a ladder of 3-8 rungs
    X^(m-1) (X-1), X the sharpest left and m = h - 1: a strip there
    cascades the length of the ladder, to the left or to the right."""
    rng = random.Random(seed)
    X, m = S.n_dirs - 1, S.half - 1
    out = set()
    while len(out) < count:
        k = rng.randint(3, 8)
        if rng.random() < 0.5:
            turns = ([X] * (m - 1) + [X - 1]) * k + [X] * m
        else:
            turns = [X] * m + ([X - 1] + [X] * (m - 1)) * k
        turns += [rng.randint(1, X - 1) for _ in range(rng.randint(1, 4))]
        w = [rng.choice(S.link_order)]
        for t in turns[:-1]:
            w.append(S.link_order[(S.rank_of[-w[-1]] + t) % S.n_dirs])
        if S._turn[w[-1]][w[0]] == turns[-1]:
            c = S.canonical_class(w)
            if c is not None and len(c) == len(w):
                out.add(c)
    return sorted(out)


@pytest.mark.parametrize("genus", [2, 3])
def test_ray_keys_exact_beside_ladders(genus):
    # here no bound in the genus alone holds: keys start to repeat after
    # entry 2h, and a window with a fixed slack of 4h + 8 letters gets
    # some entries before T + |w| wrong
    S = Surface(genus, 0)
    words = _ladder_classes(S, 12, seed=genus)
    assert _check_strand_keys(S, words) == 0
    late = wrong = 0
    for w in words:
        n = len(w)
        size = S._key_start(n) + n
        for i in range(n):
            deep = _deep_keys(S, w, i)[0]
            late = max([late] + [k + 1 for k in range(size) if deep[k] != deep[k + n]])
            ray = S.canonical_ray(S._periodic(w, i, size + 4 * S.half + 8))
            wrong += S._ray_key(ray[:size]) != deep[:size]
    assert late > 2 * S.half and wrong


def test_crossing_signs_unchanged_with_later_period_start(genus2, monkeypatch):
    # strands that share a run of 17 a1 have keys that agree far in; the
    # signs stay the same with the period start T patched to 4T
    words = [genus2.canonical_class((1,) * 17 + (t,)) for t in (2, -2, 3, -3)]
    pairs = list(itertools.combinations(words, 2))
    fast = [genus2.goldman_terms(x, y) for x, y in pairs]
    assert all(fast)
    start = Surface._key_start
    monkeypatch.setattr(Surface, "_key_start", lambda self, n: 4 * start(self, n))
    _forget_rays_and_tables(genus2)
    assert [genus2.goldman_terms(x, y) for x, y in pairs] == fast
    _forget_rays_and_tables(genus2)


def _has_strip(S, w):
    """Whether the cyclic turns of w or of its inverse hold a run of
    h - 1 sharpest-left turns."""
    n, run = len(w), [S.n_dirs - 1] * (S.half - 1)
    for v in (w, inverse_word(w)):
        turns = [S._turn[v[k]][v[(k + 1) % n]] for k in range(n)]
        turns *= S.half // n + 2
        if any(turns[k:k + S.half - 1] == run for k in range(n)):
            return True
    return False


def test_ray_cache_holds_one_entry_per_strand():
    # a strip-free word caches the keys of all its strands at once; a
    # word with a strip only those of the strands of its canonical
    # occurrence pairs; each key is exactly T + |w| entries long
    S = Surface(2, 0)
    x, y, z = (S.class_of(t) for t in ("a1 b2", "b1", "a1 a2 b1 b2 a2"))
    tied = [S.canonical_class((1,) * 17 + (t,)) for t in (2, -2, 3, -3)]
    pairs = [(x, y), (x, z)] + list(itertools.combinations(tied, 2)) \
        + _strip_sharing_pairs(S, 8, seed=3)
    strands = set()
    for a, b in pairs:
        S.goldman_terms(a, b)
        ends = {pair_canonical_walk(a, i, b, j) for i in range(len(a))
                for j in range(len(b))} - {None}
        strands |= {(a, i) for i, _ in ends} | {(b, j) for _, j in ends}
    words = {w for w, _ in strands}
    free = {w for w in words if not _has_strip(S, w)}
    assert {x, y, z} | set(tied) <= free and words - free
    assert set(S._ray_cache) == \
        {(w, i) for w in free for i in range(len(w))} | \
        {(w, i) for w, i in strands if w not in free}
    for (w, _), keys in S._ray_cache.items():
        assert [len(k) for k in keys] == [S._key_start(len(w)) + len(w)] * 2


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
