from fractions import Fraction

import pytest

from tourmat.families import (
    FamilyError,
    FamilyParseError,
    NotBisectingError,
    SetFamily,
    check_bisecting,
    family_to_matrix,
    format_family,
    gram_check,
    incidence_pm1,
    parse_family,
    size_bound_report,
    tau,
)
from tourmat.fields import QQ
from tourmat.matrices import DenseMatrix, in_matrix_family
from tourmat.rank import rank
from tourmat.rng import ByteStream

STAR4 = SetFamily.of(4, [{1, 2}, {1, 3}, {1, 4}])
STAR5 = SetFamily.of(5, [{1, 2}, {1, 3}, {1, 4}, {1, 5}])
DISJOINT = SetFamily.of(4, [{1, 2}, {3, 4}])


def random_family(stream, ground_n, m):
    sets = set()
    while len(sets) < m:
        members = frozenset(x for x in range(1, ground_n + 1) if stream.bits(1))
        if members:
            sets.add(members)
    return SetFamily(ground_n, tuple(sorted(sets, key=sorted)))


def test_family_validation():
    with pytest.raises(FamilyError):
        SetFamily.of(3, [{1}, {1}])
    with pytest.raises(FamilyError):
        SetFamily.of(3, [set()])
    with pytest.raises(FamilyError):
        SetFamily.of(3, [{4}])


def test_check_bisecting():
    assert check_bisecting(STAR4).ok
    assert check_bisecting(STAR5).ok
    verdict = check_bisecting(DISJOINT)
    assert not verdict.ok
    assert verdict.witness == (0, 1)
    assert check_bisecting(SetFamily.of(3, [{1, 2}])).ok  # no pairs


def test_tau():
    a, b = frozenset({1, 2}), frozenset({1, 3})
    assert tau(a, b) == a
    # when both ratios are half, the first argument wins
    assert tau(a, frozenset({2, 1})) == a
    c = frozenset({1, 2, 3, 4})
    assert tau(c, frozenset({1, 2})) in (c, frozenset({1, 2}))
    assert tau(frozenset({5, 6}), c) == c  # 2|ab|=0 != |c| so returns c


def test_incidence_rows():
    x = incidence_pm1(SetFamily.of(2, [{1}]))
    assert [v.value for v in x.row(0)] == [1, -1]
    x5 = incidence_pm1(STAR5)
    assert x5.n_rows == 4 and x5.n_cols == 5
    assert all(x5.at(r, 0).value == 1 for r in range(4))
    for r, s in enumerate(STAR5.sets):
        row_sum = sum(v.value for v in x5.row(r))
        assert row_sum == 2 * len(s) - 5


def test_gram_identity_counting_random_families():
    # XX^T(A,B) = n - 2(|A|+|B|) + 4|AnB| holds for every family
    stream = ByteStream(11, "families")
    for _ in range(15):
        fam = random_family(stream, 6, 4)
        x = incidence_pm1(fam).ints
        g = x @ x.T
        n = fam.ground_n
        for r, a in enumerate(fam.sets):
            for c, b in enumerate(fam.sets):
                expected = n if r == c else n - 2 * (len(a) + len(b)) + 4 * len(a & b)
                assert g[r, c] == expected


def test_gram_rank_at_most_ground_size():
    stream = ByteStream(13, "gramrank")
    for _ in range(10):
        fam = random_family(stream, 5, 4)
        x = incidence_pm1(fam)
        g = DenseMatrix(QQ, x.ints @ x.ints.T)
        assert rank(g).rank <= min(len(fam.sets), fam.ground_n)
        assert rank(g).rank == rank(x).rank  # Gram factorization over Q


def test_gram_check_star5():
    verdict = gram_check(STAR5)
    assert verdict.ok
    x = incidence_pm1(STAR5).ints
    assert (x @ x.T).tolist() == [[5, 1, 1, 1], [1, 5, 1, 1], [1, 1, 5, 1], [1, 1, 1, 5]]


def test_gram_check_negative_control():
    x = incidence_pm1(STAR5).ints
    for bad, shown in ((99, "99"), (Fraction(3, 2), "3/2")):
        rows = (x @ x.T).tolist()
        rows[1][2] = bad
        verdict = gram_check(STAR5, gram=DenseMatrix.from_rows(QQ, rows))
        assert not verdict.ok
        assert verdict.witness == (1, 2, "1", shown)
    assert gram_check(STAR5, gram=DenseMatrix(QQ, 2 * (x @ x.T), 2))


def test_gram_check_requires_bisecting():
    with pytest.raises(NotBisectingError):
        gram_check(DISJOINT)


def test_family_to_matrix_star():
    m, weights = family_to_matrix(STAR5)
    assert [v.value for v in weights.values] == [2, 2, 2, 2]
    assert [[v.value for v in m.row(r)] for r in range(4)] == [
        [0, 2, 2, 2], [2, 0, 2, 2], [2, 2, 0, 2], [2, 2, 2, 0]]
    assert rank(m).rank == 4
    assert in_matrix_family(m, weights)


def test_family_matrix_entries_are_tau_sizes():
    for fam in (STAR4, STAR5):
        m, _ = family_to_matrix(fam)
        for r, a in enumerate(fam.sets):
            for c, b in enumerate(fam.sets):
                if r != c:
                    assert m.at(r, c).value == len(tau(a, b))


def test_family_to_matrix_requires_bisecting():
    with pytest.raises(NotBisectingError):
        family_to_matrix(DISJOINT)


def test_size_bound_report_star():
    rep = size_bound_report(STAR5, Fraction(1, 2))
    assert rep["m"] == 4 and rep["n"] == 5
    assert rep["rank_matrix"] == 4
    assert rep["rank_gram"] <= 5
    assert rep["rank_ge_cm"] and rep["size_le_bound"]


def test_size_bound_report_ranks_the_gram_product():
    for fam in (STAR4, STAR5, SetFamily.of(4, [{1, 2}]), SetFamily.of(6, [{1, 2}, {1, 3, 4, 5}])):
        x = incidence_pm1(fam).ints
        rep = size_bound_report(fam, Fraction(1, 3))
        assert rep["rank_gram"] == rank(DenseMatrix(QQ, x @ x.T)).rank


def test_size_bound_single_set_vacuous():
    # one set means no pairs: bisecting vacuously, report still produced
    rep = size_bound_report(SetFamily.of(4, [{1, 2}]), Fraction(1, 2))
    assert rep["m"] == 1 and rep["size_le_bound"]
    assert rep["rank_matrix"] == 0  # the 1x1 zero matrix


def test_family_file_round_trip():
    text = format_family(STAR5)
    assert text.splitlines()[0] == "n=5"
    assert parse_family(text).sets == STAR5.sets
    with pytest.raises(FamilyParseError):
        parse_family("n=3\n2 1")  # not strictly increasing
    with pytest.raises(FamilyParseError):
        parse_family("n=3\n1 2\n1 2")  # duplicate
    with pytest.raises(FamilyParseError):
        parse_family("3\n1 2")


@pytest.mark.parametrize("text", ["n=3\n", "n=0\n", "n=3", "n=4\n\n  \n", ""])
def test_family_file_without_sets_is_refused(text):
    """No set line would make every check pass vacuously; one set stays accepted."""
    with pytest.raises(FamilyParseError):
        parse_family(text)
    assert parse_family("n=4\n1 2\n").sets == (frozenset({1, 2}),)
