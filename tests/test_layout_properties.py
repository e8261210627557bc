"""Property tests of the two text layouts: tournament pair bits and matrix CSV.

`Tournament.bits()` and `from_bits` own the pair-bit layout; the shift
`(code >> k) & 1` is kept here only as the oracle they are checked against,
and the oracles' `has_edge` is the oracle of the one-pass `out_degree`.
The matrix CSV round trip is checked over Q with fractional entries and over
prime fields.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import has_edge
from tourmat.fields import GF, QQ
from tourmat.matrices import WeightSeq, matrix_from_csv, matrix_to_csv, ratio_matrix
from tourmat.tournaments import (
    Tournament,
    format_tournament,
    from_bits,
    n_pairs,
    parse_tournament,
)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def tournaments_on(n):
    return st.builds(Tournament, st.just(n), st.integers(0, (1 << n_pairs(n)) - 1))


tournaments = st.integers(1, 12).flatmap(tournaments_on)


@SETTINGS
@given(tournaments)
def test_bits_follow_the_code(t):
    bits = t.bits()
    assert len(bits) == n_pairs(t.n)
    for k in range(len(bits)):
        assert bits[k] == str((t.code >> k) & 1)


@SETTINGS
@given(tournaments)
def test_from_bits_inverts_bits(t):
    assert from_bits(t.n, t.bits()) == t


@SETTINGS
@given(tournaments)
def test_parse_inverts_format(t):
    assert parse_tournament(format_tournament(t)) == t


@SETTINGS
@given(tournaments)
def test_out_degree_counts_wins(t):
    vertices = range(1, t.n + 1)
    degrees = [t.out_degree(v) for v in vertices]
    assert degrees == [sum(has_edge(t.n, t.code, v, u) for u in vertices if u != v)
                       for v in vertices]
    assert sum(degrees) == n_pairs(t.n)


nonzero_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)


@SETTINGS
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    tournaments_on(n), st.lists(nonzero_fractions, min_size=n, max_size=n))))
def test_csv_round_trip_over_q(case):
    t, values = case
    m = ratio_matrix(t, WeightSeq.of(QQ, values))
    assert matrix_from_csv(matrix_to_csv(m)) == m


@SETTINGS
@given(st.tuples(st.sampled_from((2, 3, 5, 2**31 - 1)), st.integers(1, 7)).flatmap(
    lambda pn: st.tuples(st.just(pn[0]), tournaments_on(pn[1]),
                         st.lists(st.integers(1, pn[0] - 1), min_size=pn[1], max_size=pn[1]))))
def test_csv_round_trip_over_gf_p(case):
    p, t, values = case
    m = ratio_matrix(t, WeightSeq.of(GF(p), values))
    assert matrix_from_csv(matrix_to_csv(m)) == m
