"""Verifiers, exhaustive min-rank search, Monte Carlo sampling, permutation scans.

Every function returns a :class:`~tourmat.report.Report` whose pass flag
means exactly "zero violation records".  Randomness is keyed per sample by
(seed, labels) so any run is replayable and independent of worker count;
worker parallelism only splits contiguous index ranges and merges with
order-independent reductions.  Checks against conjectured (unproven) values
are reported as information, never as violations.

Every sweep reads its tournaments as pair-bit arrays, not `Tournament`s.
The exhaustive min-rank search ranks code ranges by bordering (`_code_ranks`,
one int8 rank per code), and ranks each distinct matrix once by the
free-pair rule stated there.  The GF(p) floor reads its summaries shard by
shard, so the floor's violation rule and bound live only in `minrank_exhaustive`.
Monte Carlo ranks its pair-bit batches, all under one weight row, by
`class_pivot_ranks`: its largest equal-weight class, then `stack_ranks` of
one Schur complement formed from the bits, with no n x n matrix built.
Every other sweep ranks its `tournament_stack` batches with `stack_ranks`.
Each entry point reads n and the field from its weights and clears them to one
integer row (`WeightSeq.int_row`) once per sweep; `perm_scan` permutes that
row's columns, and the verifiers that vary the weights pass one row per matrix.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import multiprocessing
import os
import statistics
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np

from . import bounds
from .fields import Field, Scalar
from .matrices import (DenseMatrix, LengthMismatchError, WeightSeq, ZeroWeightError, int_array,
                       tournament_stack)
from .rank import _reduce, bordered_ranks, class_pivot_ranks, stack_ranks
from .report import RecordTable, Report
from .rng import ByteStream
from .tournaments import (
    Tournament,
    bit_codes,
    code_bits,
    code_range,
    format_tournament,
    n_pairs,
    pair_bits,
    pair_index,
    random_pair_bits,
)

MAX_PERM_N = 9
ARGMIN_CODES_KEPT = 16
_BATCH_ENTRIES = 2**16  # matrix entries per stack a sweep builds and ranks
_SWEEP_CODES = 2**16  # codes per GF(p) floor shard and per slice min-rank keys or reduces
_WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class BadRangeError(ValueError):
    """A vertex count below what the check needs (n >= 3 transitive, 1 min-rank, else 2)."""


class EmptyRunError(ValueError):
    """The run would check nothing (no sizes or no samples); refused, not passed."""


class DegenerateMixError(ValueError):
    """alpha + beta = 0 makes the linear-mix rank bound vacuous; run refused."""


class TooManyPermutationsError(ValueError):
    """Full permutation scan requested beyond n = 9."""


class TournamentSourceError(ValueError):
    """A tournament source other than "exhaustive" or a sample count."""


def _random_nonzero(field: Field, stream: ByteStream) -> int:
    """Uniform nonzero residue for GF(p); uniform integer in 1..100 for Q."""
    return 1 + stream.randrange(field.char - 1 if field.char else 100)


def _random_row(field: Field, n: int, seed: int, *labels) -> np.ndarray:
    """n independent nonzero weights from the stream keyed by (seed, labels),
    as a (1, n) int64 row (already cleared: residues, or integers over Q)."""
    stream = ByteStream(seed, "weights", *labels)
    return np.array([[_random_nonzero(field, stream) for _ in range(n)]], dtype=np.int64)


def cycling_weights(field: Field, n: int) -> WeightSeq:
    """Weights cycling through (1, 2), or all 1 when p = 2."""
    values = (1,) if field.char == 2 else (1, 2)
    return WeightSeq.of(field, [values[k % len(values)] for k in range(n)])


def counting_weights(field: Field, n: int) -> WeightSeq:
    """The sequence 1, 2, ..., n kept nonzero: literal over Q, and walked
    through the nonzero residues 1..p-1 cyclically over GF(p)."""
    return WeightSeq.of(field, [_nonzero_filler(field, k) for k in range(n)])


def _nonzero_filler(field: Field, k: int) -> int:
    """k + 1 over Q; over GF(p) the (k mod (p - 1)) + 1-th nonzero residue."""
    return 1 + k % (field.char - 1) if field.char else k + 1


def _require_n(n: int, least: int, what: str):
    if n < least:
        raise BadRangeError(f"{what} needs n >= {least}, got {n}")


def _refuse_empty(count: int, what: str):
    if count < 1:
        raise EmptyRunError(f"{what} leaves nothing to check; refusing to report a vacuous pass")


def _finish(t0: float, experiment_id: str, parameters: dict, records: list,
            summary: dict, violations: int | None = None) -> Report:
    """The report with its violation count (default: records that failed),
    pass flag and wall time since t0."""
    if violations is None:
        violations = sum(1 for rec in records if not rec["pass"])
    summary["violations"] = violations
    summary["pass"] = violations == 0
    report = Report(experiment_id, parameters, records, summary)
    report.wall_time_s = time.perf_counter() - t0
    return report


def _batch_size(n: int) -> int:
    """Matrices per stack a sweep builds and ranks: about _BATCH_ENTRIES entries."""
    return max(1, _BATCH_ENTRIES // (n * n))


def _bit_batches(n: int, lo: int, hi: int, seed: int | None = None):
    """(first code, pair bits) of the codes on n vertices in [lo, hi), or with a
    seed of the samples `random_tournament(n, seed, i)` for i in [lo, hi), in
    order, in batches of `_batch_size(n)` matrices."""
    step = _batch_size(n)
    for a in range(lo, hi, step):
        b = min(a + step, hi)
        yield a, pair_bits(n, a, b) if seed is None else random_pair_bits(n, seed, a, b)


def _ranks_side_by_side(stacks, p: int) -> list:
    """[rank of stacks[0][b], rank of stacks[1][b], ...] for each b, ranked as one
    stack with b's matrices adjacent (matrices short of full rank slow their stack)."""
    stack = np.stack(stacks, axis=1)
    return stack_ranks(stack.reshape(-1, *stack.shape[2:]), p).reshape(len(stack), -1).tolist()


def _pair_sums(row, p: int):
    """The pair sums a_i + a_j (i != j) straight from a (1, n) row, as one stack
    with a zero diagonal (Python ints over Q)."""
    a = row if p else row.astype(object)
    return _reduce(np.where(np.eye(a.shape[1], dtype=bool), 0, a.T + a)[None], p)


# ---------------------------------------------------------------------------
# Theorem verifiers
# ---------------------------------------------------------------------------

def verify_transitive(n_range, field: Field, trials: int = 50, seed: int = 0,
                      sequence_source=None) -> Report:
    """Check rank >= floor(2n/3) - 1 for transitive tournaments.

    For each n, each trial draws a weight sequence (random nonzero entries,
    or a fixed list cycled to length n) and checks the reverse-ranked
    transitive matrix plus a transitive tournament under a random vertex
    order.  Holds over every field, including characteristic 2.
    """
    t0 = time.perf_counter()
    n_list = list(n_range)
    _require_n(min(n_list, default=3), 3, "transitive check")
    fixed = None
    if sequence_source is not None:
        fixed = list(sequence_source)
        _refuse_empty(len(fixed), "an empty weight sequence")
    _refuse_empty(len(n_list) * trials, f"{len(n_list)} sizes x {trials} trials")
    records = []
    for n in n_list:
        bound = bounds.transitive_floor_bound(n)
        rows, cols = np.triu_indices(n, 1)
        step = _batch_size(n)
        if fixed is not None:
            row = WeightSeq.of(field, [fixed[i % len(fixed)] for i in range(n)]).int_row()
        for ks in (range(a, min(a + step, trials)) for a in range(0, trials, step)):
            vals = np.concatenate([_random_row(field, n, seed, "transitive", n, k) if fixed is None
                                   else row for k in ks])
            # place[b, v] is vertex v + 1's place in trial b's order; earlier beats later
            place = np.argsort([ByteStream(seed, "transitive-order", n, k).shuffled(range(n))
                                for k in ks], axis=1)
            # code 0 is the reverse-ranked transitive tournament: j beats i for i < j
            ranks = _ranks_side_by_side([tournament_stack(bits, vals) for bits in (
                np.zeros((1, len(rows)), np.uint8), np.less(place[:, rows], place[:, cols]))],
                field.char)
            for k, pair in zip(ks, ranks):
                records += [{"n": n, "trial": k, "kind": kind, "rank": r, "bound": bound,
                             "pass": r >= bound}
                            for kind, r in zip(("reverse_ranked", "random_order"), pair)]
    parameters = {
        "n_range": [min(n_list), max(n_list)],
        "field": str(field),
        "trials": trials,
        "seed": seed,
        "sequence_source": "fixed" if fixed is not None else "random",
    }
    summary = {"checks": len(records), "min_rank": min(rec["rank"] for rec in records)}
    return _finish(t0, "transitive-floor", parameters, records, summary)


def _mix_reversal_sweep(weights: WeightSeq, alpha, beta, tournaments, seed: int, more_ok):
    """Records, one per tournament t, for the linear-mix matrices M(t) and
    M(rev t) of Scalars alpha and beta, plus the report parameters of the sweep.

    Checks M(t) + M(rev t) = (alpha + beta) times the pair-sum matrix
    entrywise; in characteristic != 2 also rank M(t) + rank M(rev t) >= n - 2
    and more_ok(rank M(t), rank M(rev t)).
    """
    n, field = len(weights), weights.field
    _require_n(n, 2, "reversal check")
    if tournaments == "exhaustive":
        lo, hi, sample_seed = *code_range(n), None
    elif isinstance(tournaments, int):
        _refuse_empty(tournaments, f"{tournaments} sampled tournaments")
        lo, hi, sample_seed = 0, tournaments, seed
    else:
        raise TournamentSourceError(f'want "exhaustive" or a sample count, got {tournaments!r}')
    p = field.char
    row = weights.int_row()
    # M(t) = a W + b L, M(rev t) = a L + b W (L: the reversals' stacks); a and b
    # are the mix's cleared row: residues, or integers over Q
    (a, b), = DenseMatrix.from_rows(field, [[alpha, beta]]).ints.tolist()
    expected = _reduce((a + b) * _pair_sums(row, p), p)
    vals = row if p else row.astype(object)  # over Q Python ints, which no mix overflows
    low = bounds.reversal_sum_bound(n)
    records = []
    for _, bits in _bit_batches(n, lo, hi, sample_seed):
        w, rev = (tournament_stack(x, vals) for x in (bits, 1 - bits))
        mt, mr = _reduce(a * w + b * rev, p), _reduce(a * rev + b * w, p)
        identity = (_reduce(mt + mr, p) == expected).all(axis=(1, 2)).tolist()
        ranks = [(None, None)] * len(bits) if p == 2 else _ranks_side_by_side([mt, mr], p)
        for code, identity_ok, (rt, rr) in zip(bit_codes(bits), identity, ranks):
            ok = identity_ok and (p == 2 or rt + rr >= low and more_ok(rt, rr))
            records.append({"code": code, "identity_ok": identity_ok,
                            "rank_t": rt, "rank_rev": rr, "pass": ok})
    parameters = {
        "n": n, "field": str(field), "weights": str(weights), "seed": seed,
        "tournaments": tournaments,
        "rank_checks": "refused: characteristic 2" if p == 2 else "enabled",
    }
    return records, parameters


def verify_reversal(weights: WeightSeq, tournaments="exhaustive", seed: int = 0) -> Report:
    """Check the reversal identity and its rank consequences per tournament.

    (i) matrix + reversed-tournament matrix = pair-sum matrix, entrywise and
    in every characteristic; in characteristic != 2 additionally (ii) the
    pair-sum matrix has rank >= n - 2, (iii) the two ranks sum to >= n - 2,
    and (iv) the larger is >= ceil((n - 2)/2).  The tournament matrix is the
    linear mix with alpha = 1, beta = 0.
    """
    t0 = time.perf_counter()
    p = weights.field.char
    rank_sum = None if p == 2 else int(stack_ranks(_pair_sums(weights.int_row(), p), p)[0])
    low = bounds.reversal_sum_bound(len(weights))
    half = -(-low // 2)  # ceil((n - 2) / 2)
    records, parameters = _mix_reversal_sweep(
        weights, weights.field.one, weights.field.zero, tournaments, seed,
        lambda rt, rr: rank_sum >= low and max(rt, rr) >= half)
    summary = {"checks": len(records), "rank_sum_matrix": rank_sum}
    return _finish(t0, "reversal-identity", parameters, records, summary)


def verify_lipschitz(weights: WeightSeq, flips: int = 1000, seed: int = 0) -> Report:
    """Check the two perturbation bounds: |rank change| <= 2 per single edge
    flip and per single weight replacement, over random instances."""
    t0 = time.perf_counter()
    n, field = len(weights), weights.field
    _require_n(n, 2, "edge-flip check")
    _refuse_empty(flips, f"flips={flips}")
    # row is int_row(); a replaced weight enters it times den (1 over GF(p)), which keeps
    # each replaced row a multiple of its own weights' int_row, so no rank moves
    cleared = DenseMatrix.from_rows(field, [weights.values])
    row, den = cleared.ints, cleared.den
    records = []
    for first, bits in _bit_batches(n, 0, flips, seed):
        flipped, replaced = bits.copy(), np.repeat(row.astype(object), len(bits), axis=0)
        for b in range(len(bits)):
            stream = ByteStream(seed, "lipschitz", first + b)
            u = stream.randrange(n)  # the flipped edge's vertices u + 1 and v + 1
            v = (u + 1 + stream.randrange(n - 1)) % n  # an offset of 1..n-1 keeps v != u
            flipped[b, pair_index(n, 1 + min(u, v), 1 + max(u, v))] ^= 1
            pos = stream.randrange(n)
            replaced[b, pos] = _random_nonzero(field, stream) * den
        # each trial's rank as drawn, with one edge flipped, and with one weight replaced
        ranks = _ranks_side_by_side([tournament_stack(b, vals) for b, vals in (
            (bits, row), (flipped, row), (bits, int_array(replaced)))], field.char)
        for i, (r, r_flip, r_replace) in enumerate(ranks, first):
            records.append({"trial": i, "rank": r, "rank_flipped": r_flip,
                            "rank_replaced": r_replace,
                            "pass": abs(r_flip - r) <= 2 and abs(r_replace - r) <= 2})
    parameters = {"n": n, "field": str(field), "weights": str(weights),
                  "flips": flips, "seed": seed}
    return _finish(t0, "edge-flip-lipschitz", parameters, records, {"checks": len(records)})


def _certify_weights(field: Field, n: int, s: int, z: Scalar) -> WeightSeq:
    """First s + 1 weights equal z; the rest varied nonzero filler."""
    return WeightSeq.of(field, [z] * (s + 1) + [_nonzero_filler(field, i) for i in range(s + 1, n)])


def verify_certifiability(n_max: int, fields, z_values=(1,)) -> Report:
    """Exhaustively check that the leading s x s or (s+1) x (s+1) minor is
    nonzero whenever the first s + 1 weights are equal.

    Runs every tournament on n <= n_max vertices, every s in 1..n-1, every
    field, every z.  A minor is nonzero exactly when its block has full
    rank, so each batch ranks its s-blocks, then its (s+1)-blocks only where
    the s-block falls short, and none when no s-block does.  Records are
    aggregated per (n, s, field, z).

    With these weights the check cannot fail: the leading (s+1)-block is
    z(J - I) for every tournament, whose k x k minor is (-1)^(k-1) (k-1) z^k,
    and no prime divides both s - 1 and s.
    """
    t0 = time.perf_counter()
    _refuse_empty(n_max - 1, f"n_max={n_max}")
    code_range(n_max)  # refuse codes that overflow one word before any work
    records = []
    for field in fields:
        p = field.char
        for raw_z in z_values:
            z = field.scalar(raw_z)
            if z.is_zero():
                raise ZeroWeightError(f"z = {raw_z} vanishes in {field}")
            for n in range(2, n_max + 1):
                lo, hi = code_range(n)
                for s in range(1, n):
                    bad = 0
                    first_bad = None
                    row = _certify_weights(field, n, s, z).int_row()
                    for first, bits in _bit_batches(n, lo, hi):
                        batch = tournament_stack(bits, row)
                        short = np.flatnonzero(stack_ranks(batch[:, :s, :s], p) < s)
                        failed = (short[stack_ranks(batch[short, :s + 1, :s + 1], p) < s + 1]
                                  if short.size else short)
                        if first_bad is None and failed.size:
                            first_bad = first + int(failed[0])
                        bad += failed.size
                    records.append({
                        "n": n, "s": s, "field": str(field), "z": str(z),
                        "tournaments": hi - lo, "violations": bad,
                        "first_bad_code": first_bad, "pass": bad == 0,
                    })
    parameters = {"n_max": n_max, "fields": [str(f) for f in fields],
                  "z_values": [str(z) for z in z_values]}
    return _finish(t0, "certifiability-minors", parameters, records,
                   {"checks": sum(rec["tournaments"] for rec in records)},
                   violations=sum(rec["violations"] for rec in records))


def verify_constant_seq(n_range, fields, value: int = 1) -> Report:
    """For constant weights every tournament has the same matrix; check its
    rank is >= n - 1 over every field, and equals n - 1 exactly when the
    characteristic divides n - 1 (else n).  Needs n >= 2."""
    t0 = time.perf_counter()
    n_list = list(n_range)
    _require_n(min(n_list, default=2), 2, "constant-weight check")
    _refuse_empty(len(n_list) * len(fields), f"{len(n_list)} sizes x {len(fields)} fields")
    records = []
    for field in fields:
        a = field.scalar(value)
        if a.is_zero():
            raise ZeroWeightError(f"constant {value} vanishes in {field}")
        for n in n_list:
            # code 2**m - 1 (every bit set) is the transitive tournament 1 -> 2 -> ... -> n
            bits = np.concatenate([np.ones((1, n_pairs(n)), dtype=np.uint8),
                                   random_pair_bits(n, 1, n, n + 1)])
            built = tournament_stack(bits, WeightSeq(field, (a,) * n).int_row())
            # the constant matrix a(J - I), built directly (a is an integer over Q)
            const = (1 - np.eye(n, dtype=built.dtype)) * int(a.value)
            collapse_ok = bool((built == const).all())
            r = int(stack_ranks(const[None], field.char)[0])
            low = bounds.constant_seq_bound(n)
            char_divides = field.char != 0 and (n - 1) % field.char == 0
            full_ok = (r == n - 1) if char_divides else (r == n)
            records.append({
                "n": n, "field": str(field), "rank": r, "bound": low,
                "char_divides_n_minus_1": char_divides,
                "pass": collapse_ok and r >= low and full_ok,
            })
    return _finish(t0, "constant-weights", {"fields": [str(f) for f in fields], "value": value},
                   records, {"checks": len(records)})


def verify_f_ensemble(weights: WeightSeq, alpha, beta,
                      tournaments="exhaustive", seed: int = 0) -> Report:
    """Check the linear-mix reversal law and rank-sum bound per tournament.

    The mix matrix plus its reversal's must equal (alpha + beta) times the
    pair-sum matrix entrywise; in characteristic != 2 the two ranks must sum
    to >= n - 2.  alpha + beta = 0 is refused outright.
    """
    t0 = time.perf_counter()
    field = weights.field
    alpha, beta = field.scalar(alpha), field.scalar(beta)
    if field.scalar(alpha.value + beta.value).is_zero():
        raise DegenerateMixError(
            f"alpha + beta = 0 in {field}: the pair-sum matrix vanishes and the"
            " rank-sum bound says nothing; refusing to report a vacuous pass")
    records, parameters = _mix_reversal_sweep(weights, alpha, beta, tournaments, seed,
                                              lambda rt, rr: True)
    parameters.update(alpha=str(alpha), beta=str(beta))
    return _finish(t0, "linear-mix-reversal", parameters, records, {"checks": len(records)})


def verify_finite_field_bound(n_max: int, p: int) -> Report:
    """Exhaustively check rank >= n/(p - 1) - 1 over GF(p) for cycling weights,
    merging the summaries of `minrank_exhaustive` run shard by shard."""
    t0 = time.perf_counter()
    _refuse_empty(n_max, f"n_max={n_max}")
    code_range(n_max)  # refuse codes that overflow one word before any work
    field = Field(p)
    records = []
    for n in range(1, n_max + 1):
        weights = cycling_weights(field, n)
        lo, hi = code_range(n)
        step = max(_SWEEP_CODES, 1 << (n - 1))  # whole runs of codes per shard
        shards = [minrank_exhaustive(weights, shard=(a, min(a + step, hi))).summary
                  for a in range(lo, hi, step)]
        bad = sum(s["violations"] for s in shards)
        records.append({
            "n": n, "tournaments": hi - lo, "min_rank": min(s["min_rank"] for s in shards),
            "bound": shards[0]["ff_bound"], "violations": bad, "pass": bad == 0,
        })
    parameters = {"n_max": n_max, "field": str(field), "weights": "cycling"}
    return _finish(t0, "finite-field-floor", parameters, records,
                   {"checks": sum(rec["tournaments"] for rec in records)},
                   violations=sum(rec["violations"] for rec in records))


# ---------------------------------------------------------------------------
# Exhaustive min-rank search and Monte Carlo sampling (worker-splittable)
# ---------------------------------------------------------------------------

def _split_range(start: int, end: int, parts: int, align: int = 1):
    """Contiguous nonempty chunks covering [start, end); at most `parts` of them,
    cut only at multiples of `align`."""
    total = end - start
    parts = max(1, min(parts, total))
    cuts = {(start + total * i // parts) // align * align for i in range(1, parts)}
    cuts = sorted({start, end} | {c for c in cuts if start < c < end})
    return list(zip(cuts, cuts[1:]))


def _ranks_chunk(args):
    """For args = (row, p, lo, hi, seed), the ranks mod p (over Q with p = 0)
    of `_bit_batches(row.shape[1], lo, hi, seed)` under the row, in order, by
    one `class_pivot_ranks` call for the whole chunk."""
    row, p, lo, hi, seed = args
    batches = (bits for _, bits in _bit_batches(row.shape[1], lo, hi, seed))
    return class_pivot_ranks(batches, row, p).tolist()


def _first_with_key(ks, mask, k0):
    """The least x >= k0 with x & mask == k & mask, for each k of the int64
    array ks: the first run at or after k0 with k's block key (`_code_ranks`).

    x = key + s for key = k & mask and the least s >= t = k0 - key with no
    bit in mask: t itself when t has none, else t's bits above the lowest
    bit c that lies above t's highest bit in mask and is clear in t and in
    mask, plus bit c.
    """
    key = ks & mask
    t = np.maximum(k0 - key, 0)
    low = t & mask
    for shift in (1, 2, 4, 8, 16, 32):
        low |= low >> shift  # every bit up to t's highest bit in mask
    return key + np.where(low, ((t | mask | low) + 1) & ~mask, t)


def _code_ranks(args) -> np.ndarray:
    """The ranks mod p (over Q with p = 0) of the tournaments on n =
    row.shape[1] vertices with codes in [lo, hi), for args = (row, p, lo, hi),
    as an int8 array in code order.

    Vertex 1's n - 1 pairs are a code's low bits, so each aligned run of
    2**(n-1) codes, k * 2**(n-1) + border bits, shares the block on vertices
    2..n (the tournament with code k there) and differs only in vertex 1's
    row: the matrices [[0, u^T], [u, B]] that `bordered_ranks` ranks.

    Free pairs: entry (i, j) of a tournament matrix is a_i or a_j, so a pair
    whose two weights are equal in the cleared row (residues over GF(p),
    integers over Q) gives the same matrix either way.  Only the bits of the
    free pairs, those whose weights differ, change the matrix, so a code
    masked to its free pairs is a key of its matrix: the border key of the
    border bits, and the block key of k.  Each distinct border and each
    distinct block of the runs that meet [lo, hi) is built once, from the
    first code with its key, and ranked once, in batches of blocks.  Each
    slice of runs writes the fanned-out ranks of its first runs, then copies
    every run from its first run, which lies at or before it and so is ranked
    already: the distinct ranks take no table beside the rank array.  With
    every weight distinct each key is its code and each run is ranked, as
    without keys.  A run only partly inside the range is ranked whole and
    cut to it.
    """
    row, p, lo, hi = args
    n = row.shape[1]
    run = 1 << (n - 1)
    rows, cols = np.triu_indices(n, 1)
    free = sum(1 << int(k) for k in np.flatnonzero(row[0, rows] != row[0, cols]))
    codes = np.arange(run)
    own = (codes & free) == codes  # the first border with a key is the key itself
    borders = tournament_stack(pair_bits(n, 0, run)[own], row)[:, 0, 1:]
    border_of = (np.cumsum(own) - 1)[codes & free]
    mask, k0, k1 = free >> (n - 1), lo // run, -(-hi // run)
    ranks = np.empty((k1 - k0, run), dtype=np.int8)
    # a batch holds each block's Gauss-Jordan [B | I] and its bordered children
    step = max(1, _BATCH_ENTRIES // (len(borders) * n + 2 * (n - 1) ** 2))
    span = max(1, _SWEEP_CODES // run)  # runs per slice
    for a in range(k0, k1, span):
        ks = np.arange(a, min(a + span, k1))
        first = _first_with_key(ks, mask, k0) - k0
        at = first[first == ks - k0]  # the first runs with their keys
        for i in range(0, len(at), step):
            blocks = tournament_stack(code_bits(n - 1, (k0 + at[i:i + step]).tolist()), row[:, 1:])
            ranks[at[i:i + step]] = bordered_ranks(blocks, borders, p)[:, border_of]
        ranks[a - k0:a - k0 + len(ks)] = ranks[first]
    return ranks.reshape(-1)[lo - k0 * run:hi - k0 * run]


@contextlib.contextmanager
def _environment(values: dict):
    """os.environ updated by `values` inside the block, and restored after it."""
    saved = {k: os.environ.get(k) for k in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k)
            else:
                os.environ[k] = v


def _run_chunks(fn, jobs, workers):
    """[fn(job) for job in jobs], run in this process or by a pool of workers."""
    # a process per worker, at most one per CPU this process may run on (a cpuset's)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, len(jobs), cpus or 1)
    if workers <= 1:
        return [fn(job) for job in jobs]
    # spawned children load OpenBLAS afresh, with one thread each: at its
    # default of one thread per CPU, parallel workers oversubscribe the CPUs
    with _environment(_WORKER_ENV), ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(fn, jobs))


def minrank_exhaustive(weights: WeightSeq, shard=None, workers: int = 1,
                       conjecture_c=None) -> Report:
    """Rank every tournament on n vertices (codes in `shard`, default all).

    Returns the minimum rank, the first few argmin codes, and the full rank
    histogram.  Over a prime field the proven floor n/(p - 1) - 1 is
    asserted per tournament; a user-supplied constant c only adds an
    informational "min_rank >= c*n" flag, never a violation.
    """
    t0 = time.perf_counter()
    n, field = len(weights), weights.field
    _require_n(n, 1, "exhaustive min-rank")
    lo, hi = code_range(n, *shard) if shard is not None else code_range(n)
    _refuse_empty(hi - lo, f"shard [{lo}, {hi})")
    row = weights.int_row()
    jobs = [(row, field.char, a, b) for a, b in _split_range(lo, hi, workers, 1 << (n - 1))]
    parts = _run_chunks(_code_ranks, jobs, workers)
    ranks = parts[0] if len(parts) == 1 else np.concatenate(parts)
    low = bounds.finite_field_bound(n, field.char) if field.is_prime_field else None
    need = 0 if low is None else math.ceil(low)  # ranks are >= 0, so 0 checks nothing
    # a comparison makes a bool array as long as its input, so the counts and
    # the argmins run over slices of the int8 ranks.  A slice compares only
    # with the ranks from its min up to its max, which takes the rest: bincount
    # would count it in one pass, but casts it to intp and is slower than that
    starts = range(0, len(ranks), _SWEEP_CODES)
    counts = np.zeros(n + 1, dtype=np.int64)
    for i in starts:
        part = ranks[i:i + _SWEEP_CODES]
        least, most = int(part.min()), int(part.max())
        below = [np.count_nonzero(part == r) for r in range(least, most)]
        counts[least:most + 1] += below + [len(part) - sum(below)]
    min_rank = int(np.flatnonzero(counts)[0])
    argmins = (lo + i + j for i in starts
               for j in np.flatnonzero(ranks[i:i + _SWEEP_CODES] == min_rank).tolist())
    kept = list(itertools.islice(argmins, ARGMIN_CODES_KEPT))
    summary = {
        "min_rank": min_rank,
        "argmin_count": int(counts[min_rank]),
        "argmin_codes": kept,
        "argmin_tournaments": [format_tournament(Tournament(n, c)) for c in kept],
        "rank_histogram": {str(r): int(c) for r, c in enumerate(counts) if c},
        "ff_bound": str(low) if low is not None else None,
    }
    if conjecture_c is not None:
        c = Fraction(conjecture_c)
        summary["conjecture_c"] = str(c)
        summary["min_rank_ge_cn"] = min_rank >= c * n
    parameters = {"n": n, "field": str(field), "weights": str(weights), "shard": [lo, hi]}
    return _finish(t0, "minrank-exhaustive", parameters, RecordTable(lo, ranks, need), summary,
                   violations=int(counts[:need].sum()))


def montecarlo_rank(weights: WeightSeq, samples: int, seed: int, workers: int = 1) -> Report:
    """Sample uniform tournaments by (seed, index) and record every rank.

    In characteristic != 2 each rank is asserted against the certified floor
    of n/2 - 21*sqrt(n*ln n); when that floor is <= 0 the check is vacuous
    and flagged as such.  The report depends only on (weights, samples, seed),
    which fix n and the field - never on the worker count.
    """
    t0 = time.perf_counter()
    n, field = len(weights), weights.field
    _refuse_empty(samples, f"samples={samples}")
    char2 = field.char == 2
    low = bounds.half_minus_tail_floor(n)
    vacuous = bounds.half_minus_tail_vacuous(n)
    row = weights.int_row()
    jobs = [(row, field.char, a, b, seed) for a, b in _split_range(0, samples, workers)]
    ranks = list(itertools.chain.from_iterable(_run_chunks(_ranks_chunk, jobs, workers)))
    records = [{"index": i, "rank": r, "bound": low, "pass": True if char2 else r >= low}
               for i, r in enumerate(ranks)]
    parameters = {
        "n": n, "field": str(field), "weights": str(weights),
        "samples": samples, "seed": seed,
        "theorem_check": "refused: characteristic 2" if char2 else "enabled",
    }
    summary = {
        "min_rank": min(ranks),
        "median_rank": statistics.median(ranks),
        "rank_histogram": dict(Counter(map(str, ranks))),
        "bound_floor": low,
        "bound_vacuous": vacuous,
    }
    return _finish(t0, "montecarlo-rank", parameters, records, summary)


def perm_scan(t: Tournament, weights: WeightSeq,
              mode: str = "all", sample: int = 1000, seed: int = 0) -> Report:
    """Scan ranks of the fixed tournament's matrix over permuted weights.

    mode "all" iterates every permutation (n <= 9); mode "sample" draws
    `sample` seeded random permutations.  Reports the distinct ranks with one
    witness permutation each - findings only, no pass/fail: whether the rank
    is permutation-invariant is an open question.
    """
    t0 = time.perf_counter()
    n = t.n
    if len(weights) != n:
        raise LengthMismatchError(f"{len(weights)} weights for n={n}")
    if mode == "all":
        if n > MAX_PERM_N:
            raise TooManyPermutationsError(f"n={n} has n! > {MAX_PERM_N}! permutations")
        perms = itertools.permutations(range(1, n + 1))
    elif mode == "sample":
        _refuse_empty(sample, f"sample={sample}")
        perms = (tuple(ByteStream(seed, "perm", i).shuffled(range(1, n + 1)))
                 for i in range(sample))
    else:
        raise ValueError(f'mode must be "all" or "sample", got {mode!r}')
    witness, counts = {}, Counter()
    bits, row = code_bits(n, [t.code]), weights.int_row()[0]
    while batch := list(itertools.islice(perms, _batch_size(n))):
        # the permuted weights' value k is value perm[k] - 1 of the row
        stack = tournament_stack(bits, row[np.subtract(batch, 1)])
        for perm, r in zip(batch, stack_ranks(stack, weights.field.char).tolist()):
            counts[r] += 1
            witness.setdefault(r, perm)
    records = [{"rank": r, "count": counts[r], "witness_perm": list(witness[r])}
               for r in sorted(witness)]
    parameters = {"n": n, "field": str(weights.field), "weights": str(weights),
                  "tournament_code": t.code, "mode": mode,
                  "sample": sample if mode == "sample" else None, "seed": seed}
    summary = {"scanned": counts.total(), "distinct_ranks": sorted(witness), "exploratory": True}
    return _finish(t0, "perm-scan", parameters, records, summary, violations=0)
