"""Command-line entry point.

Subcommands: build, rank, minrank, montecarlo, verify, bisect, perm-scan.
Every run echoes its resolved configuration (including a defaulted seed) to
stderr before any result, so ad-hoc runs stay replayable; report bytes sent
to --out or stdout depend only on the flags and the seed, never on worker
count.  Exit codes: 0 all checks passed, 1 violations found, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import secrets
import sys
from fractions import Fraction
from functools import cache

from . import experiments
from .families import check_bisecting, family_to_matrix, parse_family
from .fields import Field, parse_field, parse_scalar
from .matrices import WeightSeq, matrix_from_csv, matrix_to_csv, tournament_matrix
from .rank import rank as matrix_rank
from .report import Report
from .tournaments import paley, parse_tournament, random_tournament, transitive


class UsageError(Exception):
    """Bad flag combination or malformed input file; exits with code 2."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every token starting with a minus and a
    digit as a value, so `--seq -1,2,3` and `--seq -1/2,3,5` parse as
    `--seq=-1,2,3` does; argparse's own rule takes single numbers only.  No
    option here starts with a digit.  Subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _parse_n_range(text: str):
    try:
        a, b = text.split("..")
        lo, hi = int(a), int(b)
    except ValueError as exc:
        raise UsageError(f"bad n-range {text!r}, want a..b") from exc
    if lo > hi:
        raise UsageError(f"empty n-range {text!r}")
    return range(lo, hi + 1)


def _read_maybe_file(text: str) -> str:
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as fh:
            return fh.read()
    return text


def _parse_seq(field: Field, text: str, n: int | None = None) -> WeightSeq:
    """The weights in `text` (or in the file it names), n of them unless n is None."""
    raw = _read_maybe_file(text)
    tokens = [tok for chunk in raw.split(",") for tok in chunk.split()]
    if not tokens:
        raise UsageError(f"no weights in {text!r}")
    parsed = {tok: parse_scalar(field, tok) for tok in dict.fromkeys(tokens)}
    values = [parsed[tok] for tok in tokens]
    if n is not None and len(values) != n:
        raise UsageError(f"need {n} weights, got {len(values)}")
    return WeightSeq(field, tuple(values))


def _weights(args, field: Field, n_default: int, default_weights) -> WeightSeq:
    """The weights from --seq, as many as --n if given; else default_weights(field,
    n) for n = --n or n_default."""
    if args.seq is not None:
        return _parse_seq(field, args.seq, args.n)
    return default_weights(field, n_default if args.n is None else args.n)


def _count_after(prefix: str, text: str, what: str) -> int:
    try:
        return int(text[len(prefix):])
    except ValueError as exc:
        raise UsageError(f"bad {what} {text!r}, want {prefix}<integer>") from exc


def _parse_tournament_arg(text: str, seed: int):
    for prefix, build in (("transitive:", transitive), ("paley:", paley),
                          ("random:", lambda n: random_tournament(n, seed, 0))):
        if text.startswith(prefix):
            return build(_count_after(prefix, text, "tournament"))
    return parse_tournament(_read_maybe_file(text))


def _emit(text, out_path: str | None):
    """Write `text`, a string or an iterable of strings, to out_path or stdout."""
    pieces = [text] if isinstance(text, str) else text
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _echo_config(args, extra: dict):
    items = {
        "command": args.command,
        "field": args.field,
        "seed": args.seed,
        "format": args.format,
        "workers": args.workers,
        **extra,
    }
    line = " ".join(f"{k}={v}" for k, v in items.items() if v is not None)
    print(f"config: {line}", file=sys.stderr)


def _emit_report(report: Report, args) -> int:
    if args.format == "csv":
        _emit(report.csv_chunks(), args.out)
    else:
        _emit(report.to_json(full_records=args.full_records), args.out)
    if not report.passed:
        first = next((rec for rec in report.records if not rec.get("pass", True)), None)
        print(f"FAIL: {report.summary.get('violations')} violation(s);"
              f" first witness: {first}", file=sys.stderr)
        return 1
    print(f"ok: {report.experiment_id} passed"
          f" ({report.summary.get('checks', len(report.records))} checks,"
          f" {report.wall_time_s:.2f}s)", file=sys.stderr)
    return 0


def _cmd_build(args) -> int:
    field = parse_field(args.field)
    t = _parse_tournament_arg(args.tournament, args.seed)
    weights = _parse_seq(field, args.seq, t.n)
    _echo_config(args, {"tournament": args.tournament, "n": t.n})
    _emit(matrix_to_csv(tournament_matrix(t, weights)), args.out)
    return 0


def _cmd_rank(args) -> int:
    override = None if args.field is None else parse_field(args.field)
    with open(args.matrix, "r", encoding="utf-8") as fh:
        m = matrix_from_csv(fh.read(), field=override)
    _echo_config(args, {"matrix": args.matrix})
    profile = matrix_rank(m)
    doc = {"rank": profile.rank, "pivot_columns": list(profile.pivot_columns),
           "field": str(profile.field)}
    _emit(json.dumps(doc, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_minrank(args) -> int:
    field = parse_field(args.field)
    weights = _parse_seq(field, args.seq, args.n)
    shard = None
    if args.shard:
        try:
            lo, hi = (int(x) for x in args.shard.split(":"))
        except ValueError as exc:
            raise UsageError(f"bad shard {args.shard!r}, want start:end") from exc
        shard = (lo, hi)
    _echo_config(args, {"n": args.n, "shard": args.shard})
    report = experiments.minrank_exhaustive(
        weights, shard=shard, workers=args.workers,
        conjecture_c=Fraction(args.conjecture_c) if args.conjecture_c else None)
    return _emit_report(report, args)


def _cmd_montecarlo(args) -> int:
    field = parse_field(args.field)
    weights = _parse_seq(field, args.seq, args.n)
    _echo_config(args, {"n": args.n, "samples": args.samples})
    report = experiments.montecarlo_rank(weights, args.samples, args.seed,
                                         workers=args.workers)
    return _emit_report(report, args)


def _verify_transitive(args, field):
    fixed = None if args.seq is None else _parse_seq(field, args.seq)
    return experiments.verify_transitive(_parse_n_range(args.n_range), field, trials=args.trials,
                                         seed=args.seed, sequence_source=fixed)


def _verify_reversal(args, field):
    return experiments.verify_reversal(_weights(args, field, 4, experiments.counting_weights),
                                       tournaments=args.sample, seed=args.seed)


def _verify_lipschitz(args, field):
    return experiments.verify_lipschitz(_weights(args, field, 8, experiments.cycling_weights),
                                        flips=args.flips, seed=args.seed)


def _verify_certify(args, field):
    return experiments.verify_certifiability(args.n_max, [field], z_values=(args.z,))


def _verify_constant(args, field):
    return experiments.verify_constant_seq(_parse_n_range(args.n_range), [field],
                                           value=args.value)


def _verify_ffbound(args, field):
    if not field.is_prime_field:
        raise UsageError("ffbound needs a prime field, e.g. --field 'GF(3)'")
    return experiments.verify_finite_field_bound(args.n_max, field.char)


def _verify_f_ensemble(args, field):
    if args.alpha is None or args.beta is None:
        raise UsageError("f-ensemble needs --alpha and --beta")
    return experiments.verify_f_ensemble(
        _weights(args, field, 4, experiments.counting_weights),
        parse_scalar(field, args.alpha), parse_scalar(field, args.beta),
        tournaments=args.sample, seed=args.seed)


# each theorem: the theorem flags it reads, with the value of each one left
# out (the flags it does not read must be left out), and its run
_THEOREMS = {
    "transitive": ({"n_range": "3..12", "seq": None, "trials": 50}, _verify_transitive),
    "reversal": ({"n": None, "seq": None, "sample": "exhaustive"}, _verify_reversal),
    "lipschitz": ({"n": None, "seq": None, "flips": 1000}, _verify_lipschitz),
    "certify": ({"n_max": 5, "z": 1}, _verify_certify),
    "constant": ({"n_range": "2..20", "value": 1}, _verify_constant),
    "ffbound": ({"n_max": 5}, _verify_ffbound),
    "f-ensemble": ({"n": None, "seq": None, "sample": "exhaustive", "alpha": None, "beta": None},
                   _verify_f_ensemble),
}
_THEOREM_FLAGS = sorted({flag for defaults, _ in _THEOREMS.values() for flag in defaults})


def _cmd_verify(args) -> int:
    field = parse_field(args.field)
    defaults, run = _THEOREMS[args.theorem]
    unread = ["--" + flag.replace("_", "-") for flag in _THEOREM_FLAGS
              if flag not in defaults and getattr(args, flag) is not None]
    if unread:
        raise UsageError(f"--theorem {args.theorem} does not read {', '.join(unread)}")
    for flag, default in defaults.items():
        if getattr(args, flag) is None:  # not `or`: --trials 0 must stay 0
            setattr(args, flag, default)
    _echo_config(args, {"theorem": args.theorem})
    return _emit_report(run(args, field), args)


def _cmd_bisect(args) -> int:
    with open(args.family, "r", encoding="utf-8") as fh:
        family = parse_family(fh.read())
    _echo_config(args, {"action": args.action, "family": args.family,
                        "m": len(family), "n": family.ground_n})
    if args.action == "check":
        verdict = check_bisecting(family)
        lines = [f"bisecting: {'true' if verdict.ok else 'false'}"]
        if not verdict.ok:
            a, b = verdict.witness
            lines.append(f"witness: sets {sorted(family.sets[a])} and {sorted(family.sets[b])}"
                         f" (indices {a},{b})")
        _emit("\n".join(lines) + "\n", args.out)
        return 0 if verdict.ok else 1
    matrix, weights = family_to_matrix(family)
    print(f"weights: {weights}", file=sys.stderr)
    _emit(matrix_to_csv(matrix), args.out)
    return 0


def _cmd_perm_scan(args) -> int:
    field = parse_field(args.field)
    t = _parse_tournament_arg(args.tournament, args.seed)
    weights = _parse_seq(field, args.seq, t.n)
    if args.mode == "all":
        mode, sample = "all", 0
    elif args.mode.startswith("sample:"):
        mode, sample = "sample", _count_after("sample:", args.mode, "mode")
    else:
        raise UsageError(f"bad mode {args.mode!r}, want all or sample:<k>")
    _echo_config(args, {"tournament": args.tournament, "mode": args.mode})
    report = experiments.perm_scan(t, weights, mode=mode, sample=sample, seed=args.seed)
    return _emit_report(report, args)


def _add_common(parser):
    parser.add_argument("--field", default="Q", help='field spec: Q or GF(<p>)')
    parser.add_argument("--seed", type=int, default=None,
                        help="64-bit seed (default: fresh entropy, echoed)")
    parser.add_argument("--out", default=None, help="write results to this path")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes; never changes output bytes")
    parser.add_argument("--full-records", action="store_true",
                        help="force per-record data into JSON output")


@cache  # built once per process: parse_args fills a fresh namespace each call
def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="tourmat", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a tournament matrix as CSV")
    _add_common(p)
    p.add_argument("--tournament", required=True,
                   help="transitive:<n> | paley:<q> | random:<n> | n=<n>:<bits> | file")
    p.add_argument("--seq", required=True, help="comma-separated weights or file")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("rank", help="exact rank of a matrix CSV")
    _add_common(p)
    p.add_argument("--matrix", required=True, help="matrix CSV path")
    p.set_defaults(fn=_cmd_rank, field=None)  # no --field: the CSV header's field

    p = sub.add_parser("minrank", help="exhaustive min rank over all tournaments")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--shard", default=None, help="code range start:end")
    p.add_argument("--conjecture-c", default=None,
                   help="informational rank >= c*n flag, e.g. 1/2")
    p.set_defaults(fn=_cmd_minrank)

    p = sub.add_parser("montecarlo", help="sample random tournaments and record ranks")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seq", required=True)
    p.set_defaults(fn=_cmd_montecarlo)

    p = sub.add_parser("verify", help="run a bound/identity verifier")
    _add_common(p)
    # the theorem flags default to None; _THEOREMS gives each theorem's defaults
    p.add_argument("--theorem", required=True, choices=tuple(_THEOREMS))
    p.add_argument("--n", type=int)
    p.add_argument("--n-range", help="inclusive range a..b")
    p.add_argument("--n-max", type=int)
    p.add_argument("--seq")
    p.add_argument("--trials", type=int)
    p.add_argument("--flips", type=int)
    p.add_argument("--sample", type=int, help="sample k tournaments instead of exhausting")
    p.add_argument("--alpha")
    p.add_argument("--beta")
    p.add_argument("--z", type=int)
    p.add_argument("--value", type=int)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("bisect", help="self-bisecting family checks and reduction")
    _add_common(p)
    p.add_argument("action", choices=("check", "matrix"))
    p.add_argument("--family", required=True, help="family file path")
    p.set_defaults(fn=_cmd_bisect)

    p = sub.add_parser("perm-scan", help="distinct ranks over permuted weights")
    _add_common(p)
    p.add_argument("--tournament", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--mode", default="all", help="all | sample:<k>")
    p.set_defaults(fn=_cmd_perm_scan)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed is None:
        args.seed = secrets.randbits(64)
    try:
        if args.workers < 1:
            raise UsageError(f"--workers must be at least 1, got {args.workers}")
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout closed early (`| head`): quiet the flush at exit; 1 as Python's EPIPE exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
