"""Command-line front end: deformed-structure queries and verification runs.

Verbs:
  delta / antipode            the modular closed forms on a basis symbol
  char0-delta / char0-antipode  the char-0 closed forms from r-matrix data
  verify                      run verification suites, optional JSON report
  dims                        dimension anchors for a (p, n) configuration

Exit codes: 0 success / all checks pass, 1 check failure, 2 usage error,
3 an error raised while computing (a traceback goes to stderr), 141 stdout
closed by its reader (128 + SIGPIPE, as ``cat`` reports it).  Every argument
is read and checked before any computation starts, so 2 means bad input only.
Identical invocations print byte-identical stdout (fixed seeds, canonical
element ordering); wall-clock timing appears only in the JSON report file.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import traceback

from .grammar import format_element
from .liealg import JacobsonWitt, RMatrixData
from .rings import gf
from .twist import char0_general, modular
from .verify import SUITES, Char0Config, ModularConfig, is_enumerable, power_text, run_suites, suite_names


class UsageError(ValueError):
    pass


INTERNAL_ERROR = 3  # the exit code of an error raised after the arguments are accepted


@contextlib.contextmanager
def _usage_errors():
    """Report a ValueError raised while the arguments are read as a usage error."""
    try:
        yield
    except ValueError as ex:
        raise UsageError(str(ex)) from None


def _csv_ints(text: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}") from None


def _eta_from_directions(text: str, n: int):
    eta = [0] * n
    for k in _csv_ints(text):
        if not 1 <= k <= n:
            raise UsageError(f"twist direction {k} out of range 1..{n}")
        if eta[k - 1]:
            raise UsageError(f"twist direction {k} repeated in --eta {text}")
        eta[k - 1] = 1
    return tuple(eta)


def _open_report(path):
    """Open the JSON report file up front, so that a bad path fails before any suite runs."""
    if not path:
        return contextlib.nullcontext()
    try:
        return open(path, "w")
    except OSError as ex:
        raise UsageError(f"cannot write the JSON report: {ex}") from None


_MAX_EXPONENT_DIGITS = 1000  # largest digit count of the exponent n*p^n that the modular verbs accept
MAX_TRUNC = 8  # largest char-0 series cap (--trunc); the commutation suite's cost grows steeply with it
MAX_N = 3  # largest verify --n; the commutation suite already takes tens of seconds at n = 3 with --trunc 8


def _dims_exponent(p: int, n: int, verb: str) -> int:
    """n*p^n, the exponent of dim u(W(n;1)), for a shape whose exponent has at most
    _MAX_EXPONENT_DIGITS digits; larger shapes are rejected before p^n, or any
    sequence of n entries, is formed.  verb names the command in the message."""
    gf(p)  # rejects a p that is not an odd prime
    # n*log10(p) >= _MAX_EXPONENT_DIGITS already puts n*p^n past the limit
    if n >= 1 and (n * math.log10(p) >= _MAX_EXPONENT_DIGITS or n * p**n >= 10**_MAX_EXPONENT_DIGITS):
        raise UsageError(f"{verb} --p {p} --n {n}: the exponent n*p^n has more than {_MAX_EXPONENT_DIGITS} digits")
    JacobsonWitt(n, p)  # rejects n < 1
    return n * p**n


def _default_char0(n: int, cap: int, seed: int) -> Char0Config:
    d0 = tuple(1 if j == 0 else 0 for j in range(n))
    d0p = tuple(1 if j == min(1, n - 1) else 0 for j in range(n))
    gamma = tuple(1 if j == 0 else 0 for j in range(n))
    return Char0Config(d0=d0, d0p=d0p, gamma=gamma, cap=cap, seed=seed)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="wittquant", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="verb", required=True)

    def modular_flags(p, n_help="number of variables"):
        p.add_argument("--p", type=int, required=True, help="odd prime >= 3")
        p.add_argument("--n", type=int, required=True, help=n_help)
        p.add_argument("--eta", default="1", help="comma list of twisted directions, e.g. 1,2")
        p.add_argument("--q", type=int, default=0, help="parameter of t^p = q t")

    for verb in ("delta", "antipode"):
        p = sub.add_parser(verb, help=f"print the deformed {verb} of x^(alpha)D_i")
        modular_flags(p)
        p.add_argument("--alpha", required=True, help="comma list exponent, e.g. 1,0")
        p.add_argument("--i", type=int, required=True, help="derivation index (1-based)")

    for verb in ("char0-delta", "char0-antipode"):
        p = sub.add_parser(verb, help=f"print the char-0 deformed {verb.split('-')[1]} of x^alpha d_i")
        p.add_argument("--d0", required=True, help="comma list: first r-matrix derivation")
        p.add_argument("--d0p", required=True, help="comma list: second r-matrix derivation")
        p.add_argument("--gamma", required=True, help="comma list: r-matrix exponent")
        p.add_argument("--alpha", required=True, help="comma list exponent of the argument")
        p.add_argument("--i", type=int, required=True, help="derivation index (1-based)")
        p.add_argument("--trunc", type=int, default=5, help=f"series truncation order, 1..{MAX_TRUNC}")

    p = sub.add_parser("verify", help="run verification suites")
    modular_flags(p, f"number of variables, 1..{MAX_N}")
    p.add_argument("--suite", default="all", help="'all' or comma list: " + ",".join(SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trunc", type=int, default=4, help=f"char-0 series truncation order, 1..{MAX_TRUNC}")
    p.add_argument("--json-path", default=None, help="write the JSON report here")

    p = sub.add_parser("dims", help="print the dimension anchors")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    return ap


def run_command(args: argparse.Namespace) -> int:
    with _usage_errors():
        if args.verb in ("char0-delta", "char0-antipode", "verify") and not 1 <= args.trunc <= MAX_TRUNC:
            raise UsageError(f"--trunc must be between 1 and {MAX_TRUNC}, got {args.trunc}")
        if not args.verb.startswith("char0-"):
            e = _dims_exponent(args.p, args.n, args.verb)
        if args.verb == "verify" and args.n > MAX_N:
            raise UsageError(f"verify --n must be at most {MAX_N}, got {args.n}")
        if args.verb in ("delta", "antipode", "char0-delta", "char0-antipode"):
            if args.verb.startswith("char0-"):
                rm = RMatrixData(_csv_ints(args.d0), _csv_ints(args.d0p), _csv_ints(args.gamma))
                hopf = char0_general(rm, cap=args.trunc)
            else:
                hopf = modular(args.p, args.n, _eta_from_directions(args.eta, args.n), args.q)
            bd = hopf.uea.alg.basis_symbol(_csv_ints(args.alpha), args.i)
            for direction in hopf.directions:
                direction.exponent(bd)  # an r-matrix exponent of bd must be an integer
        elif args.verb == "verify":
            eta = _eta_from_directions(args.eta, args.n)
            mcfg = ModularConfig(args.p, args.n, eta, args.q, seed=args.seed)
            ccfg = _default_char0(args.n, args.trunc, args.seed)
            suites = suite_names(args.suite)
            report_file = _open_report(args.json_path)

    if args.verb in ("delta", "antipode", "char0-delta", "char0-antipode"):
        out = hopf.delta_basis(bd) if args.verb.endswith("delta") else hopf.antipode_basis(bd)
        print(format_element(out))
        return 0

    if args.verb == "dims":
        p, n = args.p, args.n
        status = "enumerable" if is_enumerable(p, e) else "structural (enumeration skipped)"
        print(f"dim u(W({n};1)) = {p}^({n}*{p}^{n}) = {power_text(p, e)} [{status}]")
        print(f"dim over K[t]_{p}^(q) = {p}^(1+{n}*{p}^{n}) = {power_text(p, 1 + e)}")
        return 0

    # verify, the one verb left: argparse rejects any other
    with report_file as report:
        reports = run_suites(suites, modular_cfg=mcfg, char0_cfg=ccfg)
        if report is not None:
            json.dump([rep.to_json_dict() for rep in reports], report, indent=2)
            report.write("\n")
    failed = 0
    for rep in reports:
        cfg_bits = " ".join(
            f"{k}={v}" for k, v in sorted(rep.config.items()) if v is not None
        )
        print(f"[{rep.suite}] {cfg_bits}")
        for c in sorted(rep.checks, key=lambda c: c.name):
            line = f"  {c.name}: {c.status}"
            if c.counterexample and c.status == "fail":
                line += f"  counterexample: {c.counterexample}"
            print(line)
            failed += c.status == "fail"
    print(f"RESULT: {'pass' if not failed else f'fail ({failed} checks)'}")
    return 0 if not failed else 1


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as ex:
        return int(ex.code or 0)
    try:
        code = run_command(args)
        sys.stdout.flush()
        return code
    except UsageError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone; send what stdout still buffers to devnull, so the
        # interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception:
        traceback.print_exc()
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
