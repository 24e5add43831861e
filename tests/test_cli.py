import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import wittquant.cli
from wittquant.cli import main
from wittquant.grammar import parse_element
from wittquant.twist import QuantizedHopf, modular
from wittquant.verify import SUITES, ModularConfig, check_dimensions_radford


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dims_verb(capsys):
    code, out, _ = run(capsys, "dims", "--p", "3", "--n", "1")
    assert code == 0
    assert "27" in out and "81" in out
    code, out, _ = run(capsys, "dims", "--p", "5", "--n", "1")
    assert code == 0
    assert "3125" in out and "15625" in out


def test_delta_verb_snapshot(capsys):
    code, out, _ = run(
        capsys, "delta", "--p", "3", "--n", "1", "--eta", "1", "--q", "0", "--alpha", "1", "--i", "1"
    )
    assert code == 0
    assert out.strip() == (
        "1 (x) x(1)D1 + x(1)D1 (x) 1 + 2*x(1)D1 (x) x(2)D1*t + x(1)D1 (x) x(2)D1^2*t^2"
    )
    # output parses back in the ambient algebra
    H = modular(3, 1, (1,))
    assert parse_element(out.strip(), H.uea) == H.delta_basis(H.uea.alg.basis_symbol((1,), 1))


def test_antipode_verb(capsys):
    code, out, _ = run(
        capsys, "antipode", "--p", "3", "--n", "1", "--eta", "1", "--alpha", "1", "--i", "1"
    )
    assert code == 0
    assert out.strip() == "2*x(1)D1 + 2*x(1)D1.x(2)D1*t"


def test_char0_delta_verb(capsys):
    code, out, _ = run(
        capsys,
        "char0-delta", "--d0", "1", "--d0p", "1", "--gamma", "1",
        "--alpha", "1", "--i", "1", "--trunc", "3",
    )
    assert code == 0
    assert "(x)" in out


SNAPSHOTS = Path(__file__).resolve().parent / "snapshots"
# snapshot name -> the char-0 arguments whose stdout it holds, for both verbs
CHAR0_QUERIES = {
    "2-1": ("--d0", "1,0", "--d0p", "0,1", "--gamma", "1,0", "--alpha", "2,1", "--i", "1", "--trunc", "5"),
    "2": ("--d0", "1", "--d0p", "1", "--gamma", "1", "--alpha", "2", "--i", "1", "--trunc", "5"),
    "minus1-2": ("--d0", "1,0", "--d0p", "0,1", "--gamma", "1,0", "--alpha=-1,2", "--i", "2", "--trunc", "4"),
}


@pytest.mark.parametrize("verb", ["char0-delta", "char0-antipode"])
@pytest.mark.parametrize("name", CHAR0_QUERIES)
def test_char0_verbs_print_the_snapshot_bytes(capsys, verb, name):
    code, out, err = run(capsys, verb, *CHAR0_QUERIES[name])
    assert (code, err) == (0, "")
    assert out.encode() == (SNAPSHOTS / f"{verb}-{name}.txt").read_bytes()


def test_char0_snapshots_hold_fractions_and_signs():
    text = (SNAPSHOTS / "char0-antipode-2-1.txt").read_text()
    assert "- 47/3*" in text and "+ 77/12*" in text and "- 71/24*" in text
    assert " + 2*" in (SNAPSHOTS / "char0-delta-minus1-2.txt").read_text()


def test_char0_verify_matches_the_snapshot(tmp_path, capsys):
    path = tmp_path / "r.json"
    code, out, _ = run(
        capsys, "verify", "--p", "3", "--n", "1", "--suite", "factorial,commutation,twist,hopf", "--json-path", str(path)
    )
    assert code == 0
    assert out.encode() == (SNAPSHOTS / "verify-char0-3x1.txt").read_bytes()
    reports = json.loads(path.read_text())
    for rep in reports:
        del rep["elapsed_ms"]
    assert reports == json.loads((SNAPSHOTS / "verify-char0-3x1.json").read_text())


def test_verify_verb_passes_and_writes_json(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "verify", "--p", "3", "--n", "1", "--eta", "1", "--q", "0",
        "--suite", "twist,dims", "--json-path", str(path),
    )
    assert code == 0
    assert out.strip().endswith("RESULT: pass")
    payload = json.loads(path.read_text())
    assert all(list(rep.keys()) == ["suite", "params", "checks", "elapsed_ms"] for rep in payload)
    assert any(rep["suite"] == "dims" for rep in payload)


def test_verify_suite_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "--p", "3", "--n", "1", "--eta", "1", "--q", "0", "--suite", "all")
    assert code == 0
    assert out.strip().endswith("RESULT: pass")
    assert "fail" not in out


def test_byte_identical_output(capsys):
    args = ("verify", "--p", "3", "--n", "1", "--eta", "1", "--suite", "dims")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    args = ("delta", "--p", "5", "--n", "1", "--eta", "1", "--alpha", "3", "--i", "1")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "delta", "--p", "4", "--n", "1", "--eta", "1", "--alpha", "1", "--i", "1")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "delta", "--p", "3", "--n", "1", "--eta", "3", "--alpha", "1", "--i", "1")
    assert code == 2
    code, _, err = run(capsys, "delta", "--p", "3", "--n", "1", "--eta", "1", "--alpha", "7", "--i", "1")
    assert code == 2
    code, _, _ = run(capsys, "no-such-verb")
    assert code == 2
    code, _, _ = run(capsys, "verify", "--p", "3", "--n", "1", "--eta", "1", "--suite", "bogus")
    assert code == 2


def test_a_non_integer_alpha_exits_2_with_one_error_line(capsys):
    code, out, err = run(capsys, "delta", "--p", "3", "--n", "1", "--eta", "1", "--alpha", "1,x", "--i", "1")
    assert (code, out) == (2, "")
    assert err == "error: expected a comma-separated integer list, got '1,x'\n"


@pytest.mark.parametrize("p,n", [(4, 1), (9, 1), (3, -1)])
def test_dims_rejects_bad_p_or_n(capsys, p, n):
    code, out, err = run(capsys, "dims", "--p", str(p), "--n", str(n))
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_an_error_raised_inside_a_suite_exits_3_with_a_traceback(tmp_path, capsys, monkeypatch):
    # exit 2 is bad input and exit 1 a failed check; an engine error mid-run is neither
    def broken(*args, **kwargs):
        raise ValueError("an engine guard tripped")

    monkeypatch.setattr(wittquant.verify, "check_factorial_identities", broken)
    path = tmp_path / "r.json"
    code, out, err = run(
        capsys, "verify", "--p", "3", "--n", "1", "--suite", "dims,factorial", "--json-path", str(path)
    )
    assert code == wittquant.cli.INTERNAL_ERROR == 3 and code not in (1, 2)
    assert out == "" and err.startswith("Traceback") and err.endswith("ValueError: an engine guard tripped\n")


def test_verify_unwritable_json_path_exits_2_before_any_suite(tmp_path, capsys, monkeypatch):
    def no_suites(*args, **kwargs):
        raise AssertionError("a suite ran before the report path was checked")

    monkeypatch.setattr(wittquant.cli, "run_suites", no_suites)
    path = tmp_path / "missing" / "r.json"
    code, out, err = run(
        capsys, "verify", "--p", "3", "--n", "1", "--eta", "1", "--suite", "dims", "--json-path", str(path)
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "r.json" in err
    assert not path.parent.exists()


def test_verify_unknown_suite_exits_2_before_any_suite_or_report(tmp_path, capsys, monkeypatch):
    def no_suites(*args, **kwargs):
        raise AssertionError("a suite ran although a suite name is unknown")

    monkeypatch.setattr(wittquant.cli, "run_suites", no_suites)
    path = tmp_path / "r.json"
    code, out, err = run(
        capsys, "verify", "--p", "3", "--n", "1", "--eta", "1", "--suite", "dims,bogus", "--json-path", str(path)
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "bogus" in err
    assert not path.exists()


@pytest.mark.parametrize(
    "flag,value,named",
    [("--eta", "1,1", "twist direction 1"), ("--suite", "factorial,factorial", "'factorial'")],
    ids=["eta", "suite"],
)
def test_verify_repeated_selection_exits_2_before_any_suite_or_report(tmp_path, capsys, monkeypatch, flag, value, named):
    def no_suites(*args, **kwargs):
        raise AssertionError("a suite ran although a selection repeats")

    monkeypatch.setattr(wittquant.cli, "run_suites", no_suites)
    path = tmp_path / "r.json"
    argv = {"--p": "3", "--n": "2", "--eta": "1", "--suite": "dims", "--json-path": str(path), flag: value}
    code, out, err = run(capsys, "verify", *itertools.chain.from_iterable(argv.items()))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and named in err
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [["dims", "--p", "3", "--n", "2"], ["verify", "--p", "3", "--n", "1", "--eta", "1", "--suite", "factorial"]],
    ids=["dims", "verify"],
)
def test_a_closed_stdout_exits_141_with_nothing_on_stderr(argv):
    src = str(Path(wittquant.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read, write = os.pipe()
    os.close(read)  # the reader is gone before anything is written
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "wittquant", *argv], stdout=write, stderr=subprocess.PIPE, env=env, timeout=120
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


@pytest.mark.parametrize("trunc", ["0", "-1"])
def test_verify_trunc_below_one_exits_2_before_any_suite_or_report(tmp_path, capsys, monkeypatch, trunc):
    def no_suites(*args, **kwargs):
        raise AssertionError("a suite ran although --trunc is below 1")

    monkeypatch.setattr(wittquant.cli, "run_suites", no_suites)
    path = tmp_path / "r.json"
    path.write_bytes(b'[{"kept": true}]\n')
    code, out, err = run(
        capsys, "verify", "--p", "3", "--n", "1", "--suite", "factorial,commutation", "--trunc", trunc,
        "--json-path", str(path),
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1 and "--trunc" in err
    assert path.read_bytes() == b'[{"kept": true}]\n'


@pytest.mark.parametrize("trunc", [str(wittquant.cli.MAX_TRUNC + 1), "100000"])
def test_verify_trunc_above_max_exits_2_before_any_suite_or_report(tmp_path, capsys, monkeypatch, trunc):
    def no_suites(*args, **kwargs):
        raise AssertionError("a suite ran although --trunc is above MAX_TRUNC")

    monkeypatch.setattr(wittquant.cli, "run_suites", no_suites)
    path = tmp_path / "r.json"
    path.write_bytes(b'[{"kept": true}]\n')
    code, out, err = run(
        capsys, "verify", "--p", "3", "--n", "1", "--suite", "factorial,commutation", "--trunc", trunc,
        "--json-path", str(path),
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1 and "--trunc" in err
    assert path.read_bytes() == b'[{"kept": true}]\n'


@pytest.mark.parametrize("verb", ["char0-delta", "char0-antipode"])
def test_char0_trunc_outside_range_exits_2_before_any_series(capsys, monkeypatch, verb):
    args = ("--d0", "1", "--d0p", "1", "--gamma", "1", "--alpha", "1", "--i", "1", "--trunc")
    code, out, _ = run(capsys, verb, *args, str(wittquant.cli.MAX_TRUNC))
    assert code == 0 and out.strip()

    def no_series(*a, **kw):
        raise AssertionError("a series was built although --trunc is out of range")

    monkeypatch.setattr(wittquant.cli, "char0_general", no_series)
    for trunc in ("0", str(wittquant.cli.MAX_TRUNC + 1), "100000"):
        code, out, err = run(capsys, verb, *args, trunc)
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1 and "--trunc" in err


@pytest.mark.parametrize("n", [str(wittquant.cli.MAX_N + 1), "40"])
def test_verify_n_above_max_exits_2_before_any_context(tmp_path, capsys, monkeypatch, n):
    monkeypatch.setattr(wittquant.cli, "run_suites", lambda *args, **kwargs: [])
    code, out, _ = run(capsys, "verify", "--p", "3", "--n", str(wittquant.cli.MAX_N), "--suite", "dims")
    assert (code, out) == (0, "RESULT: pass\n")

    def no_context(*args, **kwargs):
        raise AssertionError("a verification context was built although --n is above MAX_N")

    for name in ("ModularConfig", "run_suites", "_default_char0"):
        monkeypatch.setattr(wittquant.cli, name, no_context)
    path = tmp_path / "r.json"
    path.write_bytes(b'[{"kept": true}]\n')
    code, out, err = run(capsys, "verify", "--p", "3", "--n", n, "--suite", "dims", "--json-path", str(path))
    assert code == 2 and out == ""
    assert err == f"error: verify --n must be at most {wittquant.cli.MAX_N}, got {n}\n"
    assert path.read_bytes() == b'[{"kept": true}]\n'
    for verb, args in (("dims", ()), ("delta", ("--alpha", "1,0,0,0", "--i", "1"))):
        code, _, err = run(capsys, verb, "--p", "3", "--n", "4", *args)
        assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "p,n,want",
    [
        (3, 1, "dim u(W(1;1)) = 3^(1*3^1) = 27 [enumerable]\ndim over K[t]_3^(q) = 3^(1+1*3^1) = 81\n"),
        (5, 1, "dim u(W(1;1)) = 5^(1*5^1) = 3125 [enumerable]\ndim over K[t]_5^(q) = 5^(1+1*5^1) = 15625\n"),
        (
            3, 2,
            "dim u(W(2;1)) = 3^(2*3^2) = 387420489 [structural (enumeration skipped)]\n"
            "dim over K[t]_3^(q) = 3^(1+2*3^2) = 1162261467\n",
        ),
        (
            3, 7,
            "dim u(W(7;1)) = 3^(7*3^7) = 3^15309 (7305 digits) [structural (enumeration skipped)]\n"
            "dim over K[t]_3^(q) = 3^(1+7*3^7) = 3^15310 (7305 digits)\n",
        ),
    ],
)
def test_dims_output(capsys, p, n, want):
    # past Python's 4300-digit int-to-str limit the power is given as p^e and its digit count
    code, out, err = run(capsys, "dims", "--p", str(p), "--n", str(n))
    assert (code, out, err) == (0, want, "")


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 2), (7, 1)])
def test_dims_verb_and_suite_agree_on_enumeration(capsys, p, n):
    code, out, _ = run(capsys, "dims", "--p", str(p), "--n", str(n))
    assert code == 0
    rows = {c.name: c for c in check_dimensions_radford(ModularConfig(p, n, (1,) + (0,) * (n - 1))).checks}
    structural = rows["restricted-basis-count"].status == "structural"
    assert out.splitlines()[0].endswith("[structural (enumeration skipped)]" if structural else "[enumerable]")


@pytest.mark.parametrize("n", [9100, 9000, 2089, 10**9])
def test_dims_rejects_an_exponent_past_the_digit_limit_quickly(capsys, n):
    # n*3^n has more than 1000 digits from n = 2089 on; n = 10**9 must not build 3^n
    start = time.perf_counter()
    code, out, err = run(capsys, "dims", "--p", "3", "--n", str(n))
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err == f"error: dims --p 3 --n {n}: the exponent n*p^n has more than 1000 digits\n"


def test_dims_at_the_digit_limit_answers_quickly(capsys):
    e = 2088 * 3**2088  # 1000 digits
    start = time.perf_counter()
    code, out, err = run(capsys, "dims", "--p", "3", "--n", "2088")
    assert time.perf_counter() - start < 0.5
    assert (code, err) == (0, "")
    first, second = out.splitlines()
    assert first.startswith(f"dim u(W(2088;1)) = 3^(2088*3^2088) = 3^{e} (")
    assert second.startswith(f"dim over K[t]_3^(q) = 3^(1+2088*3^2088) = 3^{e + 1} (")


@pytest.mark.parametrize(
    "p,code",
    [(2**61 - 1, 0), ((2**31 - 1) ** 2, 2), (2**64 + 13, 2)],
    ids=["mersenne-61", "square-of-mersenne-31", "past-2^64"],
)
def test_dims_decides_a_large_p_quickly(capsys, p, code):
    # primality is decided by Miller-Rabin, not trial division; p >= 2^64 is refused
    start = time.perf_counter()
    got, out, err = run(capsys, "dims", "--p", str(p), "--n", "1")
    assert time.perf_counter() - start < 0.5
    assert got == code
    if code:
        assert out == "" and err.startswith("error:")
    else:
        assert out.startswith(f"dim u(W(1;1)) = {p}^(1*{p}^1) = {p}^{p} (") and err == ""


@pytest.mark.parametrize(
    "argv",
    [("delta", "--alpha", "1", "--i", "1"), ("verify", "--suite", "dims")],
    ids=["delta", "verify"],
)
def test_modular_verbs_reject_a_huge_n_before_building_it(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, argv[0], "--p", "3", "--n", str(10**9), *argv[1:])
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err == f"error: {argv[0]} --p 3 --n {10**9}: the exponent n*p^n has more than 1000 digits\n"


def test_mismatched_rmatrix_lengths_exit_2_with_one_error_line(capsys):
    code, out, err = run(
        capsys, "char0-delta", "--d0", "1,0", "--d0p", "0,1,1", "--gamma", "1,0", "--alpha", "1,0", "--i", "1"
    )
    assert (code, out) == (2, "")
    assert err == "error: d0, d0p and gamma need one length n >= 1, got lengths 2, 3, 2\n"


def test_error_messages_name_the_algebra(capsys):
    args = ("delta", "--p", "3", "--n", "2", "--eta", "1", "--alpha", "1", "--i", "1")
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.rstrip().endswith("does not belong to W(2;1) over GF(3)")
    assert run(capsys, *args) == (code, out, err)


@pytest.fixture
def series_without_last_term(monkeypatch):
    """QuantizedHopf.basic_twist_factor without its last term r = cap - 1: the twist and its
    inverse no longer invert each other, at every shift and in every setting."""
    factor = QuantizedHopf.basic_twist_factor

    def shortened(self, d, a=0, forward=True):
        cap, self.cap = self.cap, self.cap - 1
        try:
            return factor(self, d, a, forward)
        finally:
            self.cap = cap

    monkeypatch.setattr(QuantizedHopf, "basic_twist_factor", shortened)


@pytest.mark.usefixtures("series_without_last_term")
def test_a_broken_twist_law_is_a_failed_check_not_an_error(tmp_path, capsys):
    path = tmp_path / "r.json"
    code, out, err = run(
        capsys, "verify", "--p", "3", "--n", "1", "--eta", "1", "--suite", "twist", "--json-path", str(path)
    )
    assert (code, err) == (1, "")
    # the inverse laws fail at every shift; the counterexample names the first
    assert "  twist-inverse-law: fail  counterexample: eta=1 a=0\n" in out
    assert "  twistor-inverse-law: fail  counterexample: eta=1 a=0\n" in out
    assert out.rstrip().splitlines()[-1].startswith("RESULT: fail (")
    # the JSON report carries the same counterexample on the failing row
    modular_twist = [rep for rep in json.loads(path.read_text()) if rep["params"]["p"] == 3]
    assert [rep["suite"] for rep in modular_twist] == ["twist"]
    rows = {row["name"]: row for row in modular_twist[0]["checks"]}
    assert rows["twist-inverse-law"] == {"name": "twist-inverse-law", "status": "fail", "counterexample": "eta=1 a=0"}
    assert rows["counit-single-twist"] == {"name": "counit-single-twist", "status": "pass"}


@pytest.mark.usefixtures("series_without_last_term")
def test_a_broken_twist_law_leaves_every_suite_reported(capsys):
    code, out, err = run(capsys, "verify", "--p", "3", "--n", "1", "--eta", "1", "--suite", "all")
    assert (code, err) == (1, "")
    headers = [line.split("]")[0][1:] for line in out.splitlines() if line.startswith("[")]
    assert sorted(headers) == sorted(SUITES + ("twist",))  # the twist suite runs in char 0 and char p
    failed = [line for line in out.splitlines() if line.endswith(": fail") or ": fail  " in line]
    assert failed and all("counterexample: " in line for line in failed)
