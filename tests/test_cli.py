import argparse
import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import kgroups
from kgroups import cli, metrics
from kgroups.cli import main


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- exit-code contract --------------------------------------------------------

GOOD = [
    ("member", "--group", "K2_2_2", "--element", "[x,y] ; 1"),
    ("rewrite", "--group", "K2_2_2", "--element", "x y^-1 ; y x^-1"),
    ("normalize-basis", "--rows", "0 1; 1 1"),
    ("split", "--group", "K3_2_2", "--element", "x ; x^-1 y ; y^-1"),
    ("area", "--presentation", "< x, y | [x,y] >", "--word", "[x^2, y^2]"),
    ("metric", "--group", "K2_2_2", "--target", "h(1)"),
    ("distortion", "--n-max", "2", "--radius", "4"),
    ("toy-amalgam", "--k", "1", "--n", "1"),
]

INCONCLUSIVE = [
    ("metric", "--group", "K2_2_2", "--target", "h(2)", "--radius", "4"),
    ("area", "--presentation", "< a, t | t a t^-1 a^-2 >",
     "--word", "[t a t^-1, a]", "--node-cap", "1"),
    ("dehn", "--presentation", "< a, b, c | [a,b], [b,c], [a,c] >",
     "--n", "8", "--node-cap", "1"),
]

BAD = [
    ("member", "--group", "K2_2_2", "--element", "x ; 1"),
    ("member", "--group", "K9", "--element", "1"),
    ("member", "--group", "K2_2_2", "--element", "x (( ; 1"),
    ("member", "--group", "K2_2_2", "--element", "x"),
    ("rewrite", "--group", "K2_2_2", "--element", "x ; 1"),
    ("normalize-basis", "--rows", "2 0; 0 2"),
    ("split", "--group", "K2_2_1", "--element", "x y^-1 ; 1"),
    ("area", "--presentation", "< x, y | [x,y] >", "--word", "x y"),
    ("metric", "--group", "K2_2_2", "--target", "x ; 1"),
    ("certify", "--n", "0"),
    ("area", "--presentation", "< x, y | [x,y] >", "--word", "[x,y]",
     "--node-cap", "0"),
    ("dehn", "--presentation", "< x, y | [x,y] >", "--n", "-1"),
    ("distortion", "--n-max", "0"),
    # brackets nested deeper than Python's recursion limit allows
    ("member", "--group", "K2_2_2",
     "--element", "(" * 400 + "x" + ")" * 400 + " ; x^-1"),
    ("area", "--word", "[x,y]",
     "--presentation", "< x, y | " + "(" * 400 + "[x,y]" + ")" * 400 + " >"),
    # an exponent too large to allocate
    ("member", "--group", "K2_2_2", "--element",
     "x^99999999999999999999 ; 1"),
    # generator names the word grammar cannot read back
    ("area", "--presentation", "< 1, y | 1 y 1 >", "--word", "y"),
    ("area", "--presentation", "< x^2, y | x^2 y >", "--word", "x y"),
]


@pytest.mark.parametrize("args", GOOD, ids=lambda a: a[0])
def test_exit_zero_on_verified_success(capsys, args):
    code, out, err = run(capsys, *args)
    assert code == 0, err
    assert out  # a report always lands on stdout


@pytest.mark.parametrize("args", INCONCLUSIVE, ids=lambda a: a[0])
def test_exit_two_when_budgets_run_out(capsys, args):
    code, out, err = run(capsys, *args)
    assert code == 2


@pytest.mark.parametrize("args", BAD, ids=lambda a: " ".join(a[:3]))
def test_exit_one_on_failure_or_bad_input(capsys, args):
    code, out, err = run(capsys, *args)
    assert code == 1


def test_unknown_flags_exit_one(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--definitely-not-a-flag"])
    assert e.value.code == 1


# the flags of one call must not carry over into the next
SEQUENCE = [
    ("metric", "--group", "K2_2_2", "--target", "h(1)", "--radius", "3"),
    ("metric", "--group", "K2_2_2", "--target", "h(1)"),
    ("distortion", "--n-max", "2", "--radius", "4", "--format", "csv"),
    ("metric", "--group", "K2_2_2", "--target", "x ; 1"),
    ("member", "--group", "K2_2_2", "--element", "[x,y] ; 1"),
    ("metric", "--group", "K2_2_2", "--target", "h(1)"),
]


def test_parser_is_built_once_and_leaks_no_flags(capsys):
    first = []
    for args in SEQUENCE:
        cli._parser.cache_clear()
        first.append(run(capsys, *args))
    cli._parser.cache_clear()
    again = [run(capsys, *args) for args in SEQUENCE]
    assert cli._parser.cache_info().misses == 1
    assert again == first
    assert "radius = 3\n" in again[0][1]
    assert "radius = 6\n" in again[1][1] and "radius = 6\n" in again[5][1]


def test_a_repeated_metric_query_runs_its_search_again(capsys, monkeypatch):
    # the group and the step plan are reused between queries, a search's
    # outcome never: both exclusions count the ball
    counted = []
    orbit_shells = metrics._orbit_shells

    def counting(*args):
        counted.append(args[-1])
        return orbit_shells(*args)
    monkeypatch.setattr(metrics, "_orbit_shells", counting)
    argv = ("metric", "--group", "K2_2_2", "--target", "h(2)", "--radius", "6")
    first, second = run(capsys, *argv), run(capsys, *argv)
    assert counted == [6, 6]
    # the same exit code and the same stdout and stderr bytes
    assert first == second and first[0] == 2
    assert "explored = 23285" in first[1].splitlines()


# three groups, each queried by metric, member, rewrite and split in turn
INTERLEAVED = [
    ("metric", "--group", "K2_2_2", "--target", "h(1)"),
    ("member", "--group", "K3_2_2", "--element", "x ; x^-1 ; 1"),
    ("rewrite", "--group", "K2_3_3", "--element", "e1 e3 ; e3^-1 e1^-1"),
    ("metric", "--group", "K3_2_2", "--target", "x y ; y^-1 ; x^-1",
     "--radius", "3"),
    ("split", "--group", "K2_2_2", "--element", "x y^-1 ; y x^-1"),
    ("metric", "--group", "K2_3_3", "--target", "e1 e3 ; e3^-1 e1^-1",
     "--format", "json"),
    ("member", "--group", "K2_3_3", "--element", "e3 ; 1"),
    ("metric", "--group", "K2_2_2", "--target", "h(2)", "--radius", "4"),
    ("split", "--group", "K3_2_2", "--element", "x ; x^-1 y ; y^-1"),
    ("rewrite", "--group", "K3_2_2", "--element", "[x,y] ; 1 ; 1"),
    ("metric", "--group", "K2_3_3", "--target", "e1 e2 ; e2^-1 e1^-1",
     "--radius", "1"),
    ("split", "--group", "K2_3_3", "--element", "e1 e2 ; e2^-1 e1^-1"),
    ("rewrite", "--group", "K2_2_2", "--element", "[x^2, y^2] ; 1"),
    ("metric", "--group", "K3_2_2", "--target", "x ; 1 ; 1"),
    ("member", "--group", "K2_2_2", "--element", "x ; 1"),
]


def test_interned_groups_change_no_output(capsys):
    src = os.path.dirname(os.path.dirname(kgroups.__file__))
    for argv in INTERLEAVED:
        fresh = subprocess.run(
            [sys.executable, "-m", "kgroups", *argv],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=60)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
    assert cli._kernel_group.cache_info().maxsize == 4
    assert cli._parse_group("K2_2_2") is cli._parse_group(" K02_2_2")
    # with the cache warm, bad input still fails on every call
    for _ in range(2):
        assert run(capsys, "metric", "--group", "K2_2_2", "--target", "h(2)",
                   "--radius", "-1") == (
            1, "", "error: --radius must be at least 0\n")
        assert run(capsys, "metric", "--group", "K0_2_2",
                   "--target", "1") == (
            1, "", "error: need n >= 1 and m >= 1\n")


def test_h_family_targets_respect_the_word_length_cap(capsys):
    # h(262145) has 4 * 262145 letters, just over the 2^20 cap
    for argv in (("metric", "--group", "K2_2_2", "--target", "h(262145)"),
                 ("certify", "--n", "262145")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert "too long" in err and "Traceback" not in err, argv


def test_distortion_checks_the_length_cap_before_building_words(capsys):
    # the cap is checked on the largest n first, so no h_n is built
    started = time.perf_counter()
    code, out, err = run(capsys, "distortion", "--n-max", "262145",
                         "--radius", "0")
    assert time.perf_counter() - started < 2
    assert code == 1 and out == ""
    assert "h_262145 is too long" in err and "Traceback" not in err


def test_parse_errors_name_the_position(capsys):
    code, out, err = run(capsys, "member", "--group", "K2_2_2",
                         "--element", "x (y ; 1")
    assert code == 1
    assert "line 1" in err and "column" in err


def test_relator_parse_errors_count_columns_in_the_presentation(capsys):
    # the column used to count from the start of the relator, here 5
    code, out, err = run(capsys, "area", "--presentation",
                         "< x, y | [x,y], [x,y >", "--word", "x")
    assert (code, out) == (1, "")
    assert err == ("error: expected ']' closing commutator at line 1,"
                   " column 22\n")


def test_factor_parse_errors_count_columns_in_the_element(capsys):
    # the column used to count from the start of the factor, here 5
    code, out, err = run(capsys, "member", "--group", "K2_2_2",
                         "--element", "1 ; x (y")
    assert (code, out) == (1, "")
    assert err == "error: expected ')' at line 1, column 9\n"


def test_exponents_longer_than_int_reads_are_no_error(capsys):
    # 5001 digits: int() would refuse the string with a bare ValueError
    code, out, err = run(capsys, "metric", "--group", "K2_2_2", "--target",
                         "x^-" + "0" * 5000 + "1 x;1", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["distance"] == 0
    code, out, err = run(capsys, "member", "--group", "K2_2_2", "--element",
                         "x^" + "9" * 5000 + "; 1")
    assert (code, out) == (1, "")
    assert err == ("error: word too long (limit 1048576 letters) at line 1,"
                   " column 5003\n")


# -- output shapes -------------------------------------------------------------

def test_member_report(capsys):
    code, out, _ = run(capsys, "member", "--group", "K2_2_2",
                       "--element", "x y ; y^-1 x^-1", "--format", "json")
    data = json.loads(out)
    assert data["member"] is True
    assert data["abelian_image"] == [0, 0]


def test_member_nonmember_still_reports(capsys):
    code, out, _ = run(capsys, "member", "--group", "K2_2_2",
                       "--element", "x ; 1", "--format", "json")
    assert code == 1
    assert json.loads(out)["member"] is False


def test_area_example_from_the_contract(capsys):
    code, out, _ = run(capsys, "area", "--presentation", "< x, y | [x,y] >",
                       "--word", "[x^2, y^2]", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["status"] == "exact" and data["area"] == 4


def test_metric_example_from_the_contract(capsys):
    code, out, _ = run(capsys, "metric", "--group", "K2_2_2",
                       "--target", "h(1)")
    assert code == 0
    assert "distance = 1" in out


def test_rewrite_round_trip_field(capsys):
    code, out, _ = run(capsys, "rewrite", "--group", "K2_2_2",
                       "--element", "[x^2, y^2] ; 1", "--format", "json")
    data = json.loads(out)
    assert data["round_trip"] is True
    assert data["symbols"] >= 4


def test_distortion_csv_golden(capsys):
    code, out, _ = run(capsys, "distortion", "--n-max", "2", "--radius", "4",
                       "--format", "csv")
    assert out.splitlines() == [
        "n,ambient_length,status,value",
        "1,4,exact,1",
        "2,8,lower-bound,5",
    ]


def test_distortion_table_is_aligned(capsys):
    code, out, _ = run(capsys, "distortion", "--n-max", "2", "--radius", "4")
    lines = out.splitlines()
    assert lines[0].split() == ["n", "ambient_length", "status", "value"]
    assert len(lines) == 3


def test_certify_defaults_to_json(capsys):
    code, out, _ = run(capsys, "certify", "--n", "1")
    data = json.loads(out)
    assert code == 0 and data["area_bound"] == 2


def test_byte_determinism(capsys):
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "certify", "--n", "2")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    data = json.loads(outs.pop())
    assert data["area_bound"] == 16


def test_certify_runs_to_the_end_at_n_32(capsys):
    # the largest n the benchmark certifies
    code, out, err = run(capsys, "certify", "--n", "32")
    assert code == 0, err
    assert json.loads(out)["area_bound"] == 2 * 32 ** 3


def test_dehn_subcommand(capsys):
    code, out, _ = run(capsys, "dehn", "--presentation", "< x, y | [x,y] >",
                       "--n", "4", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["value"] == 1 and data["exact"] is True


def test_dehn_abelian_needs_every_commutator_as_a_relator(capsys):
    # the genus-2 relator has zero abelianization, but the group is not Z^4:
    # a b a^-1 b^-1 is not null there, so the quotient is no oracle
    code, out, err = run(capsys, "dehn", "--presentation",
                         "< a, b, c, d | [a,b] [c,d] >", "--n", "4",
                         "--node-cap", "2000")
    assert (code, out) == (1, "")
    assert "a b a^-1 b^-1 is not a relator" in err


@pytest.mark.parametrize("text,n,value,witness", [
    ("< x, y | [x,y] >", 10, 6, "x^3 y^2 x^-3 y^-2"),
    # rotated and inverted commutators count
    ("< a, b, c | [a,b], c b c^-1 b^-1, a^-1 c^-1 a c >", 6, 3,
     "a b c a^-1 b^-1 c^-1"),
])
def test_dehn_abelian_over_free_abelian_groups(capsys, text, n, value,
                                               witness):
    code, out, _ = run(capsys, "dehn", "--presentation", text, "--n", str(n),
                       "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert (data["value"], data["witness"], data["exact"]) == \
        (value, witness, True)


def test_area_reports_an_obstruction_from_a_kernel_combination(capsys):
    # no generator is left unmoved, but (1, -2) kills the relator's exponent
    # sums (2, 1) and is -2 on y: the kernel basis decides it at the root
    code, out, _ = run(capsys, "area", "--presentation", "< g, y | g y g >",
                       "--word", "y", "--format", "json")
    data = json.loads(out)
    assert code == 1
    assert data["stop_reason"] == ("abelianization obstruction: no"
                                   " expression exists at any length")
    assert (data["nodes"], data["pushes"], data["regime_empty"]) == \
        (0, 0, True)


# run in a child whose address-space limit, in bytes, is its first argument
# (1 GB through _run_limited unless a test passes another): without a limit
# these argvs could take the machine's memory
_LIMITED = ("import resource, sys\n"
            "limit = int(sys.argv[1])\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
            "from kgroups.cli import main\n"
            "sys.exit(main(sys.argv[2:]))\n")


def _run_limited(argv, timeout, limit=1 << 30):
    """Run the CLI in a child whose address space is ``limit`` bytes."""
    src = os.path.dirname(os.path.dirname(kgroups.__file__))
    return subprocess.run([sys.executable, "-c", _LIMITED, str(limit), *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("argv", [
    # 199,997 generators of 99,999 factors each
    ("metric", "--group", "K99999_2_2", "--target", "h(1)"),
    # a list of 10^12 factor maps
    ("member", "--group", "K999999999999_2_2", "--element", "1"),
    # factor maps of 10^10 entries each
    ("member", "--group", "K2_100000_100000", "--element", "1 ; 1"),
], ids=lambda a: a[2])
def test_group_descriptors_too_large_to_build_exit_one(argv):
    proc = _run_limited(argv, 60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, error", [
    # a list of every n up to the largest would not fit in the limit
    (("distortion", "--n-max", "100000000", "--radius", "0"),
     "error: h_100000000 is too long (limit 1048576 letters)\n"),
    (("distortion", "--n-max", "1000000000", "--radius", "0"),
     "error: h_1000000000 is too long (limit 1048576 letters)\n"),
    # the test word's (u v)^n would have 2 * 10^9 letters
    (("toy-amalgam", "--n", "1000000000"),
     "error: word too long (limit 1048576 letters)\n"),
    # 10^12 equal Nielsen moves, each a letter of b_1 y^-(10^12)
    (("normalize-basis", "--rows", "1000000000000; 1"),
     "error: word too long (limit 1048576 letters)\n"),
], ids=["distortion-1e8", "distortion-1e9", "toy-amalgam-1e9",
        "normalize-basis-1e12"])
def test_inputs_past_the_letter_cap_exit_one(argv, error):
    proc = _run_limited(argv, 60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", error)


def test_running_out_of_memory_exits_one_without_a_traceback():
    # B(11) does not fit in 128 MB: the exclusion's count raised MemoryError
    # and printed its traceback
    proc = _run_limited(("metric", "--group", "K2_2_2", "--target", "h(3)",
                         "--radius", "12"), 60, 128 << 20)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (1, "", "error: out of memory\n")


def test_radius_nine_exclusion_fits_in_192_mb():
    # counting the last shell one vector class at a time holds about 50 MB;
    # holding every orbit of B(9) ran out of this limit with a MemoryError
    proc = _run_limited(("metric", "--group", "K2_2_2", "--target", "h(2)",
                         "--radius", "9", "--format", "json"), 60, 192 << 20)
    assert (proc.returncode, proc.stderr) == (2, "")
    report = json.loads(proc.stdout)
    assert (report["certificate"], report["explored"]) == \
        ("distance > 9", 2860749)


@pytest.mark.parametrize("n", ["257", "262144"])
def test_certify_refuses_n_past_its_cap_at_once(n):
    # the report grows like n^2; h_262144 is the longest h_n under the
    # letter cap, and n = 262145 still exits 1, as
    # test_h_family_targets_respect_the_word_length_cap checks
    started = time.perf_counter()
    proc = _run_limited(("certify", "--n", n), 60)
    assert time.perf_counter() - started < 10
    assert (proc.returncode, proc.stderr) == (2, "")
    report = json.loads(proc.stdout)
    assert report == {"n": int(n), "max_n": 256, "status": "refused",
                      "reason": "certify takes n <= 256: its report grows"
                                " like n^2"}


def test_toy_amalgam_answers_at_large_k_within_the_memory_limit():
    # d comes from the scenario's edge power in O(k); a ball search over
    # keys of length up to k ran out of the 1 GB limit with a MemoryError
    proc = _run_limited(("toy-amalgam", "--k", "100000", "--n", "1"), 60)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert (report["subgroup_distance"], report["status"]) == \
        (100000, "verified-bound")


def test_rewrite_peels_many_high_letters_within_the_memory_limit():
    # 40,000 letters above r in factor 1: peels returned as full prefixes
    # held O(k * len) bytes and ran out of the 1 GB limit with a MemoryError
    proc = _run_limited(("rewrite", "--group", "K2_3_2", "--element",
                         "(e3 e1)^40000 e1^-40000 ; 1", "--format", "json"),
                        60)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["round_trip"] is True


# run in a child with no site packages: the pytest process has loaded the
# modules this checks for
_FOOTPRINT = (
    "import contextlib, io, json, sys\n"
    "HEAVY = ('hashlib', '_hashlib', 'random', 'csv')\n"
    "def loaded():\n"
    "    return [m for m in HEAVY if m in sys.modules]\n"
    "from kgroups.cli import main\n"
    "seen = [('import', 0, loaded())]\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        code = main(argv)\n"
    "    seen.append((argv[0], code, loaded()))\n"
    "print(json.dumps(seen))\n")


def test_no_command_loads_hashlib_and_only_csv_output_loads_csv():
    # certify's digests come from the interpreter's builtin SHA-256, so no
    # command maps OpenSSL
    argvs = [["area", "--presentation", "< x, y | [x,y] >", "--word",
              "[x^2, y^2]"],
             ["metric", "--group", "K2_2_2", "--target", "h(1)"],
             ["toy-amalgam"],
             ["dehn", "--presentation", "< x, y | [x,y] >", "--n", "4"],
             ["certify", "--n", "1"],
             ["distortion", "--n-max", "1", "--format", "csv"]]
    src = os.path.dirname(os.path.dirname(kgroups.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _FOOTPRINT, json.dumps(argvs)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        ["import", 0, []], ["area", 0, []], ["metric", 0, []],
        ["toy-amalgam", 0, []], ["dehn", 0, []],
        ["certify", 0, []], ["distortion", 0, ["csv"]]]


def test_normalize_basis_applies_a_run_of_moves_at_once():
    # 500,000 equal moves: one product each took quadratic time
    proc = _run_limited(("normalize-basis", "--rows", "500000; 1"), 10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("rows = [[500000], [1]]\n"
                           'new_basis = ["y", "x y^-500000"]\n'
                           'inverse_basis = ["y x^500000", "x"]\n'
                           "moves = 500001\n"
                           "verified = True\n")


def test_normalize_basis_keeps_its_moves_as_runs_within_the_memory_limit():
    # twenty runs of 2^20 equal moves: a list of each unit move and of its
    # inverse ran out of the 1 GB limit with a MemoryError
    rows = "; ".join(["1048576"] * 20 + ["1"])
    proc = _run_limited(("normalize-basis", "--rows", rows), 60)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "moves = 20971521\n" in proc.stdout


def test_toy_amalgam_report_shape(capsys):
    code, out, _ = run(capsys, "toy-amalgam", "--k", "1", "--n", "1")
    data = json.loads(out)
    assert data["status"] == "verified-bound"
    assert data["required_bound"] == 2


def test_csv_fallback_for_scalar_reports(capsys):
    code, out, _ = run(capsys, "member", "--group", "K2_2_2",
                       "--element", "[x,y] ; 1", "--format", "csv")
    lines = out.splitlines()
    assert lines[0].split(",")[0] == "abelian_image"
    assert len(lines) == 2


# -- fuzzed argument strings -----------------------------------------------------
#
# Text is joined from tokens, and every token holding a digit ends with a
# space or "_", so no run of digits (an exponent, a group size) is longer
# than one: every input stays small.  Budgets are small.

WORD_TOKENS = ("x", "y", "a", "b", "c", "e1", "e3", "z", "^2 ", "^-1 ", "^3 ",
               "^0 ", "^", "1 ", "(", ")", "[", "]", ",", " ")


def _text(tokens, max_size=10):
    return st.lists(st.sampled_from(tokens), max_size=max_size).map("".join)


# well-formed words over x, y (inversion and commutators do not let them
# grow past a few dozen letters), mixed with token junk
_valid_words = st.recursive(
    st.sampled_from(("x", "y", "x^-1", "y^2", "1")),
    lambda inner: st.one_of(st.builds("[{}, {}]".format, inner, inner),
                            st.builds("({})^-1".format, inner),
                            st.lists(inner, min_size=2, max_size=3)
                            .map(" ".join)),
    max_leaves=6)
_small = st.integers(-1, 3).map(str)
_words = st.one_of(_valid_words, _text(WORD_TOKENS))
_elements = st.one_of(
    st.lists(_valid_words, min_size=1, max_size=3).map(" ; ".join),
    _text(WORD_TOKENS + (" ; ", ";")))
_groups = st.one_of(
    st.sampled_from(("K2_2_2", "K2_2_1", "K3_2_2")),
    st.builds("K{}_{}_{}".format, st.integers(0, 3), st.integers(0, 3),
              st.integers(0, 3)),
    _text(("K", "_", "2_", "K2_", " ", "x"), 5))
_presentations = st.one_of(
    st.sampled_from(("< x, y | [x,y] >", "< x, y | x^2, [x,y] >",
                     "< x, y | x y x^-1 y >", "< x | x^2 >")),
    st.builds("< {} | {} >".format,
              st.lists(st.sampled_from(("x", "y", "a", "")), max_size=3)
              .map(", ".join),
              st.lists(_words, max_size=3).map(", ".join)),
    _text(WORD_TOKENS + ("<", ">", "|"), 12))
_rows = st.one_of(
    st.lists(st.lists(st.integers(-3, 3), min_size=1, max_size=3),
             min_size=1, max_size=3)
    .map(lambda rows: "; ".join(" ".join(map(str, r)) for r in rows)),
    _text(("0 ", "1 ", "-1 ", ";", "x", " "), 8))

_commands = st.one_of(
    st.tuples(st.sampled_from(("member", "rewrite", "split")),
              st.just("--group"), _groups, st.just("--element"), _elements),
    st.tuples(st.just("area"), st.just("--presentation"), _presentations,
              st.just("--word"), _words),
    st.tuples(st.just("dehn"), st.just("--presentation"), _presentations,
              st.just("--n"), _small, st.sampled_from(((), ("--abelian",))))
    .map(lambda t: t[:-1] + t[-1]),
    st.tuples(st.just("metric"), st.just("--group"), _groups,
              st.just("--target"),
              st.one_of(_elements, st.builds("h({})".format, _small))),
    st.tuples(st.just("distortion"), st.just("--n-max"), _small),
    st.tuples(st.just("certify"), st.just("--n"), _small),
    st.tuples(st.just("toy-amalgam"), st.just("--k"), _small, st.just("--n"),
              _small, st.sampled_from(((), ("--exact-attempt",))))
    .map(lambda t: t[:-1] + t[-1]),
    st.tuples(st.just("normalize-basis"), st.just("--rows"), _rows),
    st.tuples(st.sampled_from(("", "nope", "--n")), _small))

# the flags each subcommand takes besides its own inputs
SHARED = ("--node-cap", "--len-cap-factor", "--radius", "--format")
OWN_FLAGS = {
    "member": ("--format",),
    "rewrite": ("--format",),
    "normalize-basis": ("--format",),
    "split": ("--format",),
    "area": ("--node-cap", "--format"),
    "dehn": ("--node-cap", "--format"),
    "metric": ("--radius", "--format"),
    "distortion": ("--radius", "--format"),
    "certify": ("--format",),
    "toy-amalgam": ("--node-cap", "--format"),
}
# a cheap valid call of each subcommand
BASE = {
    "member": ("--group", "K2_2_2", "--element", "[x,y] ; 1"),
    "rewrite": ("--group", "K2_2_2", "--element", "x y^-1 ; y x^-1"),
    "normalize-basis": ("--rows", "0 1; 1 1"),
    "split": ("--group", "K3_2_2", "--element", "x ; x^-1 y ; y^-1"),
    "area": ("--presentation", "< x, y | [x,y] >", "--word", "[x,y]"),
    "dehn": ("--presentation", "< x, y | [x,y] >", "--n", "2"),
    "metric": ("--group", "K2_2_2", "--target", "h(1)"),
    "distortion": ("--n-max", "1"),
    "certify": ("--n", "1"),
    "toy-amalgam": ("--k", "1", "--n", "1"),
}
# a valid value of each shared flag, and one that is out of range
GOOD_VALUE = {"--node-cap": "50", "--len-cap-factor": "2", "--radius": "1",
              "--format": "json"}
BAD_VALUE = {"--node-cap": "0", "--radius": "-1", "--format": "xml"}


def _subcommands():
    """name -> parser, for every subcommand of the built parser."""
    action, = [a for a in cli._parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_each_subcommand_takes_only_its_own_flags(capsys):
    table = {name: tuple(f for f in SHARED if f in p._option_string_actions)
             for name, p in _subcommands().items()}
    assert table == OWN_FLAGS
    for command, own in OWN_FLAGS.items():
        for flag in SHARED:
            argv = [command, *BASE[command], flag, GOOD_VALUE[flag]]
            if flag in own:
                code, out, err = run(capsys, *argv)
                assert code == 0 and out, (argv, err)
                continue
            with pytest.raises(SystemExit) as e:
                main(argv)
            err = capsys.readouterr().err
            assert e.value.code == 1, argv
            assert "unrecognized arguments: " + flag in err, argv
            assert "Traceback" not in err, argv


# dehn always takes the free-abelian oracle and runs its searches in this
# process, toy-amalgam always stops at the required bound, and area and
# dehn always cap intermediate words at 4 relator lengths past the input,
# so no flag chooses any of these
@pytest.mark.parametrize("command,flag", [("dehn", "--abelian"),
                                          ("dehn", "--jobs"),
                                          ("toy-amalgam", "--exact-attempt"),
                                          ("area", "--len-cap-factor"),
                                          ("dehn", "--len-cap-factor")])
def test_mode_flags_are_bad_input(capsys, command, flag):
    with pytest.raises(SystemExit) as e:
        main([command, *BASE[command], flag])
    out, err = capsys.readouterr()
    assert (e.value.code, out) == (1, "")
    assert "unrecognized arguments: " + flag in err
    assert "Traceback" not in err


def _readme_flag_table():
    """subcommand -> flags, from the table in README's Command line section."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "README.md")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = lines.index("| subcommand | flags |") + 2
    table = {}
    for line in itertools.takewhile(lambda l: l.startswith("|"),
                                    lines[start:]):
        names, flags = (re.findall(r"`([^`]+)`", cell)
                        for cell in line.split("|")[1:3])
        for name in names:
            table[name] = tuple(flags)
    return table


@pytest.mark.parametrize("command", sorted(BASE))
def test_json_output_is_what_json_writes(capsys, command):
    # the JSON writer raises on a float, a tuple or a non-str key, so a
    # payload that gained one fails here before it reaches a user
    code, out, err = run(capsys, command, *BASE[command], "--format", "json")
    assert code == 0, err
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_readme_flag_table_matches_the_parser():
    assert _readme_flag_table() == OWN_FLAGS


def test_out_of_range_flag_values_exit_one(capsys):
    for command, own in OWN_FLAGS.items():
        for flag in own:
            argv = [command, *BASE[command], flag, BAD_VALUE[flag]]
            if flag == "--format":      # argparse rejects the choice
                with pytest.raises(SystemExit) as e:
                    main(argv)
                code = e.value.code
            else:                       # the range check in main
                code = main(argv)
            err = capsys.readouterr().err
            assert code == 1, argv
            assert "Traceback" not in err, argv


def _pair(flag):
    return lambda value: (flag, value)


# own flags with valid values
_VALUES = {"--node-cap": st.integers(1, 200).map(str),
           "--radius": st.integers(0, 3).map(str),
           "--format": st.sampled_from(("table", "csv", "json"))}


def _flags(command):
    """Each own flag with a valid value or left out, then at most one
    extra pair: an out-of-range own value or a foreign flag."""
    own = OWN_FLAGS.get(command, ())
    chosen = st.tuples(*(st.one_of(st.just(()), _VALUES[f].map(_pair(f)))
                         for f in own))
    bad = [(f, BAD_VALUE[f]) for f in own]
    foreign = [(f, GOOD_VALUE[f]) for f in SHARED if f not in own]
    extra = st.one_of(st.just(()), st.just(()),
                      *(st.sampled_from(pairs) for pairs in (bad, foreign)
                        if pairs))
    return st.tuples(chosen, extra)


_cases = _commands.flatmap(lambda c: st.tuples(st.just(c), _flags(c[0])))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_cases)
def test_fuzzed_arguments_keep_the_exit_contract(case):
    command, (chosen, extra) = case
    argv = list(command) + [x for pair in chosen for x in pair] + list(extra)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:    # argparse rejects the flags: exit 1
            code = e.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv


def test_python_dash_m_kgroups_exits_with_the_cli_code():
    src = os.path.dirname(os.path.dirname(kgroups.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "kgroups", "metric", "--group", "K2_2_2",
         "--target", "h(2)", "--radius", "6"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "certificate = distance > 6" in proc.stdout.splitlines()
    assert "explored = 23285" in proc.stdout.splitlines()


def test_metric_json_under_python_dash_o_keeps_the_exit_code():
    # with asserts stripped, the ball search still certifies d > 6 from
    # the whole ball and exits 2
    src = os.path.dirname(os.path.dirname(kgroups.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "kgroups", "metric", "--group",
         "K2_2_2", "--target", "h(2)", "--radius", "6", "--format", "json"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert (report["certificate"], report["explored"]) == ("distance > 6",
                                                           23285)
