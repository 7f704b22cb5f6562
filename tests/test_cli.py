import argparse
import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gassmann.abelext import choose_q
from gassmann.catalog import fano_stabilizers
from gassmann.cli import _build_parser, main, run
from gassmann import _primes, kgroups, lattice, triples
from gassmann.errors import PreconditionViolated
from gassmann.kgroups import _CONDUCTOR_CAP
from gassmann.lattice import IntMat, format_matrix_file
from gassmann.permgroup import _DEGREE_CAP, format_group_file

S4_TEXT = "degree: 4\ngen: (0 1 2 3)\ngen: (0 1)\n"
D4_TEXT = "degree: 4\ngen: (0 1 2 3)\ngen: (1 3)\n"
A_TEXT = "size: 3\n2 1 -2\n-1 0 2\n0 0 1\n"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv, expect=0):
    code, out, err = run_cli(capsys, argv)
    assert code == expect, err
    return json.loads(out)


@pytest.fixture
def s4_file(tmp_path):
    path = tmp_path / "s4.grp"
    path.write_text(S4_TEXT)
    return str(path)


def sub_file(tmp_path, name, degree, gens):
    path = tmp_path / name
    path.write_text(f"degree: {degree}\n"
                    + "".join(f"gen: {g}\n" for g in gens))
    return str(path)


def test_group_info(capsys, s4_file):
    report = run_json(capsys, ["group", "info", s4_file])
    assert report["schema"] == 1
    assert report["command"] == "group.info"
    assert report["degree"] == 4
    assert report["order"] == 24
    assert report["num_classes"] == 5
    assert report["class_sizes"] == [1, 3, 6, 6, 8]
    assert report["abelianization"] == "Z/2"


def test_reports_are_deterministic_and_mirrored(capsys, tmp_path, s4_file):
    out_path = tmp_path / "report.json"
    code, first, _ = run_cli(
        capsys, ["--out", str(out_path), "group", "info", s4_file])
    assert code == 0
    assert out_path.read_text() == first
    _, second, _ = run_cli(capsys, ["group", "info", s4_file])
    assert second == first


def test_unwritable_out_exits_two(capsys, tmp_path, s4_file):
    out_path = tmp_path / "no-such-dir" / "report.json"
    code, out, err = run_cli(
        capsys, ["--out", str(out_path), "group", "info", s4_file])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out_path.parent.exists()


def test_gassmann_check_conjugate_pair(capsys, tmp_path, s4_file):
    h1 = sub_file(tmp_path, "h1.grp", 4, ["(0 1)"])
    h2 = sub_file(tmp_path, "h2.grp", 4, ["(2 3)"])
    report = run_json(capsys,
                      ["gassmann", "check", s4_file, "--h1", h1, "--h2", h2])
    assert report["gassmann"] and report["conjugate"]
    assert report["index"] == 12
    assert report["character1"] == report["character2"]


def test_gassmann_check_negative_exits_one(capsys, tmp_path):
    group = tmp_path / "d4.grp"
    group.write_text(D4_TEXT)
    h1 = sub_file(tmp_path, "h1.grp", 4, ["(0 1 2 3)"])
    h2 = sub_file(tmp_path, "h2.grp", 4, ["(0 2)", "(1 3)"])
    code, out, _ = run_cli(
        capsys, ["gassmann", "check", str(group), "--h1", h1, "--h2", h2])
    assert code == 1
    report = json.loads(out)
    assert not report["gassmann"]
    assert report["character1"] != report["character2"]


def test_gassmann_search_conjugate_pair_finds(capsys, tmp_path, s4_file):
    h1 = sub_file(tmp_path, "h1.grp", 4, ["(0 1)"])
    h2 = sub_file(tmp_path, "h2.grp", 4, ["(2 3)"])
    report = run_json(capsys,
                      ["gassmann", "search", s4_file,
                       "--h1", h1, "--h2", h2])
    assert report["found"]
    assert report["verification"]["passed"]
    assert len(report["matrix"]["rows"]) == 12


@pytest.fixture
def fano_search(tmp_path):
    """`gassmann search` argv on the Fano pair, written to group files."""
    paths = []
    for name, obj in zip(("g", "h1", "h2"), fano_stabilizers()):
        path = tmp_path / f"fano_{name}.grp"
        path.write_text(format_group_file(obj))
        paths.append(str(path))
    return ["gassmann", "search", paths[0], "--h1", paths[1],
            "--h2", paths[2]]


def test_gassmann_search_exhausts_fano_box(capsys, fano_search):
    code, out, _ = run_cli(
        capsys, fano_search + ["--bound", "3", "--budget", "1000"])
    assert code == 1
    report = json.loads(out)
    assert report == json.loads(json.dumps(report))
    assert not report["found"]
    assert report["exhausted"]
    assert report["trials"] == 49
    assert report["basis_size"] == 2
    # the 7x7 box does not fit a budget of 48, so 48 points are sampled
    code, out, _ = run_cli(
        capsys, fano_search + ["--bound", "3", "--budget", "48"])
    assert code == 1
    report = json.loads(out)
    assert not report["found"] and not report["exhausted"]
    assert report["trials"] == 48


def test_gassmann_search_over_the_basis_cap_exits_two(capsys, monkeypatch,
                                                     fano_search):
    # the Fano basis holds k*n^2 = 2 * 7^2 = 98 entries
    monkeypatch.setattr(triples, "_BASIS_CAP", 97)
    code, out, err = run_cli(
        capsys, fano_search + ["--bound", "3", "--budget", "1000"])
    assert code == 2 and not out
    assert err.startswith("error: OrderCapExceeded: ")
    assert "98 entries, over the cap 97" in err


def test_gassmann_verify(capsys, tmp_path, s4_file):
    h1 = sub_file(tmp_path, "h1.grp", 4, ["(0 1)"])
    h2 = sub_file(tmp_path, "h2.grp", 4, ["(2 3)"])
    bad = tmp_path / "bad.mat"
    bad.write_text("size: 12\n"
                   + "\n".join(" ".join("2" if i == j else "0"
                                        for j in range(12))
                               for i in range(12)) + "\n")
    code, out, _ = run_cli(
        capsys, ["gassmann", "verify", s4_file, "--h1", h1, "--h2", h2,
                 "--matrix", str(bad)])
    assert code == 1
    assert not json.loads(out)["unimodular"]


def test_gassmann_verify_wrong_size_exits_two(capsys, tmp_path, s4_file):
    """A square matrix whose size is not the index is a dimension
    mismatch, not a non-square one."""
    c4 = sub_file(tmp_path, "c4.grp", 4, ["(0 1 2 3)"])
    matrix = tmp_path / "up.mat"
    matrix.write_text("size: 2\n1 0\n0 1\n")
    code, out, err = run_cli(
        capsys, ["gassmann", "verify", s4_file, "--h1", c4, "--h2", c4,
                 "--matrix", str(matrix)])
    assert code == 2 and not out
    assert err == "error: DimensionMismatch: size 2 does not match index 6\n"


def test_scott_with_no_budget_exits_one(capsys):
    report = run_json(capsys, ["scott", "--budget", "0"], expect=1)
    assert report["found"] is False and report["trials"] == 0


def test_splitting_report(capsys, tmp_path, s4_file):
    h1 = sub_file(tmp_path, "h1.grp", 4, ["(0 1)"])
    h2 = sub_file(tmp_path, "h2.grp", 4, ["(2 3)"])
    report = run_json(capsys,
                      ["splitting", "report", s4_file,
                       "--h1", h1, "--h2", h2])
    assert len(report["rows"]) == 5
    assert report["arithmetic"] is True
    assert report["kronecker"] and report["weak_kronecker"]
    assert report["ultra_coarse"]
    row = report["rows"][0]
    for key in ("class_rep", "class_size", "type1", "type2",
                "gcd1", "lcm2", "arithmetic", "kronecker"):
        assert key in row


def test_splitting_report_unequal_orders(capsys, tmp_path, s4_file):
    h1 = sub_file(tmp_path, "h1.grp", 4, ["(0 1)"])
    h2 = sub_file(tmp_path, "h2.grp", 4, ["(0 1)", "(0 1 2)"])
    report = run_json(capsys,
                      ["splitting", "report", s4_file,
                       "--h1", h1, "--h2", h2])
    assert report["arithmetic"] is None  # not comparable at different index
    assert isinstance(report["kronecker"], bool)


def test_abelext_demo_fixed_q(capsys, tmp_path):
    mat = tmp_path / "a.mat"
    mat.write_text(A_TEXT)
    report = run_json(capsys,
                      ["abelext", "demo", "--matrix", str(mat), "--q", "5"])
    assert report["S1"] == [1, 5, 5]
    assert report["S2"] == [5, 5, 5]
    assert (report["gcd1"], report["gcd2"]) == (1, 5)
    assert report["weakly_kronecker"] is False
    assert report["q_chosen"] is False


def test_abelext_demo_chooses_q(capsys, tmp_path):
    mat = tmp_path / "a.mat"
    mat.write_text(A_TEXT)
    report = run_json(capsys, ["abelext", "demo", "--matrix", str(mat)])
    assert report["q_chosen"] is True
    assert report["q"] == 3
    assert report["S1"][0] == 1


def test_abelext_demo_refuses_a_composite_q(capsys, tmp_path):
    # every cofactor of this matrix is +-1, so no coprimality check
    # stands between a composite q and a report naming it a split prime
    mat = tmp_path / "u.mat"
    mat.write_text("size: 2\n1 1\n0 1\n")
    for q in ("4", "9"):
        code, out, err = run_cli(
            capsys, ["abelext", "demo", "--matrix", str(mat), "--q", q])
        assert code == 2 and out == ""
        assert f"q must be a prime: {q}" in err and "Traceback" not in err


def test_abelext_demo_refuses_a_q_over_the_primality_cap(
        capsys, tmp_path, monkeypatch):
    # M89 is prime; trial division up to its root takes about 1e13 steps
    monkeypatch.setattr(_primes, "_PRIME_CAP", 1000)
    mat = tmp_path / "one.mat"
    mat.write_text("size: 1\n1\n")
    code, out, err = run_cli(capsys, [
        "abelext", "demo", "--matrix", str(mat),
        "--q", "618970019642690137449562111"])
    assert code == 2 and out == ""
    assert err.startswith("error: OrderCapExceeded: primality test needs "
                          "n at most 1000, got a 89-bit n")


def test_abelext_demo_eliminates_a_once(capsys, tmp_path, count_passes):
    # choose_q and notwkeq_construct both read A's one Gauss-Jordan pass
    computed = count_passes("_elimination")
    mat = tmp_path / "a.mat"
    mat.write_text(A_TEXT)
    run_json(capsys, ["abelext", "demo", "--matrix", str(mat)])
    a = lattice.parse_matrix_file(A_TEXT)
    assert sum(m == a for m in computed) == 1


def test_abelext_demo_refuses_singular_before_any_cofactor(
        capsys, tmp_path, monkeypatch):
    # a singular matrix has no Gauss-Jordan adjugate; its cofactors would
    # come from one determinant per entry, O(n^5) in all
    calls = []
    minor_det = lattice._minor_det
    monkeypatch.setattr(lattice, "_minor_det",
                        lambda *args: calls.append(args) or minor_det(*args))
    singular = IntMat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    with pytest.raises(PreconditionViolated, match="not unimodular: det = 0"):
        choose_q(singular)
    mat = tmp_path / "singular.mat"
    mat.write_text(format_matrix_file(singular))
    code, out, err = run_cli(capsys, ["abelext", "demo", "--matrix", str(mat)])
    assert code == 2 and out == ""
    assert "not unimodular" in err and "Traceback" not in err
    assert calls == []


def test_kgroups_command(capsys):
    report = run_json(capsys,
                      ["kgroups", "--field", "Q",
                       "--n", "3", "--n", "9", "--n", "5"])
    assert report["field"] == "Q"
    assert [e["n"] for e in report["entries"]] == [3, 5, 9]
    assert [e["k_group"] for e in report["entries"]] == \
        ["Z/48", "Z", "Z x Z/2"]
    assert report["entries"][0]["w"] == 24
    code, _, err = run_cli(capsys, ["kgroups", "--field", "Q", "--n", "4"])
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, ["kgroups", "--field", "Q",
                                    "--field", "Q", "--n", "3"])
    assert code == 2
    code, out, err = run_cli(capsys, ["kgroups", "--field", "abelian:m=0",
                                      "--n", "3"])
    assert code == 2 and out == ""
    assert "conductor must be positive" in err
    assert "Traceback" not in err


def test_kgroups_walk_cap_exits_two(capsys, monkeypatch):
    """--n 200001 over Q would walk the primes up to 100,002; the walk
    cap refuses it before any cyclotomic layer is tested."""
    def tested(*args):
        raise AssertionError("a layer was tested past the walk cap")

    monkeypatch.setattr(kgroups, "cyclo_exponent", tested)
    code, out, err = run_cli(capsys, ["kgroups", "--field", "Q",
                                      "--n", "200001"])
    assert code == 2 and not out and "OrderCapExceeded" in err


def test_kgroups_command_computes_each_w_once(capsys, monkeypatch):
    spec = "abelian:m=5;H=1,4"
    ns = [3, 5, 7, 9, 11, 13]
    model = kgroups.FieldModel.parse(spec)
    expected = {n: (kgroups.w_invariant(model, (n + 1) // 2).value,
                    kgroups.k_group(model, n)) for n in ns}
    calls = []
    w_invariant = kgroups.w_invariant

    def counted(*args):
        calls.append(args)
        return w_invariant(*args)

    monkeypatch.setattr(kgroups, "w_invariant", counted)
    argv = ["kgroups", "--field", spec]
    for n in ns:
        argv += ["--n", str(n)]
    report = run_json(capsys, argv)
    assert len(calls) == len(ns)
    assert [e["n"] for e in report["entries"]] == ns
    for e in report["entries"]:
        w, structure = expected[e["n"]]
        assert e["w"] == w
        assert e["k_group"] == str(structure)
        assert e["free_rank"] == structure.free_rank
        assert e["torsion"] == list(structure.invariant_factors)


def test_kgroups_command_lists_units_once(capsys, monkeypatch):
    """The degree, the signature, every w and the report read one
    listing of the units mod m."""
    calls = []
    unit_residues = kgroups._unit_residues
    monkeypatch.setattr(kgroups, "_unit_residues",
                        lambda m: calls.append(m) or unit_residues(m))
    argv = ["kgroups", "--field", "abelian:m=5;H=1,4"]
    for n in (3, 5, 7, 9, 11, 13):
        argv += ["--n", str(n)]
    report = run_json(capsys, argv)
    assert report["degree"] == 2 and len(report["entries"]) == 6
    assert calls == [5]


def test_homology_sweep_command(capsys, tmp_path):
    report_path = tmp_path / "sweep.json"
    report = run_json(capsys,
                      ["--out", str(report_path),
                       "homology", "sweep", "--max-order", "8"])
    assert report["passed"]
    assert report["correspondences"] > 0
    mirrored = json.loads(report_path.read_text())
    assert mirrored["passed"] and mirrored["schema"] == 1


# SHA-256 of the `gassmann homology sweep --max-order N` reports: a
# change to how the sweep works keeps their bytes
SWEEP_SHA256 = {
    "60": "d1e565575667f305bb8b8abacebf074ee49802cfe4a9fdc7af615df01e8da077",
    "120": "32c75821811d55b2793b3bfdf1665a1aa122fbde2477959f9f148462c7ac30b8",
}


def test_homology_sweep_report_bytes_are_pinned(capsys):
    for max_order, digest in SWEEP_SHA256.items():
        code, out, _ = run_cli(
            capsys, ["homology", "sweep", "--max-order", max_order])
        assert code == 0 and json.loads(out)["passed"]
        assert hashlib.sha256(out.encode()).hexdigest() == digest, max_order


def test_scott_command(capsys):
    report = run_json(capsys, ["scott", "--seed", "0"])
    assert report["found"]
    assert report["group_order"] == 12180
    assert report["index"] == 203
    assert report["h1_order"] == 60 and report["h2_order"] == 60
    assert report["conjugate"] is False
    assert report["gassmann"] is True


def test_bad_inputs_exit_two(capsys, tmp_path, s4_file, fano_search):
    code, _, err = run_cli(capsys, ["group", "info",
                                    str(tmp_path / "missing.grp")])
    assert code == 2 and "error" in err
    h1 = sub_file(tmp_path, "low.grp", 3, ["(0 1)"])
    h2 = sub_file(tmp_path, "h2.grp", 4, ["(2 3)"])
    code, _, err = run_cli(
        capsys, ["gassmann", "check", s4_file, "--h1", h1, "--h2", h2])
    assert code == 2 and "degree" in err
    h3 = sub_file(tmp_path, "h3.grp", 4, ["(0 1)", "(2 3)"])
    code, _, err = run_cli(
        capsys, ["gassmann", "check", s4_file, "--h1", h2, "--h2", h3])
    assert code == 2 and "indices differ: 12 vs 6" in err
    bad = tmp_path / "bad.grp"
    bad.write_text("degree: 4\ngen: (0 9)\n")
    code, _, err = run_cli(capsys, ["group", "info", str(bad)])
    assert code == 2 and ":2:" in err  # parse errors carry line numbers
    # negative bounds and budgets are input errors, not searches that
    # came back empty
    for extra in (["--bound", "4", "--budget", "-5"], ["--bound", "-1"]):
        code, out, err = run_cli(capsys, fano_search + extra)
        assert code == 2 and not out and "nonnegative" in err
    code, out, err = run_cli(capsys, ["scott", "--budget", "-3"])
    assert code == 2 and not out and "nonnegative" in err
    # an empty sweep is not a passed one, a field takes one conductor and
    # one subgroup, and sizes read from input are capped before use
    big = tmp_path / "big.grp"
    big.write_text(f"degree: {_DEGREE_CAP + 1}\n")
    for argv, message in (
            (["homology", "sweep", "--max-order", "-5"], "max_order"),
            (["homology", "sweep", "--max-order", "0"], "max_order"),
            (["kgroups", "--field", "abelian:m=5;m=7", "--n", "3"],
             "repeated 'm='"),
            (["kgroups", "--field", "abelian:m=5;H=1;H=4", "--n", "3"],
             "repeated 'H='"),
            (["kgroups", "--field", "abelian:m=abc", "--n", "3"],
             "bad conductor 'm=abc'"),
            (["kgroups", "--field", "abelian:m=5;H=1,x", "--n", "3"],
             "bad subgroup 'H=1,x'"),
            (["kgroups", "--field", f"abelian:m={_CONDUCTOR_CAP + 1}",
              "--n", "3"], "OrderCapExceeded"),
            (["group", "info", str(big)], ":1:")):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and not out and message in err, argv
        assert "Traceback" not in err


def test_input_integers_are_plain_decimals(capsys, tmp_path):
    """Integers read from files and fields are an optional sign and ASCII
    digits: what else int() accepts (underscores, padding, other
    scripts' digits) is a parse error, not a silently different value."""
    def written(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    cases = [
        (["group", "info", written("d.grp", "degree: 1_2\ngen: (0 1)\n")],
         "bad degree '1_2'"),
        (["group", "info", written("p.grp", "degree: 12\ngen: (0 1_1)\n")],
         "bad point '1_1'"),
        (["group", "info",
          written("u.grp", "degree: \u0664\ngen: (0 1)\n")],
         "bad degree"),
        (["abelext", "demo", "--matrix", written("s.mat", "size: 0_1\n1\n")],
         "bad size '0_1'"),
        (["abelext", "demo", "--matrix",
          written("r.mat", "size: 2\n1 0\n0 1_0\n")],
         "non-integer row"),
        (["kgroups", "--field", "abelian:m=1_3;H=1", "--n", "3"],
         "bad conductor 'm=1_3'"),
        (["kgroups", "--field", "abelian:m=13;H=1,1_2", "--n", "3"],
         "bad subgroup 'H=1,1_2'"),
    ]
    for argv, message in cases:
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and not out and message in err, argv
        assert "Traceback" not in err
    # signs stay allowed where a value may carry one
    matrix = written("signed.mat", "size: 2\n-1 +0\n0 1\n")
    code, _, err = run_cli(capsys, ["abelext", "demo", "--matrix", matrix])
    assert "non-integer" not in err


def test_subgroup_file_is_checked_against_the_group_before_closing(
        capsys, tmp_path):
    # the file generates S12, past the order cap, inside G = <(0 1)>
    group = sub_file(tmp_path, "g.grp", 12, ["(0 1)"])
    big = sub_file(tmp_path, "s12.grp", 12,
                   ["(0 1 2 3 4 5 6 7 8 9 10 11)", "(0 1)"])
    code, out, err = run_cli(
        capsys, ["gassmann", "check", group, "--h1", big, "--h2", group])
    assert code == 2 and not out
    assert "(0 1 2 3 4 5 6 7 8 9 10 11) lies outside the group" in err


def test_bad_arguments_exit_two(capsys):
    assert run_cli(capsys, ["no-such-topic"])[0] == 2
    assert run_cli(capsys, [])[0] == 2
    assert run_cli(capsys, ["gassmann", "check"])[0] == 2


def test_parser_is_built_once(capsys):
    """Later calls reuse the parser, and a usage error leaves it as it
    was."""
    _build_parser.cache_clear()
    argv = ["kgroups", "--field", "Q", "--n", "3"]
    first = run_cli(capsys, argv)
    assert run_cli(capsys, argv) == first
    assert _build_parser.cache_info().misses == 1
    assert run_cli(capsys, ["kgroups", "--n", "3"])[0] == 2
    assert run_cli(capsys, argv) == first
    assert _build_parser.cache_info().misses == 1


# every integer option, each with a spelling that int() takes and the
# input files refuse: a digit separator, a full-width digit, padding
INTEGER_OPTIONS = [
    ["gassmann", "search", "g", "--h1", "a", "--h2", "b", "--bound"],
    ["gassmann", "search", "g", "--h1", "a", "--h2", "b", "--budget"],
    ["gassmann", "search", "g", "--h1", "a", "--h2", "b", "--seed"],
    ["abelext", "demo", "--matrix", "m", "--q"],
    ["kgroups", "--field", "Q", "--n"],
    ["homology", "sweep", "--max-order"],
    ["scott", "--seed"],
    ["scott", "--budget"],
]


@pytest.mark.parametrize("token", ["1_2", "０", " 3", "2.0"])
@pytest.mark.parametrize("argv", INTEGER_OPTIONS,
                         ids=[f"{a[0]} {a[-1]}" for a in INTEGER_OPTIONS])
def test_integer_options_take_ascii_digits_only(capsys, argv, token):
    code, out, err = run_cli(capsys, argv + [token])
    assert code == 2 and not out
    assert f"argument {argv[-1]}:" in err and repr(token) in err


def test_run_rejects_unknown_command():
    with pytest.raises(ValueError):
        run(argparse.Namespace(command="nope"))


# every leaf subcommand, its required arguments, and the default of each
# of its options that has one
LEAF_COMMANDS = [
    (["group", "info"], ["g"], {}),
    (["gassmann", "check"], ["g", "--h1", "a", "--h2", "b"], {}),
    (["gassmann", "search"], ["g", "--h1", "a", "--h2", "b"],
     {"--bound": 2, "--budget": 20000, "--seed": 0}),
    (["gassmann", "verify"], ["g", "--h1", "a", "--h2", "b", "--matrix", "m"],
     {}),
    (["splitting", "report"], ["g", "--h1", "a", "--h2", "b"], {}),
    (["abelext", "demo"], ["--matrix", "m"], {}),
    (["kgroups"], ["--field", "Q", "--n", "3"], {}),
    (["homology", "sweep"], [], {"--max-order": 120}),
    (["scott"], [], {"--seed": 0, "--budget": 200}),
]


@pytest.mark.parametrize("command, required, defaults", LEAF_COMMANDS,
                         ids=[" ".join(leaf[0]) for leaf in LEAF_COMMANDS])
def test_help_shows_each_default(capsys, command, required, defaults):
    parsed = vars(_build_parser().parse_args(command + required))
    code, out, err = run_cli(capsys, command + ["--help"])
    assert code == 0 and not err
    listing = " ".join(out.split("options:")[1].split())
    for option, value in defaults.items():
        assert parsed[option.lstrip("-").replace("-", "_")] == value
        # the option's own help entry, up to the next option
        entry = listing.split(f" {option} ")[1].split(" --")[0]
        assert f"(default {value})" in entry, out


# Fuzzing the three text inputs through `main`: a group file, a matrix
# file and a --field string.  Each run must end in exit 0, 1 or 2; an
# exception escaping `main` would surface here as a test error.  Degrees,
# sizes and conductors stay small so that every run is short.

def _cycles(points):
    return st.lists(st.lists(points, max_size=4).map(
        lambda cycle: "(" + " ".join(map(str, cycle)) + ")"),
        max_size=3).map("".join)


group_texts = st.one_of(
    st.text(alphabet="degre:gn()0123456 ,-#\n", max_size=60),
    st.builds(lambda degree, gens: f"degree: {degree}\n" + "".join(
        f"gen: {g}\n" for g in gens),
        st.integers(-1, 6), st.lists(_cycles(st.integers(-1, 6)),
                                     max_size=3)))
matrix_texts_cli = st.one_of(
    st.text(alphabet="size:0123456789 -#\n", max_size=60),
    st.builds(lambda n, rows: f"size: {n}\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in rows),
        st.integers(-1, 4), st.lists(st.lists(st.integers(-3, 3),
                                              max_size=4), max_size=4)))
field_texts = st.one_of(
    st.text(alphabet="Qqabelin:mH=,;0123456789- ", max_size=30),
    st.builds(lambda m, h: f"abelian:m={m};H=" + ",".join(map(str, h)),
              st.integers(-2, 40), st.lists(st.integers(-3, 40),
                                            max_size=3)))


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / "s4.grp").write_text(S4_TEXT)
    return directory


@settings(max_examples=80, deadline=None)
@given(text=group_texts)
def test_fuzzed_group_files_exit_cleanly(fuzz_dir, text):
    path = fuzz_dir / "fuzzed.grp"
    path.write_text(text)
    s4 = str(fuzz_dir / "s4.grp")
    assert _exit_code(["group", "info", str(path)]) in (0, 2)
    assert _exit_code(["gassmann", "check", s4, "--h1", str(path),
                       "--h2", str(path)]) in (0, 1, 2)


@settings(max_examples=80, deadline=None)
@given(text=matrix_texts_cli, q=st.one_of(st.none(), st.integers(-2, 12)))
def test_fuzzed_matrix_files_exit_cleanly(fuzz_dir, text, q):
    path = fuzz_dir / "fuzzed.mat"
    path.write_text(text)
    argv = ["abelext", "demo", "--matrix", str(path)]
    if q is not None:
        argv += ["--q", str(q)]
    assert _exit_code(argv) in (0, 2)


@settings(max_examples=80, deadline=None)
@given(text=field_texts, n=st.sampled_from([-1, 1, 2, 3, 5]))
def test_fuzzed_fields_exit_cleanly(text, n):
    assert _exit_code(["kgroups", "--field", text, "--n", str(n)]) in (0, 2)
