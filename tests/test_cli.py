import io
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qds import cli, determinize, family, formats, gen_lk_nfa, minimize_dfa
from qds.cli import main
from qds.formats import parse_nfa, parse_qds, serialize_nfa, serialize_qds
from qds.kernels import _python_witness
from tests.conftest import mk_nfa
from tests.test_formats import automaton_texts
from tests.test_structure import FULL_SHIFT_TEXTS


@pytest.fixture
def w4_file(tmp_path, window4_nfa):
    p = tmp_path / "w4.nfa"
    p.write_text(serialize_nfa(window4_nfa))
    return str(p)


@pytest.fixture
def sm_file(tmp_path, suffix_marker_nfa):
    p = tmp_path / "sm.nfa"
    p.write_text(serialize_nfa(suffix_marker_nfa))
    return str(p)


@pytest.fixture
def no_pair_file(tmp_path):
    """Two a-loops entered from one fork: the square automaton has the
    diagonal-free cycle (1,2) -> (1,2), so no (k,l) pair exists."""
    bad = mk_nfa(
        "a",
        ["0", "1", "2"],
        ["0"],
        ["1"],
        [("0", "a", "1"), ("0", "a", "2"), ("1", "a", "1"), ("2", "a", "2")],
    )
    p = tmp_path / "bad.nfa"
    p.write_text(serialize_nfa(bad))
    return str(p)


@pytest.fixture
def qds_file(tmp_path, two_lane_qds):
    p = tmp_path / "lanes.qds"
    p.write_text(serialize_qds(two_lane_qds))
    return str(p)


def test_check_positive(w4_file, capsys):
    assert main(["check", "--k", "4", "--l", "3", w4_file]) == 0
    assert "UNAMBIGUOUS(4,3)" in capsys.readouterr().out


def test_check_negative_is_exit_1(w4_file, capsys):
    assert main(["check", "--k", "3", "--l", "3", w4_file]) == 1
    out = capsys.readouterr().out
    assert "AMBIGUOUS(3,3)" in out and "witness" in out


def test_check_bad_params_exit_2(w4_file, capsys):
    """l outside 1..k, a negative k included, is one error line on every
    command that takes a window."""
    for cmd in ("check", "steptable", "build-qds"):
        for k, l in ((2, 3), (-1, 1)):
            assert main([cmd, "--k", str(k), "--l", str(l), w4_file]) == 2
            err = capsys.readouterr().err
            assert err == f"error: need 1 <= l <= k, got k={k}, l={l}\n", cmd


def test_steptable_empty_alphabet_bad_params_exit_2(tmp_path, capsys):
    """An automaton without symbols has no window to read, yet l outside
    1..k is refused as on any other automaton."""
    p = tmp_path / "empty.nfa"
    p.write_text(serialize_nfa(mk_nfa("", ["0"], ["0"], ["0"], [])))
    assert main(["steptable", "--k", "2", "--l", "5", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: need 1 <= l <= k, got k=2, l=5\n"
    assert main(["steptable", "--k", "2", "--l", "1", str(p)]) == 0
    assert capsys.readouterr().out == "state\tword\tindex\tsuccessor\n"


def test_exists(w4_file, no_pair_file, capsys):
    assert main(["exists", w4_file]) == 0
    capsys.readouterr()
    assert main(["exists", no_pair_file]) == 1
    assert "certificate=" in capsys.readouterr().out


def test_minimal(w4_file, capsys):
    assert main(["minimal", w4_file]) == 0
    assert "MINIMAL k=4 l=3" in capsys.readouterr().out


def test_minimal_has_no_kmax(w4_file, capsys):
    assert main(["minimal", "--kmax", "2", w4_file]) == 2
    assert "unrecognized arguments: --kmax" in capsys.readouterr().err


def test_minimal_no_pair_exists(no_pair_file, capsys):
    assert main(["minimal", no_pair_file]) == 1
    assert capsys.readouterr().out == "NONE no pair exists for any (k,l)\n"


def test_seed_environment_variable_is_not_read(w4_file, capsys, monkeypatch):
    monkeypatch.setenv("QDS_SEED", "abc")
    assert main(["exists", w4_file]) == 0
    assert capsys.readouterr().out == "EXISTS\n"


def test_seed_and_porcelain_belong_to_family_only(w4_file, tmp_path, capsys):
    for flag in (["--seed", "1"], ["--porcelain"]):
        assert main(["check", *flag, "--k", "4", "--l", "3", w4_file]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    csv = tmp_path / "gap.csv"
    assert main(["family", "--seed", "1", "--kmax", "1", "--csv", str(csv), "--porcelain"]) == 0
    assert capsys.readouterr().err == ""
    assert csv.read_text().startswith("k,nfa_states")


def test_steptable(sm_file, capsys):
    assert main(["steptable", "--k", "3", "--l", "3", sm_file]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "state\tword\tindex\tsuccessor"
    assert len(lines) == 1 + 24
    assert any("\t_" in line for line in lines[1:])  # bottom spelled _


def test_lookahead(sm_file, w4_file, capsys):
    assert main(["lookahead", "--k", "3", sm_file]) == 0
    assert main(["lookahead", "--k", "3", w4_file]) == 1


def test_lookahead_long_unary_window(tmp_path, capsys):
    p = tmp_path / "unary.nfa"
    p.write_text(serialize_nfa(mk_nfa(
        "a", ["0", "1"], ["0"], ["1"], [("0", "a", "0"), ("0", "a", "1")]
    )))
    assert main(["lookahead", "--k", "1200", str(p)]) == 0
    assert capsys.readouterr().out == "LOOKAHEAD(1200)=true\n"


def test_lookahead_above_old_enumeration_cap(sm_file, suffix_marker_nfa, capsys):
    """`lookahead --k 40` answers; the row scan used to refuse its 2^40
    windows. The expected line comes from the enumeration oracle at k = 3:
    bad rows are monotone in k (a bad (k+1,1) row cut to its first k symbols
    is a bad (k,1) row), so clean at (3,1) means clean at (40,1)."""
    assert _python_witness(suffix_marker_nfa, 3, 1) is None
    assert main(["lookahead", "--k", "40", sm_file]) == 0
    assert capsys.readouterr() == ("LOOKAHEAD(40)=true\n", "")


NO_SYMBOLS = "@type nfa\n@alphabet\n@states 0\n@initial 0\n@final 0\n"
UNARY = "@type nfa\n@alphabet a\n@states 0 1\n@initial 0\n@final 1\n0 a 0\n0 a 1\n"


@pytest.mark.parametrize(
    "text, argv",
    [
        (None, ["check", "--k", "1000000000", "--l", "1"]),  # walk of 1.8e10 steps
        (None, ["build-qds", "--k", "24", "--l", "1"]),  # 3 * 2^24 rows of 24 symbols
        (NO_SYMBOLS, ["check", "--k", "1000000000", "--l", "1"]),
        (NO_SYMBOLS, ["build-qds", "--k", "1000000000", "--l", "1"]),
        (UNARY, ["build-qds", "--k", "1000000000", "--l", "1"]),  # 2 rows of 10^9 symbols
    ],
)
def test_over_size_budget_exit_2(sm_file, tmp_path, capsys, text, argv):
    """Refused before anything is allocated, with one error line; an empty
    alphabet counts as one symbol, and a step table counts every symbol of
    its rows."""
    path = sm_file
    if text is not None:
        path = tmp_path / "small.nfa"
        path.write_text(text)
    assert main(argv + [str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "size budget" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [["family", "--kmax", "19"], ["family", "--emit", "19"],
                                  ["family", "--kmax", "1000000000"]])
def test_family_over_size_budget_exit_2(tmp_path, monkeypatch, capsys, argv):
    """The L_K subset construction, 2^(K+1) subsets of K+2 states, is over
    the budget from K = 19 on (2^20*21 cells) and is refused up front."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "size budget" in err
    assert err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_determinize_over_size_budget_exit_2(tmp_path, monkeypatch, capsys):
    """The subset construction counts |Q| cells per subset it finds and stops
    once the count passes the budget. L_9 has 11 states and 2^10 subsets:
    shrinking the budget to 2^10*11 cells still lets it through, one cell
    less refuses it, which checks the guard without a 2^24-cell input."""
    from qds import nfa

    path = tmp_path / "lk9.nfa"
    path.write_text(serialize_nfa(gen_lk_nfa(9)))
    monkeypatch.setattr(nfa, "SIZE_BUDGET", 2**10 * 11)
    assert main(["determinize", str(path)]) == 0
    assert len(parse_nfa(capsys.readouterr().out).states) == 2**10
    monkeypatch.setattr(nfa, "SIZE_BUDGET", 2**10 * 11 - 1)
    assert main(["determinize", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "size budget 11263" in err
    assert err.count("\n") == 1


def test_member_accept_reject(qds_file, capsys):
    assert main(["member", "--word", "bbbaabab", qds_file]) == 0
    out = capsys.readouterr().out
    assert "ACCEPT state=7 shifts=4" in out
    assert main(["member", "--word", "b", qds_file]) == 1
    assert "REJECT" in capsys.readouterr().out


def test_member_trace(qds_file, capsys):
    assert main(["member", "--word", "bbbaabab", "--trace", qds_file]) == 0
    out = capsys.readouterr().out
    assert "offset\tstate\twindow\tshift" in out


MULTI_CHAR_QDS = """@type qds
@alphabet aa bb
@layers 2
@layer 1 p
@layer 2 q
@initial p
@final q
p aa q
@gamma q p 1
"""


@pytest.mark.parametrize("trace", [[], ["--trace"]], ids=["plain", "trace"])
@pytest.mark.parametrize("multi, word, bad", [
    (False, "abxab", "x"),       # single-character text
    (False, "a b x a", "x"),     # whitespace-separated symbols
    (False, "a b\tab", "ab"),    # a multi-character symbol over one-letter ones
    (False, "\u00e9ab", "\u00e9"),  # past the byte table
    (True, "cc", "cc"),          # one multi-character symbol
    (True, "aa cc bb dd", "cc"),
])
def test_member_unknown_symbol_exit_2(qds_file, tmp_path, capsys, trace, multi, word, bad):
    """The encoder of `qds_membership` is the one symbol check: the first
    unknown symbol is named, nothing is printed on stdout."""
    path = qds_file
    if multi:
        path = tmp_path / "multi.qds"
        path.write_text(MULTI_CHAR_QDS)
    assert main(["member", "--word", word, *trace, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: unknown symbol {bad!r}\n"


def test_file_is_tokenised_once(qds_file, w4_file, capsys, monkeypatch):
    """`parse_automaton` reads the first row alone; the parser tokenises."""
    calls = []
    tokenize = formats._tokenize
    monkeypatch.setattr(formats, "_tokenize", lambda text: calls.append(text) or tokenize(text))
    assert main(["stats", qds_file]) == 0
    assert main(["check", "--k", "4", "--l", "3", w4_file]) == 0
    assert main(["dot", w4_file]) == 0
    assert len(calls) == 3


def test_build_and_member_pipeline(sm_file, tmp_path, capsys):
    out = tmp_path / "built.qds"
    assert (
        main(["build-qds", "--k", "3", "--l", "3", "--out", str(out), sm_file])
        == 0
    )
    s = parse_qds(out.read_text())
    assert len(s.states) == 15
    capsys.readouterr()
    assert main(["member", "--word", "abab", str(out)]) == 0


def test_trim_cli(tmp_path, trim_demo_qds, capsys):
    src = tmp_path / "t.qds"
    src.write_text(serialize_qds(trim_demo_qds))
    out = tmp_path / "trimmed.qds"
    assert main(["trim", "--report", "--out", str(out), str(src)]) == 0
    captured = capsys.readouterr()
    trimmed = parse_qds(out.read_text())
    assert len(trimmed.states) == 6
    assert "delta\t2 c 3" in captured.out
    assert "finality\t5" in captured.out


def test_pathdfa_cli(tmp_path, trim_demo_qds, capsys):
    src = tmp_path / "t.qds"
    src.write_text(serialize_qds(trim_demo_qds))
    assert main(["pathdfa", str(src)]) == 0
    text = capsys.readouterr().out
    assert "@type nfa" in text and "+1" in text
    assert "+1" in parse_nfa(text).alphabet  # the export reads back
    assert main(["pathdfa", "--dot", str(src)]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_reduce_cli(tmp_path, slack_pair_qds, capsys):
    src = tmp_path / "s.qds"
    src.write_text(serialize_qds(slack_pair_qds))
    out = tmp_path / "r.qds"
    assert main(["reduce", "--classes", "--out", str(out), str(src)]) == 0
    captured = capsys.readouterr()
    reduced = parse_qds(out.read_text())
    assert len(reduced.states) == 3
    assert "class_id\tlayer\tmembers" in captured.out
    assert "{2,4}\t2\t2 4" in captured.out


def test_reduce_cli_refuses_colliding_class_names(tmp_path, comma_name_qds, capsys):
    src = tmp_path / "c.qds"
    src.write_text(serialize_qds(comma_name_qds))
    assert main(["reduce", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "both named {1,2}" in captured.err


def test_build_qds_cli_refuses_colliding_pair_names(tmp_path, capsys):
    from tests.test_build import COLLIDING_PAIRS

    src = tmp_path / "c.nfa"
    src.write_text(COLLIDING_PAIRS)
    assert main(["build-qds", "--k", "1", "--l", "1", str(src)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "both named x|a|b" in err


def test_qds_cli_refuses_repeated_alphabet_symbol(tmp_path, capsys):
    src = tmp_path / "r.qds"
    src.write_text("@type qds\n@alphabet a a\n@layers 2\n@layer 1 p\n@layer 2 r\n"
                   "@initial p\np a r\n@gamma r p 1\n")
    for cmd in (["stats"], ["trim"], ["reduce"]):
        assert main(cmd + [str(src)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: duplicate alphabet symbols\n"


def test_dfa2qds_and_minimize(tmp_path, three_state_dfa, capsys):
    src = tmp_path / "d.nfa"
    src.write_text(serialize_nfa(three_state_dfa))
    assert main(["dfa2qds", str(src)]) == 0
    s = parse_qds(capsys.readouterr().out)
    assert len(s.states) == 6
    assert main(["minimize", str(src)]) == 0
    m = parse_nfa(capsys.readouterr().out)
    assert m.is_deterministic


def test_minimize_rejects_nondeterministic(sm_file, capsys):
    assert main(["minimize", sm_file]) == 2
    assert "deterministic" in capsys.readouterr().err


def test_determinize_cli(sm_file, capsys):
    assert main(["determinize", sm_file]) == 0
    d = parse_nfa(capsys.readouterr().out)
    assert d.is_deterministic and len(d.states) == 4


def test_family_csv(tmp_path, capsys):
    csv = tmp_path / "gap.csv"
    assert main(["family", "--kmax", "2", "--csv", str(csv), "--porcelain"]) == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0].startswith("k,nfa_states")
    assert len(lines) == 4


def test_family_emit(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["family", "--emit", "1", "--porcelain"]) == 0
    nfa = parse_nfa((tmp_path / "lk1.nfa").read_text())
    sk = parse_qds((tmp_path / "lk1.qds").read_text())
    dfa = parse_nfa((tmp_path / "lk1.dfa").read_text())
    assert len(nfa.states) == 3
    assert len(sk.states) == 12
    assert len(dfa.states) == 4 and dfa.is_deterministic


def test_family_emit_determinizes_once(tmp_path, capsys, monkeypatch):
    """The written DFA is the one `family_instance` built."""
    calls = []

    def counted(a):
        calls.append(a)
        return determinize(a)

    monkeypatch.setattr(family, "determinize", counted)
    monkeypatch.setattr(cli, "determinize", counted)
    monkeypatch.chdir(tmp_path)
    assert main(["family", "--emit", "3", "--porcelain"]) == 0
    assert len(calls) == 1
    want = serialize_nfa(minimize_dfa(determinize(gen_lk_nfa(3))))
    assert (tmp_path / "lk3.dfa").read_text() == want


def test_stats_cli(qds_file, capsys):
    assert main(["stats", qds_file]) == 0
    out = capsys.readouterr().out
    assert "total_states\t8" in out and "min_shift\t1" in out


def test_dot_cli(qds_file, sm_file, capsys):
    assert main(["dot", qds_file]) == 0
    assert "style=dashed" in capsys.readouterr().out
    assert main(["dot", sm_file]) == 0
    assert "digraph" in capsys.readouterr().out


def test_malformed_file_exit_2(tmp_path, capsys):
    p = tmp_path / "junk.nfa"
    p.write_text("@type nfa\n@alphabet a\n@states 0\n@initial 7\n")
    assert main(["check", "--k", "1", "--l", "1", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


def test_unicode_digit_layer_count_exit_2(tmp_path, capsys):
    p = tmp_path / "sup.qds"
    p.write_text("@type qds\n@alphabet a\n@layers \u00b2\n@layer 1 p\n@layer 2 q\n"
                 "@initial p\np a q\n@gamma q p 1\n", encoding="utf-8")
    assert main(["stats", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_missing_file_exit_2(capsys):
    assert main(["stats", "/nonexistent/x.qds"]) == 2


def test_unknown_subcommand_exit_2(capsys):
    assert main(["frobnicate"]) == 2


def test_stdin_input(qds_file, capsys, monkeypatch):
    import io

    text = open(qds_file).read()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["member", "--word", "a", "-"]) == 0
    assert "ACCEPT state=2" in capsys.readouterr().out


@pytest.mark.parametrize("text", FULL_SHIFT_TEXTS, ids=["trim", "reduce"])
@pytest.mark.parametrize("command", [["stats"], ["member", "--word", "aa"], ["trim"],
                                     ["reduce"], ["pathdfa"], ["dot"]], ids=lambda c: c[0])
def test_full_window_shift_is_refused(tmp_path, capsys, text, command):
    """A gamma shift of m is refused by every command that reads a
    structure: exit 2 and one `error:` line."""
    src = tmp_path / "full.qds"
    src.write_text(text)
    assert main(command + [str(src)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "out of range 1..1" in err


COMMANDS = (
    ["check", "--k", "2", "--l", "1"],
    ["exists"],
    ["minimal"],
    ["lookahead", "--k", "2"],
    ["stats"],
    ["member", "--word", "ab"],
    ["trim"],
    ["reduce"],
    ["dot"],
)


@settings(max_examples=100, deadline=None)
@given(st.text() | automaton_texts())
def test_cli_never_exits_1_on_an_error(text):
    """Exit 2 always carries one `error:` line; exit 0 and 1 (a negative
    answer) print nothing on stderr."""
    for cmd in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(text)), \
                redirect_stdout(out), redirect_stderr(err):
            code = main(cmd + ["-"])
        errors = err.getvalue().splitlines()
        if code == 2:
            assert len(errors) == 1 and errors[0].startswith("error: "), (cmd, text)
        else:
            assert code in (0, 1) and not errors, (cmd, text)


ROOT = Path(__file__).resolve().parent.parent
QUOTED = ("check", "exists", "minimal", "lookahead", "member")  # first line in the comment
DROPS = {"states": "state", "edges": "delta", "gamma": "gamma", "finality": "finality"}


def readme_examples():
    """(argv, exit code, comment) of each README example on `data/` whose
    comment states a result; a trailing "(exit N)" gives a code other
    than 0."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        if argv[1:2] and argv[1] in (*QUOTED, "build-qds", "trim") \
                and "data/" in command and comment.strip():
            said, code = re.fullmatch(r"\s*(.*?)\s*(?:\(exit (\d)\))?", comment).groups()
            yield argv[1:], int(code or 0), said


def _dropped(said: str) -> list[tuple[str, str]]:
    """The (kind, detail) rows a "drops states 7 8, edges (2,c,3), ..."
    comment names, a gamma row by its source state."""
    rows = []
    for part in said.removeprefix("drops ").split(", "):
        kind, *items = part.split()
        rows += [(DROPS[kind], " ".join(item.strip("()").split(","))) for item in items]
    return sorted(rows)


def test_readme_examples_print_what_their_comments_say(monkeypatch, capsys, tmp_path):
    """A quoted command's comment is the first line it prints, a final
    " ..." standing for the rest of the line; `build-qds` writes the number
    of states its comment gives, and `trim --report` drops what its comment
    lists."""
    examples = list(readme_examples())
    assert sorted(argv[0] for argv, _, _ in examples) == sorted(
        [*QUOTED, "check", "build-qds", "trim"])
    monkeypatch.chdir(ROOT)
    for argv, code, said in examples:
        if "--out" in argv:  # written to a scratch directory, not the checkout
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / argv[at])
        assert main(argv) == code, argv
        out, err = capsys.readouterr()
        if argv[0] == "build-qds":
            built = parse_qds(Path(argv[argv.index("--out") + 1]).read_text())
            assert f"{len(built.states)} states" == said, argv
        elif argv[0] == "trim":
            # the structure goes to stdout, so the report to stderr
            head, *lines = err.splitlines()
            rows = [line.split("\t") for line in lines]
            got = sorted((kind, detail.split()[0] if kind == "gamma" else detail)
                         for kind, detail in rows)
            assert head == "kind\tdetail" and got == _dropped(said), argv
        elif said.endswith(" ..."):
            assert out.splitlines()[0].startswith(said[:-3]), argv
        else:
            assert out.splitlines()[0] == said, argv
