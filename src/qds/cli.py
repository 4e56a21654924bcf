"""Single command-line entry point.

Exit codes: 0 for success / a positive answer, 1 for a mathematically
negative answer (REJECT, "ambiguous", "no pair"), 2 for malformed input or a
violated precondition (always with a one-line diagnostic on stderr). Scripts
can branch on negative-vs-error without parsing text.
"""

from __future__ import annotations

import argparse
import sys

from . import build, family, formats, kl, reduction, structure, trim
from .errors import InputError, QdsError
from .nfa import Dfa, Nfa, determinize, minimize_dfa, subset_name
from .structure import Qds
from .words import word_str, words_of_length


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _load(path: str, kind: type[Nfa] | type[Qds]) -> Nfa | Qds:
    """The automaton or structure in `path`, refused unless it is a `kind`."""
    obj = formats.parse_automaton(_read_text(path))
    if not isinstance(obj, kind):
        want, found = ("a QDS", "an automaton") if kind is Qds else ("an automaton", "a QDS")
        raise InputError(f"{path}: expected {want}, found {found}")
    return obj


def _cmd_check(args) -> int:
    a = _load(args.file, Nfa)
    witness = kl.kl_witness(a, args.k, args.l)
    if witness is None:
        print(f"UNAMBIGUOUS({args.k},{args.l})")
        return 0
    q, w = witness
    print(f"AMBIGUOUS({args.k},{args.l}) witness state={q} word={word_str(w)}")
    return 1


def _cmd_exists(args) -> int:
    a = _load(args.file, Nfa)
    report = kl.exists_kl(a)
    if report.exists:
        print("EXISTS")
        return 0
    cycle = "->".join(repr(p) for p in report.certificate)
    print(f"NONE certificate={cycle}")
    return 1


def _cmd_minimal(args) -> int:
    a = _load(args.file, Nfa)
    found = kl.find_minimal_kl(a)
    if found is None:
        print("NONE no pair exists for any (k,l)")
        return 1
    print(f"MINIMAL k={found[0]} l={found[1]}")
    return 0


def _cmd_steptable(args) -> int:
    a = _load(args.file, Nfa)
    table = kl.step_table(a, args.k, args.l)
    lines = ["state\tword\tindex\tsuccessor"]
    rows = ((q, w) for q in a.states for w in words_of_length(a.alphabet, args.k))
    for (q, w), (j, t) in zip(rows, table.entries):
        lines.append(f"{q}\t{word_str(w)}\t{j}\t{'_' if t < 0 else a.states[t]}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_lookahead(args) -> int:
    a = _load(args.file, Nfa)
    if kl.is_k_lookahead_deterministic(a, args.k):
        print(f"LOOKAHEAD({args.k})=true")
        return 0
    print(f"LOOKAHEAD({args.k})=false")
    return 1


def _cmd_build_qds(args) -> int:
    a = _load(args.file, Nfa)
    s = build.build_qds(a, args.k, args.l)
    _write_text(args.out, formats.serialize_qds(s))
    return 0


def _cmd_member(args) -> int:
    s = _load(args.file, Qds)
    w = formats.parse_word(args.word, s.alphabet)
    result = structure.qds_membership(s, w, want_trace=args.trace)
    if args.trace:
        print(structure.format_trace(result))
    verdict = "ACCEPT" if result.accepted else "REJECT"
    terminal = "_" if result.terminal is None else result.terminal
    print(f"{verdict} state={terminal} shifts={result.shifts} reads={result.reads}")
    return 0 if result.accepted else 1


def _cmd_trim(args) -> int:
    s = _load(args.file, Qds)
    t = trim.trim_qds(s)
    _write_text(args.out, formats.serialize_qds(t))
    if args.report:
        lines = ["kind\tdetail"]
        lines += [f"state\t{q}" for q in s.states if q not in t.layer_of]
        lines += [f"delta\t{p} {x} {q}" for (p, x), q in sorted(s.delta.items())
                  if t.delta.get((p, x)) != q]
        lines += [f"gamma\t{p} {target} {shift}" for p, (target, shift) in sorted(s.gamma.items())
                  if target is not None and t.gamma.get(p) != (target, shift)]
        lines += [f"finality\t{q}" for q in s.states if q in s.finals and q not in t.finals]
        stream = sys.stdout if args.out not in (None, "-") else sys.stderr
        print("\n".join(lines), file=stream)
    return 0


def _cmd_pathdfa(args) -> int:
    s = _load(args.file, Qds)
    pdfa = trim.build_path_dfa(s)
    if args.dot:
        _write_text(args.out, formats.path_dfa_to_dot(pdfa))
    else:
        _write_text(args.out, formats.serialize_nfa(formats.path_dfa_to_nfa(pdfa)))
    return 0


def _cmd_reduce(args) -> int:
    s = _load(args.file, Qds)
    partition = reduction.equiv_fixpoint(s)
    quotiented = reduction.quotient(s, partition)
    _write_text(args.out, formats.serialize_qds(quotiented))
    if args.classes:
        lines = ["class_id\tlayer\tmembers"]
        for j, classes in enumerate(partition.layers, start=1):
            for cls in classes:
                lines.append(
                    f"{subset_name(cls)}\t{j}\t{' '.join(sorted(cls))}"
                )
        stream = sys.stdout if args.out not in (None, "-") else sys.stderr
        print("\n".join(lines), file=stream)
    return 0


def _cmd_dfa2qds(args) -> int:
    a = _load(args.file, Nfa)
    _write_text(args.out, formats.serialize_qds(build.dfa_to_qds(a)))
    return 0


def _cmd_determinize(args) -> int:
    a = _load(args.file, Nfa)
    _write_text(args.out, formats.serialize_nfa(determinize(a)))
    return 0


def _cmd_minimize(args) -> int:
    a = _load(args.file, Nfa)
    if not a.is_deterministic:
        raise InputError("minimize needs a deterministic automaton; determinize first")
    d = Dfa(a.alphabet, a.states, a.initials, a.finals, a.transitions)
    _write_text(args.out, formats.serialize_nfa(minimize_dfa(d)))
    return 0


def _cmd_family(args) -> int:
    if args.emit is not None:
        inst = family.family_instance(args.emit)
        prefix = args.prefix or f"lk{args.emit}"
        _write_text(f"{prefix}.nfa", formats.serialize_nfa(inst.nfa))
        _write_text(f"{prefix}.qds", formats.serialize_qds(inst.sk))
        _write_text(f"{prefix}.dfa", formats.serialize_nfa(inst.dfa))
        if not args.porcelain:
            print(f"wrote {prefix}.nfa {prefix}.qds {prefix}.dfa", file=sys.stderr)
        return 0
    report = family.gap_report(args.kmax, seed=args.seed)
    _write_text(args.csv, report.as_csv() + "\n")
    if not args.porcelain:
        if report.crossover_k is not None:
            print(
                f"layered structure smaller than the minimal DFA from k={report.crossover_k}",
                file=sys.stderr,
            )
        else:
            print("no size crossover up to this kmax", file=sys.stderr)
    return 0


def _cmd_stats(args) -> int:
    s = _load(args.file, Qds)
    stats = structure.qds_stats(s)
    lines = [
        f"layers\t{stats.m}",
        f"window\t{stats.window}",
        f"layer_sizes\t{' '.join(str(n) for n in stats.layer_sizes)}",
        f"total_states\t{stats.total_states}",
        f"delta_edges\t{stats.delta_edges}",
        f"min_shift\t{'_' if stats.min_shift is None else stats.min_shift}",
        f"bottom_gammas\t{stats.bottom_gammas}",
        f"finals\t{stats.finals}",
    ]
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_dot(args) -> int:
    obj = formats.parse_automaton(_read_text(args.file))
    if isinstance(obj, Qds):
        _write_text(args.out, formats.qds_to_dot(obj))
    else:
        _write_text(args.out, formats.nfa_to_dot(obj))
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qds",
        description="decide window-lookahead unambiguity of NFAs and run "
        "quasi-deterministic sliding-window recognizers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help, out=True, ints=""):
        """A subcommand on `file`, with `--out` if `out` and a required int
        option per letter of `ints`."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        for opt in ints:
            p.add_argument(f"--{opt}", type=int, required=True)
        if out:
            p.add_argument("--out", default=None)
        p.add_argument("file")
        return p

    add("check", _cmd_check, "is the automaton (k,l)-unambiguous?", out=False, ints="kl")
    add("exists", _cmd_exists, "does any (k,l) pair work?", out=False)
    add("minimal", _cmd_minimal, "smallest working (k,l) pair", out=False)
    add("steptable", _cmd_steptable, "step index/successor table as TSV", ints="kl")
    add("lookahead", _cmd_lookahead, "is it k-lookahead deterministic?", out=False, ints="k")
    add("build-qds", _cmd_build_qds, "compile a (k,l)-unambiguous NFA (reachable part)",
        ints="kl")

    p = add("member", _cmd_member, "windowed membership test", out=False)
    p.add_argument("--word", required=True,
                   help="symbols; one char each, or whitespace-separated; _ is empty")
    p.add_argument("--trace", action="store_true")

    p = add("trim", _cmd_trim, "drop useless states/edges/finalities")
    p.add_argument("--report", action="store_true",
                   help="also emit a TSV of removed components")

    p = add("pathdfa", _cmd_pathdfa, "accessible path-DFA of a QDS")
    p.add_argument("--dot", action="store_true")

    p = add("reduce", _cmd_reduce, "quotient by the refinement fixpoint")
    p.add_argument("--classes", action="store_true",
                   help="also emit a TSV of the equivalence classes")

    add("dfa2qds", _cmd_dfa2qds, "embed a DFA as a window-1 QDS")
    add("determinize", _cmd_determinize, "subset construction")
    add("minimize", _cmd_minimize, "minimal DFA (input must be deterministic)")

    p = sub.add_parser("family", help="size/throughput report for the witness family")
    p.set_defaults(fn=_cmd_family)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--porcelain", action="store_true",
                   help="machine mode: no human summary lines")
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--csv", default=None, help="write the report CSV here")
    p.add_argument("--emit", type=int, default=None, metavar="K",
                   help="write the NFA, QDS and minimal DFA for one k")
    p.add_argument("--prefix", default=None, help="file prefix for --emit")

    add("stats", _cmd_stats, "layer/shift statistics of a QDS")
    add("dot", _cmd_dot, "DOT export (type auto-detected)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, matching the input-error contract
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except QdsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
