"""The subcommand tables against argparse, argv by argv.

run_cli reads a plain command line through its subcommand's table and
gives every other line to argparse.  The corpus is every line of the
recorded transcript and of the help golden, the shell_session pools of
the benchmark at seeds 1-3, and four seeded mutations of each of those
lines: `=` forms, abbreviations, -h, --, negative-looking values, bad
ints and choices, flags with an explicit argument, empty values, and
repeated, interleaved or dropped tokens.  Wherever a table reads a line,
its Namespace must equal parse_args's; wherever parse_args exits, the
table must decline.
"""

import argparse
import contextlib
import io
import random
import sys
from pathlib import Path

from hyperdec import cli
from test_cli_help import SCREENS
from test_cli_transcript import _recorded, replay

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def shell_session_pool(seed: int) -> list:
    """The benchmark's shell_session lines at seed, as many as a 40 s run times."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import shell_session
    finally:
        sys.path.remove(str(PERFBENCH))
    return shell_session.make_inputs(seed, 5 * len(shell_session.PLAN))


# --------------------------------------------------------------------------
# mutations: each takes an argv whose first token is the subcommand
# --------------------------------------------------------------------------

def _insert(argv, rng, *tokens):
    i = rng.randint(1, len(argv))
    return argv[:i] + list(tokens) + argv[i:]


def _options(argv):
    return [i for i in range(1, len(argv)) if argv[i].startswith("--")]


def _plain(argv):
    return [i for i in range(1, len(argv)) if not argv[i].startswith("-")]


def equals_form(argv, rng):
    pairs = [i for i in _options(argv) if "=" not in argv[i] and i + 1 in _plain(argv)]
    if not pairs:
        return argv + [rng.choice(("--mode=float", "--prec=60", "--var=t", "--format=ascii"))]
    i = rng.choice(pairs)
    return argv[:i] + [f"{argv[i]}={argv[i + 1]}"] + argv[i + 2:]


def abbreviation(argv, rng):
    if not _options(argv):
        return _insert(argv, rng, "--js")
    i = rng.choice(_options(argv))
    name, eq, value = argv[i].partition("=")
    cut = rng.randint(3, max(3, len(name) - 1))
    return argv[:i] + [name[:cut] + eq + value] + argv[i + 1:]


def help_flag(argv, rng):
    return _insert(argv, rng, rng.choice(("-h", "--help")))


def double_dash(argv, rng):
    return _insert(argv, rng, "--")


def negative_looking(argv, rng):
    value = rng.choice(("-1", "-1/2", "-x", "-3*eps", "-"))
    if not _plain(argv):
        return argv + ["--prec", value]
    i = rng.choice(_plain(argv))
    return argv[:i] + [value] + argv[i + 1:]


def bad_value(argv, rng):
    return _insert(argv, rng, *rng.choice((
        ("--mode", "q"), ("--prec", "x"), ("--terms", "1.5"), ("--window", "w"),
        ("--grid", "2e3"), ("--format", "pdf"), ("--preset", "zz"), ("--steps", ""),
        ("--x0", "1/0"), ("--display", "٣"),
    )))


def explicit_flag(argv, rng):
    return _insert(argv, rng, rng.choice(("--json=1", "--json=", "--check=yes", "--lightstone=")))


def empty_value(argv, rng):
    return _insert(argv, rng, *rng.choice((("--var=",), ("--at", ""), ("--point=",), ("",))))


def repeated(argv, rng):
    if not _options(argv):
        return argv + ["--json", "--json"]
    i = rng.choice(_options(argv))
    run = argv[i:i + 2] if i + 1 in _plain(argv) else argv[i:i + 1]
    return _insert(argv, rng, *run)


def interleaved(argv, rng):
    if not _plain(argv):
        return _insert(argv, rng, "1/2")
    i = rng.choice(_plain(argv))
    if rng.random() < 0.5:  # a positional moved to the end, past the options
        return argv[:i] + argv[i + 1:] + [argv[i]]
    return argv[:i + 1] + [rng.choice(("--json", "--mode"))] + argv[i + 1:]


def dropped(argv, rng):
    if len(argv) < 2:
        return argv + ["--json"]
    i = rng.randrange(1, len(argv))
    return argv[:i] + argv[i + 1:]


MUTATIONS = (equals_form, abbreviation, help_flag, double_dash, negative_looking, bad_value,
             explicit_flag, empty_value, repeated, interleaved, dropped)


def corpus(seed: int = 20) -> list:
    rng = random.Random(seed)
    lines = [rec["argv"] for rec in _recorded() + _recorded(SCREENS)]
    lines += [list(line.argv) for s in (1, 2, 3) for line in shell_session_pool(s)]
    mutated = []
    for argv in lines:
        if argv and argv[0] in cli._build_parser()[1]:
            mutated += [m(argv, rng) for m in rng.sample(MUTATIONS, 4)]
    return lines + mutated


# --------------------------------------------------------------------------
# the two readers
# --------------------------------------------------------------------------

def argparse_reads(argv):
    """parse_args's Namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli._build_parser()[0].parse_args(argv)
        except SystemExit:
            return None


def table_reads(argv):
    """What run_cli reads for argv without argparse, or None."""
    tables = cli._build_parser()[1]
    table = tables.get(argv[0]) if argv else None
    return cli._read_plain(table, argv[1:]) if table else None


def test_tables_read_as_argparse_reads_or_decline():
    lines = corpus()
    assert len(lines) > 4000
    read = exited = 0
    for argv in lines:
        want, got = argparse_reads(argv), table_reads(argv)
        if got is not None:
            assert got == want, argv
            read += 1
        exited += want is None
    # the corpus exercises both readers: a third of it plain, many lines refused
    assert read > len(lines) / 3 and exited > len(lines) / 4, (read, exited, len(lines))


def test_tables_decline_every_form_they_do_not_read():
    for argv in (
        ["eval", "--lig", "1/4"], ["eval", "--", "1"], ["eval", "1", "-h"],
        ["deriv", "x", "--at", "-1/2"], ["evt", "x", "--doublings", "-1"],
        ["eval", "1", "--json=1"], ["digits", "1/4", "--json", "1"],
        ["eval", "1", "--mode", "q"], ["newton", "x", "--x0", "1"], ["eval", "1", "--prec"],
    ):
        assert table_reads(argv) is None, argv


def test_no_line_of_the_seed_1_pool_reaches_argparse(monkeypatch):
    calls = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        calls.append(args)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    for line in shell_session_pool(1):
        assert replay(list(line.argv))["exit"] == line.code, line.argv
    assert calls == []
    # the spy sees a line the table declines
    assert replay(["eval", "--lig", "1/4"])["exit"] == 0
    assert calls == [(["eval", "--lig", "1/4"],)]
