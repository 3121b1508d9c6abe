"""An argv fuzzer for the CLI: whatever argv it is given, `cli.run` returns
0, 1 or 2 and never raises.

Each argv is a subcommand and a valid set of its options with small sample
counts, then more options of that subcommand, which override those, with
values from a fixed pool of tokens: small, negative, zero, non-finite and
huge numbers, words, empty strings, lists and the choices the options
accept. The pool's largest integer is 2, so a fuzzed count stays small.
`--output` is left out, since it writes a file.
"""

import argparse
import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from hartogs import cli

TOKENS = ("-1", "0", "1", "2", "0.5", "-0.5", "nan", "inf", "-inf", "1e308", "1e-320",
          "x", "", "0.1,0.2", "0.1,0.2,0.3", "0,0.5", "1,1", "1,,3", "0.1+0.2j",
          "disk", "ball", "product", "hartogs", "affine4", "rational3")

# one valid call of each subcommand; each exits 0 on its own
VALID = {
    "kernel": ["--model", "ball", "--k", "2", "--w", "0.1,0.2", "--eta", "0.1,0.2"],
    "moments": ["--k", "2", "--nu", "1,1", "--mc-samples", "64"],
    "estimates": ["--which", "ball", "--alpha", "-0.5", "--grid-points", "4"],
    "schur-range": ["--n", "2"],
    "schur-verify": ["--n", "2", "--k", "1", "--p", "2", "--samples", "8"],
    "blowup": ["--n", "2", "--p", "1.3", "--m-max", "4"],
    "transfer": ["--example", "affine4", "--samples", "64"],
    "project": ["--n", "2", "--k", "1", "--point", "0.1,0.4", "--monomial", "1,0",
                "--samples", "64"],
}


def _options() -> dict[str, list[tuple[str, bool]]]:
    """Each subcommand's options but --help and --output, with whether each takes a value."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [(a.option_strings[0], a.nargs != 0) for a in command._actions
                   if a.option_strings and a.option_strings[0] not in ("-h", "--output")]
            for name, command in sub.choices.items()}


OPTIONS = _options()


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command, *VALID[command]]
    for option, takes_value in draw(st.lists(st.sampled_from(OPTIONS[command]), max_size=4)):
        argv.append(option)
        if takes_value:
            argv.append(draw(st.sampled_from(TOKENS)))
    return argv


def test_fuzzer_starts_from_a_valid_call_of_every_subcommand():
    assert sorted(OPTIONS) == sorted(VALID) == ["blowup", "estimates", "kernel", "moments",
                                                "project", "schur-range", "schur-verify",
                                                "transfer"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert all(cli.run([command, *argv]) == 0 for command, argv in VALID.items())


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_run_returns_an_exit_code_and_never_raises(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    assert code in (0, 1, 2), argv
