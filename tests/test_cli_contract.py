"""The CLI's exit contract over generated command lines, driven by hypothesis.

Each command line is one of the eight subcommands and its flags, each
usually given, as ``--flag value`` or ``--flag=value``.  A value is valid
and small five times in eight, past a cap in an otherwise valid form twice,
and noise once: negative, zero, empty, huge, comma noise or text.  One line
in four adds a repeated or foreign flag, an unknown flag or a stray token.
Sizes stay small by construction: valid generators and moduli are at most
24, and ``verify`` always gets ``--max-m`` and ``--max-beta`` first, so no
suite runs at its default sizes.  ``--help`` is left out; it prints help
text, not a result.  ``cli.main`` runs in process and must keep its contract:

- exit 0: stdout is JSON, or DOT under ``--dot``; with ``--out`` the file
  holds it and stdout is empty;
- exit 1: stdout is empty and stderr is one line ``<DomainError subclass>: …``;
- exit 2: stdout is empty and the last line of stderr is ``usage error: …``
  or argparse's ``kunzcone …: error: …``;
- no other exit code, and no traceback.

While the tests run, the Apéry table builders raise when called past
``MAX_MODULUS`` and the facet scan past ``MAX_FACE_N``, so a size past a cap
must be refused before any table is built.
"""

import io
import json
import re
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from kunzcone import cone, errors, gluing, poset, semigroup
from kunzcone.cli import MAX_FACE_N, MAX_MODULUS, main
from kunzcone.sweeps import SUITES

NUMBERS = [str(v) for v in range(-3, 14)] + ["1001", "10001", str(10**30), str(-10**30)]
TEXTS = ["", " ", "x", "3.5", "1e3", "0x10", "--", "-", "٣", " 7", "1_0"]
INTS = st.sampled_from(NUMBERS + TEXTS)
SIZES = st.sampled_from(["-1", "0", "1", "2", "3", "4", "21", "401", "10001", "x", ""])


@st.composite
def int_lists(draw):
    """Comma-separated numbers with comma noise: doubled, leading, trailing,
    spaces, a stray separator, or a number past every cap beside small ones."""
    parts = draw(st.lists(st.sampled_from(NUMBERS + ["x", str(10**30 + 1)]), max_size=5))
    text = draw(st.sampled_from([",", ", ", ",,", " ", ";"])).join(parts)
    return draw(st.sampled_from(["", ",", " "])) + text + draw(st.sampled_from(["", ","]))


def _csv(*parts):
    return st.tuples(*parts).map(lambda v: ",".join(map(str, v)))


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


BIG = str(10**30)
# flag -> (valid values, values past a cap in an otherwise valid form, noise),
# or None for a switch (a flag with no size gives noise twice); a valid value
# may still be refused (a gcd, an alpha outside S), but it often is not
VALUES = {
    "--gens": (st.one_of(
        st.sampled_from(["4,13,18", "2,5", "3,5,7", "5,6,9", "6,8,10,13,15,17", "1"]),
        st.lists(st.integers(2, 20), min_size=1, max_size=4).map(lambda v: ",".join(map(str, v))),
    ), st.sampled_from(["1001,1002", "10001,10002", f"{BIG},{BIG}1", f"2,{BIG}1"]), int_lists()),
    "--m": (_ints(2, 13), st.sampled_from(["1001", "10001", BIG]), INTS),
    "--dot": None,
    "--out": (st.just("{tmp}/out.txt"), *[st.sampled_from(["{tmp}/missing/out.txt", "{tmp}", ""])] * 2),
    "--params": (_csv(st.integers(2, 9), st.integers(1, 3), st.integers(1, 8), st.integers(-5, 5)),
                 st.sampled_from(["1001,1,2,1", "1001,1,1,1", "10001,1,1,1", f"{BIG},1,1,1", f"7,{BIG},3,1"]),
                 int_lists()),
    "--detect": None,
    "--alpha": (_ints(1, 60), st.sampled_from(["10001", BIG]), INTS),
    "--beta": (_ints(2, 6), st.sampled_from(["1001", "10001", BIG]), INTS),
    "--n": (st.sampled_from(["4", "6", "8", "9", "12", "15", "16", "20", "24"]),
            st.sampled_from(["10001", BIG]), INTS),
    "--hgen": (st.sampled_from(["2", "3", "4", "6", "8", "10"]), st.just(BIG), INTS),
    "--rho": (_ints(1, 24), st.just(BIG), INTS),
    "--suite": (st.sampled_from(SUITES), *[st.sampled_from(["", "bogus", "ROUNDTRIP"])] * 2),
    "--seed": (_ints(-(10**6), 10**6), st.sampled_from([BIG, "-" + BIG]), INTS),
    "--max-m": (_ints(2, 4), st.sampled_from(["401", "10001"]), SIZES),
    "--max-beta": (_ints(2, 4), st.sampled_from(["21", "10001"]), SIZES),
}
# subcommand -> its flags, the first ones each line usually gives
FLAGS = {
    "info": (["--gens"], []),
    "apery": (["--gens"], ["--m"]),
    "poset": (["--gens"], ["--m", "--dot", "--out"]),
    "face": (["--gens"], ["--m"]),
    "ega": (["--params"], ["--detect", "--gens"]),
    "glue": (["--gens", "--alpha", "--beta"], []),
    "embed": (["--n", "--hgen", "--rho"], []),
    "verify": (["--suite"], ["--seed"]),
}
STRAYS = ["--bogus", "extra", "-5", "-x"]


@st.composite
def command_lines(draw, command):
    usual, optional = FLAGS[command]
    argv = [command]

    def one_in(k):  # hypothesis leans to the low end, so this leans to False
        return draw(st.integers(1, k)) == k

    flags = [f for f in usual if not one_in(6)] + [f for f in optional if one_in(2)]
    if one_in(4):  # noise: a repeated or foreign flag, or a stray token
        flags += draw(st.lists(st.sampled_from([*VALUES, *STRAYS]), min_size=1, max_size=2))
    if command == "verify":  # sizes first, so that every suite run stays small
        flags = ["--max-m", "--max-beta", *flags]
    gens = []
    for flag in flags:
        if VALUES.get(flag) is None:  # a switch or a stray token
            argv.append(flag)
            continue
        kind = draw(st.sampled_from([0, 0, 0, 0, 0, 1, 1, 2]))  # valid, past a cap, noise
        value = draw(VALUES[flag][kind])
        if kind == 0 and flag == "--gens":
            gens = [int(g) for g in value.split(",")]
        elif kind == 0 and flag == "--alpha" and gens:  # a sum of two generators: in S, not minimal
            value = str(draw(st.sampled_from(gens)) + draw(st.sampled_from(gens)))
        argv += [flag, value] if one_in(2) else [f"{flag}={value}"]
    return argv


def _capped(real, size, cap):
    def guard(*args):
        assert size(*args) <= cap, f"{real.__name__} called past its cap {cap}"
        return real(*args)

    return guard


@pytest.fixture(scope="module", autouse=True)
def tables_within_caps():
    with ExitStack() as stack:
        for module, name, size, cap in [
            (semigroup, "apery_by_class", lambda gens, modulus: modulus, MAX_MODULUS),
            (semigroup, "_close", lambda gens, modulus, table: modulus, MAX_MODULUS),
            *[(m, "_facet_scan", lambda entries, wrap: len(entries), MAX_FACE_N)
              for m in (semigroup, cone, gluing, poset)],
        ]:
            stack.enter_context(mock.patch.object(module, name, _capped(getattr(module, name), size, cap)))
        yield


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_out")


def _is_dot(text: str) -> bool:
    return text.startswith("digraph kunz_poset {\n") and text.endswith("}\n")


@pytest.mark.parametrize("command", FLAGS)
@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_exit_code_and_streams_keep_the_contract(command, out_dir, data):
    argv = [arg.replace("{tmp}", str(out_dir)) for arg in data.draw(command_lines(command))]
    target = out_dir / "out.txt"
    target.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 0:
        assert err == ""
        if target.exists():  # --out: the file holds what stdout would
            assert out == ""
            out = target.read_text(encoding="utf-8")
        if "--dot" in argv:
            assert _is_dot(out)
        else:
            json.loads(out)
    elif code == 1:
        assert out == ""
        name, sep, _ = err.partition(": ")
        assert sep and err.count("\n") == 1 and err.endswith("\n"), err
        assert issubclass(getattr(errors, name), errors.DomainError), err
    else:
        assert out == ""
        last = err.splitlines()[-1]
        assert last.startswith("usage error: ") or re.match(r"kunzcone( \w+)?: error: ", last), err
