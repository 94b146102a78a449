"""The CLI's input contract, checked by a fuzzer: one JSON field of a seed
example's input files (at any depth) is replaced by a random JSON value or
deleted, and every command runs on the result in-process.  The only allowed
outcomes are exit 0, exit 1 with a DomainError whose message names its stage,
and exit 2 with a ValueError that names its stage; no exception may escape
cli.main, and none may exit 3 as an internal fault."""

import copy
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxgamma import errors
from boxgamma.cli import SEED_FILES, main

# (fan, beta, x) per seed example; F2 has no x file of its own, and F1's
# has one coordinate per marker of F2's too
SEEDS = (
    ("fan_f1.json", "beta_f1.json", "x_f1.json"),
    ("fan_f2.json", "beta_f2.json", "x_f1.json"),
    ("fan_square.json", "beta_square.json", "x_square.json"),
)
COMMANDS = (
    ["validate"],
    ["box"],
    ["box", "--stabilize"],
    ["cohomology"],
    ["kring"],
    ["gkz-verify", "--bound", "6", "--vcap", "1"],
)
DOMAIN_ERRORS = {
    name for name, c in vars(errors).items() if isinstance(c, type) and issubclass(c, errors.DomainError)
}
STAGED = re.compile(r"^[a-z_]+: ")

# small values, so a mutated fan stays small: a large entry makes a large box set
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 4),
    st.sampled_from([0.5, -1.0, 2.0, 1e300]),
    st.sampled_from(["0", "1/2", "-1/3", "4/2", "1/4+1/3i", "2i", "abc", "", "1/0"]),
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(["re", "im", "x"]), inner, max_size=2),
    max_leaves=8,
)


def keys(doc) -> list:
    return list(doc) if isinstance(doc, dict) else list(range(len(doc)))


@st.composite
def mutated_inputs(draw):
    """A seed example's three files, one field of one of them replaced or
    deleted: a top-level field, or, each step with even odds, one nested in it."""
    docs = [copy.deepcopy(SEED_FILES[name]) for name in draw(st.sampled_from(SEEDS))]
    parent = docs[draw(st.integers(0, 2))]
    key = draw(st.sampled_from(keys(parent)))
    while isinstance(parent[key], (dict, list)) and parent[key] and draw(st.booleans()):
        parent, key = parent[key], draw(st.sampled_from(keys(parent[key])))
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(values)
    return docs


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(argv, out):
    """cli.main's exit code and its output document; an escaping exception
    fails the property with its traceback."""
    code = main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text())


# a few dozen derandomized examples in tier-1; under the deep profile, whose
# draws are not derandomized, its own max_examples (500)
@pytest.mark.deep
@settings(deadline=None, max_examples=40 if settings.default.derandomize else settings.default.max_examples)
@given(docs=mutated_inputs())
def test_every_outcome_is_a_staged_error_or_a_result(workdir, docs):
    files = []
    for name, doc in zip(("fan", "beta", "x"), docs):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc))
        files.append(str(path))
    fan, beta, x = files
    for command in COMMANDS:
        argv = [*command, "--fan", fan]
        if command[0] != "validate":
            argv += ["--beta", beta]
        if command[0] == "gkz-verify":
            argv += ["--x", x]
        code, out = run(argv, workdir / "out.json")
        assert code in (0, 1, 2), (argv, docs, out)
        if code:
            error = out["error"]
            assert STAGED.match(error["message"]), (argv, docs, error)
            assert error["type"] in (DOMAIN_ERRORS if code == 1 else {"ValueError"}), (argv, docs, error)
