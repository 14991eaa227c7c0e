"""Property tests: the exit-code contract on fuzzed PFC input, parse
against the line-by-line reference reader, and the PFC round trip on random
metric complexes.

Examples are drawn deterministically (derandomize=True), so a failure
reproduces on every run.
"""

import contextlib
import io
from itertools import combinations
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pfcomplex import MetricComplex, build_complex
from pfcomplex.cli import run_command
from pfcomplex.pfcio import parse, serialize
from pfcomplex.report import PfcError

import parse_oracle

FIXTURES = Path(__file__).parent.parent / "fixtures"
# example1.pfc is left out: its link check alone takes most of a second
SEEDS = [(FIXTURES / name).read_text(encoding="utf-8")
         for name in ("house.pfc", "torus3.pfc", "example1_interfaces.pfc")]

COMMANDS = st.sampled_from([
    ["check", "link-cat0", "{}"],
    ["check", "free-faces", "{}"],
    ["check", "extendability", "{}"],
    ["check", "gauss-bonnet", "{}"],
    ["homology", "{}"],
    ["homology", "{}", "--ring", "z2"],
    ["homology", "{}", "--local", "0"],
    ["homology", "{}", "--local", "3"],
])

TOKENS = st.sampled_from([
    "0", "1", "2", "3", "7", "59", "-1", "9223372036854775807",
    "9223372036854775808", "99999999999999999999", "1.0", "0.5", "1.5",
    "1e308", "1e-308", "0.0", "nan", "inf", "-inf", "x", "#", "pfc", "s",
    "l", "dim", "vertices", "name",
])
JUNK_LINE = st.lists(TOKENS, max_size=5).map(" ".join)

_INDEX = st.integers(0, 10**4)
MUTATION = st.one_of(
    st.tuples(st.just("delete"), _INDEX),
    st.tuples(st.just("insert"), _INDEX, JUNK_LINE),
    st.tuples(st.just("replace"), _INDEX, st.integers(0, 5), TOKENS),
    st.tuples(st.just("swap"), _INDEX, _INDEX),
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)


def mutate(text, mutations):
    """Apply line edits to a document; indices wrap around its length."""
    lines = text.splitlines()
    for op, i, *rest in mutations:
        if not lines:
            lines.append("")
        i %= len(lines)
        if op == "delete":
            del lines[i]
        elif op == "insert":
            lines.insert(i, rest[0])
        elif op == "replace":
            fields = lines[i].split() or [""]
            fields[rest[0] % len(fields)] = rest[1]
            lines[i] = " ".join(fields)
        else:
            j = rest[0] % len(lines)
            lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


@st.composite
def random_documents(draw):
    """Small PFC documents: random facets, all or no edge lengths, and a
    few stray records anywhere after the header.  Vertex 7 may be renamed
    to an id at or past the int64 range."""
    top = draw(st.sampled_from([7, 2**63 - 1, 2**63, 10**20]))
    facets = draw(st.lists(
        st.lists(st.integers(0, 7).map(lambda v: top if v == 7 else v),
                 min_size=1, max_size=4, unique=True),
        max_size=8))
    lines = ["pfc 1"] + ["s " + " ".join(map(str, f)) for f in facets]
    if draw(st.booleans()):
        edges = sorted({tuple(sorted(e)) for f in facets
                        for e in combinations(f, 2)})
        lengths = st.sampled_from(["1", "0.9", "1.1", "1.25", "0.5", "2"])
        lines += [f"l {u} {v} {draw(lengths)}" for u, v in edges]
    for i, record in draw(st.lists(st.tuples(_INDEX, JUNK_LINE), max_size=3)):
        lines.insert(1 + i % len(lines), record)
    return "\n".join(lines) + "\n"


def assert_exit_contract(path, doc, command):
    """Codes stay in {0, 1, 2, 3}; exit 2 prints one stderr line and no
    stdout.  An exception escaping run_command fails the test."""
    path.write_text(doc, encoding="utf-8")
    argv = [str(path) if a == "{}" else a for a in command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_command(argv, out)
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


@PROPERTY
@given(seed=st.sampled_from(SEEDS),
       mutations=st.lists(MUTATION, min_size=1, max_size=4),
       command=COMMANDS)
def test_mutated_fixtures_keep_the_exit_contract(tmp_path_factory, seed,
                                                 mutations, command):
    path = tmp_path_factory.getbasetemp() / "mutated.pfc"
    assert_exit_contract(path, mutate(seed, mutations), command)


@PROPERTY
@given(doc=random_documents(), command=COMMANDS)
def test_random_documents_keep_the_exit_contract(tmp_path_factory, doc,
                                                 command):
    path = tmp_path_factory.getbasetemp() / "random.pfc"
    assert_exit_contract(path, doc, command)


def parse_outcome(reader, doc):
    """What a reader makes of a document: the cells, vertex ids (with
    their types), name and lengths in insertion order, or the error's
    class, message and line."""
    try:
        mc = reader(doc)
    except PfcError as e:
        return type(e), str(e), getattr(e, "line", None)
    c = mc.complex
    return (c.cells, c.vertices, list(map(type, c.vertices)), c.name,
            list(mc.lengths.items()))


ORACLE = settings(derandomize=True, deadline=None, max_examples=250)


@ORACLE
@given(doc=random_documents())
def test_parse_equals_the_line_by_line_reader_on_random_documents(doc):
    assert parse_outcome(parse, doc) == parse_outcome(parse_oracle.parse, doc)


@ORACLE
@given(seed=st.sampled_from(SEEDS),
       mutations=st.lists(MUTATION, min_size=1, max_size=4))
def test_parse_equals_the_line_by_line_reader_on_mutated_fixtures(seed, mutations):
    doc = mutate(seed, mutations)
    assert parse_outcome(parse, doc) == parse_outcome(parse_oracle.parse, doc)


@st.composite
def metric_complexes(draw):
    """Random complexes on ids up to 2**63 - 1, with positive finite lengths
    on every edge or on none; the lengths need not be realizable.  Names
    are words without '#' joined by single spaces, all that a `name`
    record can carry."""
    ids = draw(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=8,
                        unique=True))
    facets = draw(st.lists(
        st.lists(st.sampled_from(ids), min_size=1, max_size=4, unique=True),
        max_size=6))
    words = st.lists(st.text("ab_.-é3", min_size=1, max_size=6),
                     min_size=1, max_size=3)
    name = draw(st.none() | words.map(" ".join))
    c = build_complex(facets, name=name)
    lengths = {}
    if draw(st.booleans()):
        positive = st.floats(min_value=0.0, exclude_min=True,
                             allow_infinity=False)
        lengths = {tuple(e): draw(positive) for e in c.k_simplices(1)}
    return MetricComplex(c, lengths)


@PROPERTY
@given(mc=metric_complexes())
def test_serialize_parse_round_trip(mc):
    text = serialize(mc)
    assert serialize(parse(text, validate=False)) == text
