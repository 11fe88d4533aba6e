"""Work budgets: how many times each pipeline stage may run a kernel.

A kernel that runs twice leaves every answer right, so only a count sees
it: a gluing quotient that closed its order a second time, or a profile
built again for a poset that already had one.  The counts come from
wrappers around the kernels, as in
``test_isomorphism_search_refines_a_bounded_number_of_times``, and each
budget is an upper bound, so a change that removes work passes unchanged
and one that adds work must raise a budget here and say why.

The kernels: ``_dag``, which closes an order from generating pairs; a
profile build, the first ``Poset._profile`` read of a poset;
``gluing._classes_below``, the bit rows of a gluing check; a simplex
table build, a call of ``complexes._simplex_faces`` or
``complexes._simplex_order``, which ``complexes._simplex`` makes once per
process for a size up to its bound and on every call above it; and
``Poset._bounds``, the meets and minimal upper bounds of a block of pairs;
and a parser build, an ``argparse.ArgumentParser`` construction, which
``cli.run`` makes once per process (a parser and its seven subparsers).
The simplex tables are counted as builds, not as reads, so the counts
pin the memo and its bound.
"""

import argparse
import inspect
from collections import Counter
from itertools import combinations

import pytest

import simposets.cli as cli_module
import simposets.complexes as complexes_module
import simposets.gluing as gluing_module
import simposets.poset as poset_module
from simposets import (
    Poset,
    RandomModelParams,
    fiber_relation,
    make_complex,
    quotient_by_gluing,
    rand_simplicial_poset,
    separation,
    stanley_poset_ideal,
    theta_glue,
)
from simposets.random_model import SplitMix64, kahle_complex

SAMPLES = [(6, 0.5, 3), (8, 0.7, 2), (10, 0.9, 1), (10, 1.0, 1)]


@pytest.fixture
def calls(monkeypatch):
    """A Counter of kernel runs, by kernel name, from wrappers installed
    wherever a module binds the kernel."""
    counts = Counter()

    def counted(name, kernel):
        def run(*args):
            counts[name] += 1
            return kernel(*args)

        return run

    for module in (poset_module, complexes_module):
        monkeypatch.setattr(module, "_dag", counted("_dag", poset_module._dag))
    monkeypatch.setattr(gluing_module, "_classes_below", counted("_classes_below", gluing_module._classes_below))
    for builder in ("_simplex_faces", "_simplex_order"):
        monkeypatch.setattr(complexes_module, builder, counted("simplex", getattr(complexes_module, builder)))
    monkeypatch.setattr(Poset, "_bounds", counted("_bounds", Poset._bounds))
    profile = Poset._profile

    def first_read(self):
        counts["profile"] += self._profile_cache is None
        return profile(self)

    monkeypatch.setattr(Poset, "_profile", first_read)
    return counts


@pytest.mark.parametrize("n, p, seed", SAMPLES)
def test_a_theta_sample_closes_no_order_and_checks_its_gluing_once(calls, n, p, seed):
    """A theta sample takes its separation from the facet layout and its
    quotient order from the validation rows: no ``_dag``, one
    ``_classes_below``, the separation's and the quotient's profiles, and
    at most a face table and an order matrix per distinct facet size of
    d1.  A second sample with the same facets builds no table."""
    sizes = {len(f) for f in kahle_complex(n, p, SplitMix64(seed)).facets}
    params = RandomModelParams(n=n, p1=p, p2=p, seed=seed)
    rand_simplicial_poset(params)
    assert calls["_dag"] == 0
    assert calls["_classes_below"] <= 1
    assert calls["profile"] <= 2
    assert calls["simplex"] <= 2 * len(sizes)
    calls.clear()
    rand_simplicial_poset(params)
    assert calls["simplex"] == 0


@pytest.mark.parametrize("k, kept", [(10, True), (11, False)])
def test_simplex_tables_are_kept_up_to_ten_vertices(calls, monkeypatch, k, kept):
    """From an empty memo, two theta gluings of the k-simplex with itself
    build its face table and order matrix once at k = 10 and on each call
    at k = 11, and two face posets of it build the face table alone: the
    bound of the memo, and no order matrix for a face poset."""
    monkeypatch.setattr(complexes_module, "_SIMPLEX_TABLES", {})
    names = [f"x{i}" for i in range(k)]
    simplex = make_complex(names, [names])
    for _ in range(2):
        theta_glue(simplex, simplex)
    assert calls["simplex"] == (2 if kept else 4)
    calls.clear()
    monkeypatch.setattr(complexes_module, "_SIMPLEX_TABLES", {})
    for _ in range(2):
        simplex.face_poset()
    assert calls["simplex"] == (1 if kept else 2)


@pytest.mark.parametrize("n, p, seed", SAMPLES)
def test_a_separation_quotient_closes_no_order(calls, n, p, seed):
    """``quotient_by_gluing(fiber_relation(separation(q)))`` on a loaded
    poset: no ``_dag``, one ``_classes_below``, and three profiles: q's,
    the separation's and the quotient's."""
    q = Poset.from_json(rand_simplicial_poset(RandomModelParams(n=n, p1=p, p2=p, seed=seed)).to_json())
    calls.clear()
    quotient_by_gluing(fiber_relation(separation(q)))
    assert calls["_dag"] == 0
    assert calls["_classes_below"] <= 1
    assert calls["profile"] <= 3


@pytest.mark.parametrize("n, p, seed", SAMPLES)
def test_a_load_closes_its_order_once(calls, n, p, seed):
    text = rand_simplicial_poset(RandomModelParams(n=n, p1=p, p2=p, seed=seed)).to_json()
    calls.clear()
    Poset.from_json(text)
    assert calls["_dag"] <= 1


@pytest.mark.parametrize("pairs_a_block", [None, 7])
@pytest.mark.parametrize("n, p, seed", SAMPLES[:2])
def test_the_poset_ideal_bounds_its_pairs_a_block_at_a_time(calls, monkeypatch, n, p, seed, pairs_a_block):
    """``stanley_poset_ideal`` builds one profile and runs one ``_bounds``
    call per block of pairs with a common upper bound, not one per pair,
    at the default budget and at seven pairs a block."""
    text = rand_simplicial_poset(RandomModelParams(n=n, p1=p, p2=p, seed=seed)).to_json()
    # incomparable pairs with a common upper bound, counted off the lower
    # sets of the maxima of a copy, so that q's profile is not yet built
    copy = Poset.from_json(text)
    tops = [copy.lower_set(x) for x in copy.maximal_elements()]
    pairs = sum(
        not (copy.leq(u, v) or copy.leq(v, u)) and any(u in t and v in t for t in tops)
        for u, v in combinations(copy.elements, 2)
    )
    q = Poset.from_json(text)
    cells = pairs_a_block * len(q) if pairs_a_block else poset_module._BLOCK_CELLS  # a row of leq a pair
    monkeypatch.setattr(poset_module, "_BLOCK_CELLS", cells)
    calls.clear()
    stanley_poset_ideal(q)
    assert calls["profile"] <= 1
    assert calls["_bounds"] <= -(-pairs // (cells // len(q)))


def test_the_cli_builds_its_parser_on_the_first_run_only(monkeypatch, tmp_path, capsys):
    """From an empty memo, the first ``cli.run`` builds the parser and its
    seven subparsers; five more runs (``random``, ``check``, a parse error
    and ``--help`` among them) build none."""
    built = Counter()
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built["parser"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli_module._parser.cache_clear()
    draw = ["random", "--n", "4", "--p1", "0.5", "--p2", "0.5", "--seed", "1"]
    assert cli_module.run(draw) == 0
    assert built["parser"] == 8
    built.clear()
    assert cli_module.run([*draw, "--count", "3", "--tally", "--out", str(tmp_path / "out.json")]) == 0
    assert cli_module.run(["check", "--complex", "a*b,b*c", "--test", "simplicial"]) == 0
    for argv, code in ((["check", "--test", "simplicial"], 2), (["--help"], 0), (["random", "--help"], 0)):
        with pytest.raises(SystemExit) as exit_:
            cli_module.run(argv)
        assert exit_.value.code == code
    capsys.readouterr()
    assert built["parser"] == 0


def _parsers(parser):
    """``parser`` and, recursively, every subparser it holds."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_no_parser_action_carries_state_between_runs():
    """``cli.run`` parses every call with one shared parser, which is safe
    only while a parse reads the parser and never writes it.  An argparse
    parser keeps state from one parse to the next in one way: an action
    with a mutable default, such as the list an ``append``, ``extend`` or
    ``append_const`` action (or a list default) fills in place.  So every
    action of the parser and of each subparser has a default of None or
    of an immutable scalar type, is of none of those kinds, and each
    parser-level default is such a scalar or a function."""
    parsers = list(_parsers(cli_module.build_parser()))
    assert len(parsers) == 8
    scalars = (type(None), bool, int, float, str)
    stateful = (argparse._AppendAction, argparse._AppendConstAction)  # _ExtendAction is an _AppendAction
    for parser in parsers:
        for action in parser._actions:
            assert type(action.default) in scalars, (parser.prog, action)
            assert not isinstance(action, stateful), (parser.prog, action)
        for name, value in parser._defaults.items():
            assert inspect.isfunction(value) or type(value) in scalars, (parser.prog, name)
