"""Decisions and the order of findings: each decision is a tuple whose
fields order it by its position among the options it was taken from, so
a trail is its own sort key, and explore lists findings in that order."""

import pickle

import pytest

from vlsym import engine
from vlsym.ast import Program
from vlsym.corpus import COLMAX_FILES, SWAP_FILES, enumerate_skeletons, load_sources
from vlsym.engine import Branch, ChooseInt, ConcretizeInt, SearchConfig, explore
from vlsym.parser import load_program

EXAMPLES = [ChooseInt(1, 3), Branch(1), ConcretizeInt("N", 2, 4)]
# the options of one decision point of each kind, in the order the fork
# offers them: the two sides, then first; the k choices of a choose_int;
# and the feasible pins of one symbol, by value (an infeasible value leaves
# a gap)
OFFERED = {
    "branch": list(engine._SIDES),
    "choose": list(engine._Choices(12)),
    "pin": [ConcretizeInt("N", v, 5) for v in (-3, 0, 2, 9, 10)],
}
# an || whose else side is cut short before its then side reaches the
# assertion, so the depth-first search records B e before B t
OR_CUT = """
    input int N;
    input int M;
    func main() {
      assume(0 <= N && N <= 10);
      if (N < 5 || M < 3) {
        assert(N != 2);
      }
    }
    """


def position(d) -> int:
    """The reference order, written apart from the decisions' own: the
    position of d among the options it was taken from. A pin's value
    stands for its position, since pins are offered by value."""
    if isinstance(d, ChooseInt):
        return d.index
    if isinstance(d, Branch):
        return engine._SIDES.index(d)
    return d.value


def reference_key(trail) -> tuple:
    return tuple(position(d) for d in trail)


@pytest.mark.parametrize("d", EXAMPLES, ids=lambda d: type(d).__name__)
def test_a_decision_is_a_value_of_its_fields(d):
    copy = type(d)(*d)
    assert copy is not d and copy == d and hash(copy) == hash(d)
    # keywords and positions build the same decision, and every field is
    # required
    assert type(d)(**d._asdict()) == d
    with pytest.raises(TypeError):
        type(d)(*d[:-1])
    assert copy.render() == d.render()
    for name in d._fields:
        assert d._replace(**{name: object()}) != d
    thawed = pickle.loads(pickle.dumps(d))
    assert type(thawed) is type(d) and thawed == d


def test_no_two_kinds_of_decision_compare_equal():
    # the kinds have 2, 1 and 3 fields, so even equal leading values differ
    assert ChooseInt(0, 2) != Branch(0)
    kinds = list(OFFERED.values())
    for i, options in enumerate(kinds):
        for other in kinds[i + 1 :]:
            assert not any(a == b for a in options for b in other)


@pytest.mark.parametrize("kind", OFFERED)
def test_the_options_of_a_decision_point_sort_in_the_order_the_fork_offers_them(kind):
    offered = OFFERED[kind]
    assert sorted(reversed(offered)) == offered
    assert [position(d) for d in offered] == sorted(position(d) for d in offered)
    assert len(set(offered)) == len(offered)
    # a trail sorts before its extensions
    first, *rest = offered
    assert (first,) < (first, *rest)


def corpus(names) -> Program:
    prog = load_program(load_sources(names))
    assert isinstance(prog, Program), prog
    return prog


@pytest.mark.parametrize(
    "program, workers, count",
    [
        (lambda: corpus(COLMAX_FILES), 1, 3371),
        (lambda: corpus(SWAP_FILES), 1, 673),
        (lambda: corpus(COLMAX_FILES), 2, 3371),
        (lambda: load_program([("<input>", OR_CUT)]), 1, 2),
    ],
    ids=["colmax", "swap", "colmax-w2", "or-cut"],
)
def test_explore_lists_findings_by_the_position_of_each_option_taken(program, workers, count):
    r = explore(program(), SearchConfig(workers=workers))
    assert len(r.violations) == count
    keys = [reference_key(v.trail) for v in r.violations]
    assert keys == sorted(keys)


@pytest.mark.parametrize("bounds, count", [((3, 3), 682), ((3, 4), 5050)])
def test_the_oracle_lists_its_skeletons_in_trail_order(bounds, count):
    # the order the corpus oracle writes down, with no engine involved
    trails = [s.trail for s in enumerate_skeletons(*bounds)]
    assert len(trails) == count
    assert trails == sorted(trails)
    assert trails == sorted(trails, key=reference_key)
