import pytest

from localekit import checks, corpus
from localekit.spaces import FiniteSpace


def alone(frame, budget=None):
    """The FrameStructure of frame as a batch of one, as the single-input
    commands read it: its S(L) is `.lattice`, its closed-join frame
    `.closed_joins`, and each raises what building it raised."""
    return next(checks.frame_structures([frame], budget))


def sierpinski():
    """Two points with exactly one of the singletons open."""
    return FiniteSpace(2, (0, 2, 3))


def discrete(points):
    return FiniteSpace(points, range(1 << points))


def indiscrete(points):
    return FiniteSpace(points, (0, (1 << points) - 1))


@pytest.fixture(scope="session")
def c1():
    return corpus.chain(1)


@pytest.fixture(scope="session")
def c2():
    return corpus.chain(2)


@pytest.fixture(scope="session")
def c3():
    return corpus.chain(3)


@pytest.fixture(scope="session")
def c4():
    return corpus.chain(4)


@pytest.fixture(scope="session")
def b2():
    return corpus.boolean_cube(2)


@pytest.fixture(scope="session")
def b3():
    return corpus.boolean_cube(3)


@pytest.fixture(scope="session")
def grid(c2, c3):
    from localekit.lattice import product_frame
    return product_frame(c2, c3)


@pytest.fixture(scope="session")
def small_corpus():
    """Every labeled distributive lattice with at most 5 elements."""
    return [frame for _, frame in corpus.iter_distributive_frames(5)]


@pytest.fixture(scope="session")
def tiny_corpus():
    """One frame per shape that the unit tests lean on."""
    return {name: frame for name, frame in corpus.named_frames().items()}


@pytest.fixture(scope="session")
def chain65():
    """The 65-element chain: one element past the default frame budget."""
    from localekit.lattice import order_closure, validate_frame
    return validate_frame(order_closure(65, [(i, i + 1) for i in range(64)]), max_size=65)


@pytest.fixture(scope="session")
def cube7():
    """The 128-element Boolean cube (7 atoms), past the default frame budget."""
    from localekit.lattice import validate_frame
    n = 128
    return validate_frame([[i & ~j == 0 for j in range(n)] for i in range(n)], max_size=n)


@pytest.fixture(scope="session")
def bounded_lattices():
    """Per n <= 7: the tables (leq, meet, join, imp) of every bounded naturally
    labeled lattice on n elements, distributive or not, imp being the
    candidate `heyting_tables` reads off whether or not it is an implication;
    then the same lattices, each read through its own random relabeling."""
    import numpy as np
    from localekit.lattice import heyting_tables, lattice_tables
    from oracles import relabeled
    stacks = {}
    for n in range(1, 8):
        orders = np.concatenate(list(corpus._chunks(list(corpus._bounded_rows(n)), n)))
        meet, join, missing = lattice_tables(orders)
        lattices = missing < 0
        leq, meet, join = orders[lattices], meet[lattices], join[lattices]
        tables = (leq, meet, join, heyting_tables(leq, meet)[0])
        stacks[n] = [tables, relabeled(tables, np.random.default_rng(n))]
    return stacks
