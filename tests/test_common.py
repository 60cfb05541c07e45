import ast
import traceback
from collections import defaultdict
from pathlib import Path
from random import Random

import numpy as np
import pytest

from localekit import cli
from localekit.common import (BUDGETS, BudgetExceeded, first_failures, pack_rows, settled,
                              unpack_rows)
from localekit.corpus import chain
from localekit.lattice import RegularPairFrame, order_closure, validate_frame
from localekit.spaces import space_structures

from conftest import indiscrete


@pytest.mark.parametrize("n", [0, 1, 8, 64, 65, 130])
def test_pack_unpack_round_trip(n):
    rng = Random(n)
    masks = (0, (1 << n) - 1) + tuple(rng.getrandbits(n) for _ in range(20))
    rows = unpack_rows(iter(masks), n)
    assert rows.shape == (len(masks), n) and rows.dtype == bool
    assert rows.tolist() == [[bool(m >> k & 1) for k in range(n)] for m in masks]
    assert pack_rows(rows) == masks
    assert unpack_rows((), n).shape == (0, n)


def test_settled_raises_a_stored_error_afresh():
    stored = AssertionError("stored")
    depths = []
    for _ in range(3):  # as when several checks of one item ask for it
        with pytest.raises(AssertionError) as err:
            settled(stored)
        assert err.value is stored
        depths.append(len(traceback.extract_tb(err.value.__traceback__)))
    assert depths == [depths[0]] * 3
    assert settled("result") == "result"


def brute_first_failures(masks):
    """`first_failures` by a loop over items, laws and entries in row-major order."""
    found = {}
    for k in range(len(masks[0])):
        for law, mask in enumerate(masks):
            at = next((at for at in np.ndindex(mask.shape[1:]) if mask[k][at]), None)
            if at is not None:
                found[k] = (law, at)
                break
    return found


@pytest.mark.parametrize("count", [1, 2, 7, 40])
def test_first_failures_is_the_per_item_loop(count):
    rng = np.random.default_rng(count)
    for density in (0.0, 0.01, 0.05, 0.3):
        masks = [rng.random((count,) + shape) < density
                 for shape in ((), (5,), (3, 4), (2, 3, 2), ())]
        masks.append((rng.random((4, 3, count)) < density).transpose(2, 1, 0))  # not contiguous
        got = first_failures(masks)
        assert got == brute_first_failures(masks)
        assert list(got) == sorted(got)
        assert set(got) == {k for k in range(count) if any(mask[k].any() for mask in masks)}
        assert all(type(k) is int and all(type(v) is int for v in at)
                   for k, (_, at) in got.items())


def test_first_failures_reads_laws_in_order_then_row_major():
    masks = [np.zeros((3, 2, 2), dtype=bool), np.zeros(3, dtype=bool)]
    masks[0][2, 1, 0] = masks[0][2, 1, 1] = masks[1][2] = masks[1][0] = True
    assert first_failures(masks) == {0: (1, ()), 2: (0, (1, 0))}
    assert first_failures([mask[:0] for mask in masks]) == {}


# The functions of src/localekit that may call argmax: the one witness
# order, the vectorised one-law form the corpus filters with, and the
# greatest-x search of the Heyting table.
ARGMAX_CALLERS = {("common.py", "first_failures"), ("lattice.py", "_first"),
                  ("lattice.py", "heyting_tables")}


def argmax_calls(source):
    """(enclosing function, line) of every call of argmax in source, as a
    method or as a function reached by name or attribute."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and "argmax" in (getattr(node.func, "attr", None),
                                                       getattr(node.func, "id", None)):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)
    visit(ast.parse(source), None)
    return found


class TestWitnessOrderPolicy:
    def test_scanner_sees_every_form(self):
        source = ("def f(x):\n"
                  "    x.argmax()\n    np.argmax(x, axis=1)\n    argmax(x)\n"
                  "    x.argmin()\n    x.any(axis=0).argmax()\n")
        assert argmax_calls(source) == [("f", 2), ("f", 3), ("f", 4), ("f", 6)]

    def test_only_the_witness_order_calls_argmax(self):
        found = {(path.name, function)
                 for path in sorted(Path(cli.__file__).parent.glob("*.py"))
                 for function, _ in argmax_calls(path.read_text())}
        assert found == ARGMAX_CALLERS


def definitions(sources):
    """(module, name) of every top-level function and class of the modules
    {name: source}, and (module, "Class.member") of every non-dunder method,
    property and class attribute, each with its AST node. Dataclass fields
    are left to `dataclass_fields`: a constructor writes them."""
    for module, tree in sources.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield module, node.name, node
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                names = ([member.name] if isinstance(member, ast.FunctionDef) else
                         [t.id for t in getattr(member, "targets", ()) if isinstance(t, ast.Name)])
                for name in names:
                    if not (name.startswith("__") and name.endswith("__")):
                        yield module, f"{node.name}.{name}", member


def name_index(sources):
    """Every naming node of the modules {name: source}, walked once, as
    {key: ids of the nodes}. A member, "Class.member", is named by any
    `.member` or the string "member" (read by getattr), since a receiver's
    class is not known statically: `BooleanizationView.join` would pass on
    `frame.join`; such nodes are keyed by the string member. A top-level
    name is keyed (module, name) where it resolves to that module: bare in
    its own module or where `from .module import name` brought it, or as
    `alias.name` where `from . import module as alias` did."""
    index = defaultdict(set)
    for current, tree in sources.items():
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1]
        names = {alias.asname or alias.name: (node.module, alias.name)
                 for node in imports if node.module for alias in node.names}
        modules = {alias.asname or alias.name: alias.name
                   for node in imports if not node.module for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                index[node.attr].add(id(node))
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    index[modules[node.value.id], node.attr].add(id(node))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                index[node.value].add(id(node))
            elif isinstance(node, ast.Name):
                index[names.get(node.id, (current, node.id))].add(id(node))
    return index


def references(index, module, name, node):
    """Whether a node of name_index outside `node` names `module`'s definition `name`."""
    key = name.rpartition(".")[2] if "." in name else (module, name)
    return bool(index.get(key, set()) - {id(n) for n in ast.walk(node)})


def unreferenced(sources):
    """The definitions of sources that no module names outside their own."""
    index = name_index(sources)
    return [f"{module}.{name}" for module, name, node in definitions(sources)
            if not references(index, module, name, node)]


# {qualified name: why it stays}, for a definition of src/localekit that no
# other code there names; what no command reaches is deleted instead.
UNREFERENCED: dict[str, str] = {}


def dataclass_fields(sources):
    """(module, "Class.field", node) of every field of a @dataclass class of
    the modules {name: source}."""
    for module, tree in sources.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(d).startswith("dataclass") for d in node.decorator_list):
                for member in node.body:
                    if isinstance(member, ast.AnnAssign):
                        yield module, f"{node.name}.{member.target.id}", member


def unread_fields(sources):
    """The dataclass fields of sources that no code reads: named nowhere
    outside their own declaration, where a method of their class counts (it
    reads them) and a constructor's keyword does not (it writes them)."""
    index = name_index(sources)
    return [f"{module}.{name}" for module, name, node in dataclass_fields(sources)
            if not references(index, module, name, node)]


# {qualified name: the test module that reads it}, for a dataclass field of
# src/localekit that only a test reads: the condition a sublocale test
# names is what test_sublocales checks against the per-item oracle.
TEST_READ_FIELDS = {"sublocales.SubsetVerdict.condition": "test_sublocales.py"}


class TestEveryDefinitionIsReached:
    def test_scanner_qualifies_names_by_module(self):
        sources = {"a": ast.parse("def f():\n    return g()\n\ndef g():\n    return g()\n"
                                  "class C:\n    def m(self):\n        pass\n"
                                  "    def n(self):\n        return self.m()\n"),
                   "b": ast.parse("from . import a as alias\nfrom .a import f\n\n"
                                  "def g():\n    return alias.f(), f()\n")}
        assert unreferenced(sources) == ["a.C", "a.C.n", "b.g"]

    def test_every_definition_is_named_outside_itself(self):
        assert sorted(unreferenced(package_sources())) == sorted(UNREFERENCED)

    def test_scanner_reads_dataclass_fields(self):
        sources = {"a": ast.parse("from dataclasses import dataclass\n\n"
                                  "@dataclass(frozen=True)\nclass D:\n    kept: int\n"
                                  "    inner: int\n    written: int = 0\n"
                                  "    def total(self):\n        return self.inner\n\n"
                                  "class Plain:\n    note: int\n"),
                   "b": ast.parse("from .a import D\n\n"
                                  "def f():\n    return D(1, 2, written=3).kept\n")}
        assert unread_fields(sources) == ["a.D.written"]

    def test_every_dataclass_field_is_read(self):
        assert sorted(unread_fields(package_sources())) == sorted(TEST_READ_FIELDS)
        for name, test in TEST_READ_FIELDS.items():
            field = name.rpartition(".")[2]
            tree = ast.parse((Path(__file__).parent / test).read_text())
            assert any(getattr(node, "attr", None) == field for node in ast.walk(tree)), name


def package_sources():
    """{module: AST} of every module of src/localekit but __init__."""
    package = Path(cli.__file__).parent
    return {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))
            if path.stem != "__init__"}


def _chain_text(n):
    return f"lattice {n}\n" + "".join(f"{i} < {i + 1}\n" for i in range(n - 1))


# site: (bound, size, limit, argv, input file text). A limit of None is the
# bound's default; the corpus and topology sites run under --budget 2, since
# one past their defaults the run that must then pass takes minutes.
CLI_SITES = {
    "io.load_lattice_text": ("frame", 65, None, ["check-frame"], _chain_text(65)),
    "io.load_space_text": ("space", 9, None, ["spaces", "check"], "space 9\n"),
    "sublocales._sublocale_stack": ("primes", 11, None, ["sublocales"], _chain_text(12)),
    "spaces.enumerate_topologies": ("topology", 3, 2, ["spaces", "enumerate", "--n", "3"], None),
    "cli._campaign_lattices": ("corpus", 3, 2, ["campaign", "lattices", "--max-size", "3"], None),
}
# site: (bound, size, call with a budget), for sites no flag reaches.
DIRECT_SITES = {
    "lattice.validate_frame": ("frame", 65, lambda budget: validate_frame(
        order_closure(65, [(i, i + 1) for i in range(64)]), max_size=budget)),
    "spaces.space_structures": ("space", 9, lambda budget: next(
        space_structures([indiscrete(9)], budget)).proposition()),
    # chain(64) has 65 pairs (a, b) with a <= b regular
    "lattice.RegularPairFrame": ("frame", 65, lambda budget: RegularPairFrame(chain(64), budget)),
}


@pytest.mark.parametrize("site", [*CLI_SITES, *DIRECT_SITES])
def test_every_raise_site_names_its_budget(tmp_path, capsys, site):
    if site in CLI_SITES:
        bound, size, limit, argv, text = CLI_SITES[site]
        if text is not None:
            path = tmp_path / "input"
            path.write_text(text)
            argv = argv + [str(path)]
        assert cli.main(([] if limit is None else ["--budget", str(limit)]) + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith("\n")
        message = err[len("error: "):-1]
        assert cli.main(["--budget", str(size)] + argv) != 2
    else:
        bound, size, call = DIRECT_SITES[site]
        limit = None
        with pytest.raises(BudgetExceeded) as exc:
            call(None)
        message = str(exc.value)
        call(size)
    default, template = BUDGETS[bound]
    assert message == template.format(size=size, limit=default if limit is None else limit)
    assert bound in message and "--budget" in message
